#ifndef AUTOCAT_SQL_SELECTION_H_
#define AUTOCAT_SQL_SELECTION_H_

#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/value.h"
#include "sql/ast.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace autocat {

/// A (possibly half-open-ended) interval over a numeric attribute.
struct NumericRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_inclusive = true;
  bool hi_inclusive = true;

  /// True when no value satisfies the range.
  bool IsEmpty() const;

  /// True when `x` lies inside the range. A NaN `x` lies inside none,
  /// as every predicate evaluator answers for a NaN cell (see
  /// `Value::is_nan`), and the numeric partitioners place it in no bucket.
  bool Contains(double x) const;

  /// True when this range intersects the *closed* interval [a, b]. This is
  /// the overlap test of Section 4.2: a workload range overlaps a numeric
  /// category label when the two intervals intersect.
  bool OverlapsClosed(double a, double b) const;

  /// Intersection of two ranges (possibly empty).
  NumericRange Intersect(const NumericRange& other) const;

  /// Smallest single range containing both inputs (used to normalize ORs of
  /// ranges on one attribute; a convex-hull approximation).
  NumericRange Hull(const NumericRange& other) const;

  /// True when both endpoints are finite.
  bool IsBounded() const;

  /// e.g. "[200000, 300000]" or "(-inf, 1000000)".
  std::string ToString() const;
};

/// The normalized selection condition a query places on one attribute:
/// either an explicit value set (`A IN {...}` / `A = v`) or a numeric
/// range.
struct AttributeCondition {
  enum class Type { kValueSet, kRange };

  Type type = Type::kValueSet;
  /// Populated when type == kValueSet.
  std::set<Value> values;
  /// Populated when type == kRange.
  NumericRange range;

  static AttributeCondition ValueSet(std::set<Value> vs);
  static AttributeCondition Range(NumericRange r);

  bool is_value_set() const { return type == Type::kValueSet; }
  bool is_range() const { return type == Type::kRange; }

  /// True when the condition can match no value at all.
  bool IsEmpty() const;

  /// True when `v` satisfies the condition. A NULL or NaN cell satisfies
  /// none, and a NaN member of a value set matches no cell.
  bool Matches(const Value& v) const;

  /// True when the condition admits at least one value in the closed
  /// numeric interval [a, b].
  bool OverlapsClosedInterval(double a, double b) const;

  /// True when the condition admits at least one value of `vs`.
  bool OverlapsValueSet(const std::set<Value>& vs) const;

  std::string ToString() const;
};

/// The normalized form of a query's WHERE clause: one `AttributeCondition`
/// per constrained attribute, with conjunctive semantics across attributes.
///
/// This is the representation Section 4.2 reasons about ("If Ui has
/// specified a selection condition on SA(C) in Wi ..."): workload
/// preprocessing, probability estimation, and the simulated explorations
/// all consume `SelectionProfile`s rather than raw SQL.
///
/// Normalization accepts the conjunctive selection queries of a
/// star-schema workload. ORs are folded when every disjunct constrains the
/// same attribute (value sets union; ranges take their convex hull);
/// anything else — cross-attribute ORs, NOT IN / NOT BETWEEN / <> , IS
/// NULL — yields kNotSupported so callers can skip and count such queries.
class SelectionProfile {
 public:
  SelectionProfile() = default;

  /// Normalizes a WHERE expression against `schema`.
  static Result<SelectionProfile> FromExpr(const Expr& expr,
                                           const Schema& schema);

  /// Normalizes a whole query (no WHERE clause -> empty profile).
  static Result<SelectionProfile> FromQuery(const SelectQuery& query,
                                            const Schema& schema);

  /// Conditions keyed by lowercase attribute name (transparent
  /// comparison: see FindLowercase).
  using ConditionMap = std::map<std::string, AttributeCondition, std::less<>>;
  const ConditionMap& conditions() const {
    return conditions_;
  }

  bool empty() const { return conditions_.empty(); }
  size_t num_conditions() const { return conditions_.size(); }

  /// True when the profile has a condition on `attribute`
  /// (case-insensitive). This is the NAttr predicate of Section 4.2.
  bool Constrains(std::string_view attribute) const;

  /// Returns the condition on `attribute`, or nullptr when unconstrained.
  const AttributeCondition* Find(std::string_view attribute) const;

  /// Inserts/replaces a condition (used by generators and broadening).
  void Set(std::string_view attribute, AttributeCondition condition);

  /// Removes the condition on `attribute` if present.
  void Remove(std::string_view attribute);

  /// Conjunctive row test: true when every condition matches the row's
  /// cell (NULL cells never match a condition).
  bool MatchesRow(const Row& row, const Schema& schema) const;

  /// Regenerates a canonical WHERE-clause SQL text ("" when empty).
  std::string ToSqlWhere() const;

  std::string ToString() const;

 private:
  ConditionMap conditions_;
};

}  // namespace autocat

#endif  // AUTOCAT_SQL_SELECTION_H_
