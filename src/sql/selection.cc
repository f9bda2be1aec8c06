#include "sql/selection.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace autocat {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

bool NumericRange::IsEmpty() const {
  if (lo > hi) {
    return true;
  }
  if (lo == hi) {
    return !(lo_inclusive && hi_inclusive);
  }
  return false;
}

bool NumericRange::Contains(double x) const {
  // Every comparison with a NaN `x` is false, so it is inside no range.
  return (x > lo || (x == lo && lo_inclusive)) &&
         (x < hi || (x == hi && hi_inclusive));
}

bool NumericRange::OverlapsClosed(double a, double b) const {
  if (IsEmpty() || a > b) {
    return false;
  }
  // No intersection iff the range ends before a or starts after b.
  if (hi < a || (hi == a && !hi_inclusive)) {
    return false;
  }
  if (lo > b || (lo == b && !lo_inclusive)) {
    return false;
  }
  return true;
}

NumericRange NumericRange::Intersect(const NumericRange& other) const {
  NumericRange out;
  if (lo > other.lo) {
    out.lo = lo;
    out.lo_inclusive = lo_inclusive;
  } else if (lo < other.lo) {
    out.lo = other.lo;
    out.lo_inclusive = other.lo_inclusive;
  } else {
    out.lo = lo;
    out.lo_inclusive = lo_inclusive && other.lo_inclusive;
  }
  if (hi < other.hi) {
    out.hi = hi;
    out.hi_inclusive = hi_inclusive;
  } else if (hi > other.hi) {
    out.hi = other.hi;
    out.hi_inclusive = other.hi_inclusive;
  } else {
    out.hi = hi;
    out.hi_inclusive = hi_inclusive && other.hi_inclusive;
  }
  return out;
}

NumericRange NumericRange::Hull(const NumericRange& other) const {
  NumericRange out;
  if (lo < other.lo) {
    out.lo = lo;
    out.lo_inclusive = lo_inclusive;
  } else if (lo > other.lo) {
    out.lo = other.lo;
    out.lo_inclusive = other.lo_inclusive;
  } else {
    out.lo = lo;
    out.lo_inclusive = lo_inclusive || other.lo_inclusive;
  }
  if (hi > other.hi) {
    out.hi = hi;
    out.hi_inclusive = hi_inclusive;
  } else if (hi < other.hi) {
    out.hi = other.hi;
    out.hi_inclusive = other.hi_inclusive;
  } else {
    out.hi = hi;
    out.hi_inclusive = hi_inclusive || other.hi_inclusive;
  }
  return out;
}

bool NumericRange::IsBounded() const {
  return std::isfinite(lo) && std::isfinite(hi);
}

std::string NumericRange::ToString() const {
  std::string out;
  out += lo_inclusive ? "[" : "(";
  out += std::isfinite(lo) ? HumanizeNumber(lo) : "-inf";
  out += ", ";
  out += std::isfinite(hi) ? HumanizeNumber(hi) : "+inf";
  out += hi_inclusive ? "]" : ")";
  return out;
}

AttributeCondition AttributeCondition::ValueSet(std::set<Value> vs) {
  AttributeCondition cond;
  cond.type = Type::kValueSet;
  cond.values = std::move(vs);
  return cond;
}

AttributeCondition AttributeCondition::Range(NumericRange r) {
  AttributeCondition cond;
  cond.type = Type::kRange;
  cond.range = r;
  return cond;
}

bool AttributeCondition::IsEmpty() const {
  return is_value_set() ? values.empty() : range.IsEmpty();
}

bool AttributeCondition::Matches(const Value& v) const {
  if (v.is_null() || v.is_nan()) {
    return false;
  }
  if (is_value_set()) {
    // A NaN member compares equal to every number, yet matches nothing.
    const auto it = values.find(v);
    return it != values.end() && !it->is_nan();
  }
  return v.is_numeric() && range.Contains(v.AsDouble());
}

bool AttributeCondition::OverlapsClosedInterval(double a, double b) const {
  if (is_range()) {
    return range.OverlapsClosed(a, b);
  }
  for (const Value& v : values) {
    if (v.is_numeric()) {
      const double x = v.AsDouble();
      if (x >= a && x <= b) {
        return true;
      }
    }
  }
  return false;
}

bool AttributeCondition::OverlapsValueSet(const std::set<Value>& vs) const {
  if (is_value_set()) {
    // Iterate over the smaller set.
    const std::set<Value>& small = values.size() <= vs.size() ? values : vs;
    const std::set<Value>& large = values.size() <= vs.size() ? vs : values;
    for (const Value& v : small) {
      if (large.count(v) > 0) {
        return true;
      }
    }
    return false;
  }
  for (const Value& v : vs) {
    if (v.is_numeric() && range.Contains(v.AsDouble())) {
      return true;
    }
  }
  return false;
}

std::string AttributeCondition::ToString() const {
  if (is_range()) {
    return range.ToString();
  }
  std::string out = "{";
  bool first = true;
  for (const Value& v : values) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += v.ToString();
  }
  out += "}";
  return out;
}

namespace {

// Builds the condition for a single leaf predicate. Returns kNotSupported
// for predicate forms the normalized representation cannot express.
Result<std::pair<std::string, AttributeCondition>> NormalizeLeaf(
    const Expr& expr, const Schema& schema) {
  switch (expr.kind()) {
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                               schema.ColumnIndex(cmp.column()));
      const ColumnDef& def = schema.column(col);
      const std::string key = ToLower(cmp.column());
      if (cmp.op() == ComparisonOp::kNotEq) {
        return Status::NotSupported(
            "'<>' predicates have no normalized form");
      }
      if (cmp.op() == ComparisonOp::kEq) {
        if (cmp.literal().is_null()) {
          return Status::NotSupported("'= NULL' predicate");
        }
        if (def.kind == ColumnKind::kCategorical) {
          return std::make_pair(
              key, AttributeCondition::ValueSet({cmp.literal()}));
        }
        if (!cmp.literal().is_numeric()) {
          return Status::InvalidArgument(
              "non-numeric literal compared with numeric column '" +
              cmp.column() + "'");
        }
        NumericRange r;
        r.lo = r.hi = cmp.literal().AsDouble();
        return std::make_pair(key, AttributeCondition::Range(r));
      }
      // Ordered comparison: numeric columns only.
      if (def.kind != ColumnKind::kNumeric) {
        return Status::NotSupported(
            "ordered comparison on categorical column '" + cmp.column() +
            "'");
      }
      if (!cmp.literal().is_numeric()) {
        return Status::InvalidArgument(
            "non-numeric literal compared with numeric column '" +
            cmp.column() + "'");
      }
      const double x = cmp.literal().AsDouble();
      NumericRange r;
      switch (cmp.op()) {
        case ComparisonOp::kLess:
          r.hi = x;
          r.hi_inclusive = false;
          break;
        case ComparisonOp::kLessEq:
          r.hi = x;
          r.hi_inclusive = true;
          break;
        case ComparisonOp::kGreater:
          r.lo = x;
          r.lo_inclusive = false;
          break;
        case ComparisonOp::kGreaterEq:
          r.lo = x;
          r.lo_inclusive = true;
          break;
        default:
          return Status::Internal("unreachable comparison op");
      }
      return std::make_pair(key, AttributeCondition::Range(r));
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      if (in.negated()) {
        return Status::NotSupported("NOT IN predicates");
      }
      AUTOCAT_RETURN_IF_ERROR(schema.ColumnIndex(in.column()).status());
      std::set<Value> vs;
      for (const Value& v : in.values()) {
        if (v.is_null()) {
          return Status::NotSupported("NULL inside IN list");
        }
        vs.insert(v);
      }
      return std::make_pair(ToLower(in.column()),
                            AttributeCondition::ValueSet(std::move(vs)));
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      if (bt.negated()) {
        return Status::NotSupported("NOT BETWEEN predicates");
      }
      AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                               schema.ColumnIndex(bt.column()));
      if (schema.column(col).kind != ColumnKind::kNumeric) {
        return Status::NotSupported("BETWEEN on categorical column '" +
                                    bt.column() + "'");
      }
      if (!bt.lo().is_numeric() || !bt.hi().is_numeric()) {
        return Status::InvalidArgument(
            "BETWEEN bounds must be numeric for column '" + bt.column() +
            "'");
      }
      NumericRange r;
      r.lo = bt.lo().AsDouble();
      r.hi = bt.hi().AsDouble();
      return std::make_pair(ToLower(bt.column()),
                            AttributeCondition::Range(r));
    }
    case ExprKind::kIsNull:
      return Status::NotSupported("IS [NOT] NULL predicates");
    case ExprKind::kLogical:
      return Status::Internal("NormalizeLeaf called on logical expression");
  }
  return Status::Internal("unreachable expression kind");
}

// Intersects two conditions on the same attribute (AND semantics).
Result<AttributeCondition> IntersectConditions(const AttributeCondition& a,
                                               const AttributeCondition& b) {
  if (a.is_value_set() && b.is_value_set()) {
    std::set<Value> out;
    for (const Value& v : a.values) {
      if (b.values.count(v) > 0) {
        out.insert(v);
      }
    }
    return AttributeCondition::ValueSet(std::move(out));
  }
  if (a.is_range() && b.is_range()) {
    return AttributeCondition::Range(a.range.Intersect(b.range));
  }
  // Mixed: filter the value set by the range.
  const AttributeCondition& set_cond = a.is_value_set() ? a : b;
  const AttributeCondition& range_cond = a.is_value_set() ? b : a;
  std::set<Value> out;
  for (const Value& v : set_cond.values) {
    if (v.is_numeric() && range_cond.range.Contains(v.AsDouble())) {
      out.insert(v);
    }
  }
  return AttributeCondition::ValueSet(std::move(out));
}

// Unions two conditions on the same attribute (OR semantics). Ranges take
// their convex hull — a documented approximation.
Result<AttributeCondition> UnionConditions(const AttributeCondition& a,
                                           const AttributeCondition& b) {
  if (a.is_value_set() && b.is_value_set()) {
    std::set<Value> out = a.values;
    out.insert(b.values.begin(), b.values.end());
    return AttributeCondition::ValueSet(std::move(out));
  }
  if (a.is_range() && b.is_range()) {
    return AttributeCondition::Range(a.range.Hull(b.range));
  }
  return Status::NotSupported(
      "OR mixing a value-set and a range condition on one attribute");
}

Result<SelectionProfile::ConditionMap> NormalizeExpr(
    const Expr& expr, const Schema& schema);

Result<SelectionProfile::ConditionMap> NormalizeLogical(
    const LogicalExpr& expr, const Schema& schema) {
  if (expr.op() == LogicalExpr::Op::kAnd) {
    SelectionProfile::ConditionMap merged;
    for (const auto& child : expr.children()) {
      AUTOCAT_ASSIGN_OR_RETURN(auto child_conds,
                               NormalizeExpr(*child, schema));
      for (auto& [attr, cond] : child_conds) {
        const auto it = merged.find(attr);
        if (it == merged.end()) {
          merged.emplace(attr, std::move(cond));
        } else {
          AUTOCAT_ASSIGN_OR_RETURN(it->second,
                                   IntersectConditions(it->second, cond));
        }
      }
    }
    return merged;
  }
  // OR: every disjunct must constrain exactly the same single attribute.
  SelectionProfile::ConditionMap merged;
  for (const auto& child : expr.children()) {
    AUTOCAT_ASSIGN_OR_RETURN(auto child_conds, NormalizeExpr(*child, schema));
    if (child_conds.size() != 1) {
      return Status::NotSupported(
          "OR across multiple attributes has no normalized form");
    }
    auto& [attr, cond] = *child_conds.begin();
    if (merged.empty()) {
      merged.emplace(attr, std::move(cond));
    } else if (merged.begin()->first != attr) {
      return Status::NotSupported(
          "OR across multiple attributes has no normalized form");
    } else {
      AUTOCAT_ASSIGN_OR_RETURN(
          merged.begin()->second,
          UnionConditions(merged.begin()->second, cond));
    }
  }
  return merged;
}

Result<SelectionProfile::ConditionMap> NormalizeExpr(
    const Expr& expr, const Schema& schema) {
  if (expr.kind() == ExprKind::kLogical) {
    return NormalizeLogical(static_cast<const LogicalExpr&>(expr), schema);
  }
  AUTOCAT_ASSIGN_OR_RETURN(auto leaf, NormalizeLeaf(expr, schema));
  SelectionProfile::ConditionMap out;
  out.emplace(std::move(leaf.first), std::move(leaf.second));
  return out;
}

}  // namespace

Result<SelectionProfile> SelectionProfile::FromExpr(const Expr& expr,
                                                    const Schema& schema) {
  AUTOCAT_ASSIGN_OR_RETURN(auto conds, NormalizeExpr(expr, schema));
  SelectionProfile profile;
  profile.conditions_ = std::move(conds);
  return profile;
}

Result<SelectionProfile> SelectionProfile::FromQuery(
    const SelectQuery& query, const Schema& schema) {
  if (query.where == nullptr) {
    return SelectionProfile();
  }
  return FromExpr(*query.where, schema);
}

bool SelectionProfile::Constrains(std::string_view attribute) const {
  return FindLowercase(conditions_, attribute) != conditions_.end();
}

const AttributeCondition* SelectionProfile::Find(
    std::string_view attribute) const {
  const auto it = FindLowercase(conditions_, attribute);
  return it == conditions_.end() ? nullptr : &it->second;
}

void SelectionProfile::Set(std::string_view attribute,
                           AttributeCondition condition) {
  conditions_[ToLower(attribute)] = std::move(condition);
}

void SelectionProfile::Remove(std::string_view attribute) {
  conditions_.erase(ToLower(attribute));
}

bool SelectionProfile::MatchesRow(const Row& row,
                                  const Schema& schema) const {
  for (const auto& [attr, cond] : conditions_) {
    const auto col = schema.ColumnIndex(attr);
    if (!col.ok()) {
      return false;
    }
    if (!cond.Matches(row[col.value()])) {
      return false;
    }
  }
  return true;
}

std::string SelectionProfile::ToSqlWhere() const {
  std::vector<std::string> parts;
  for (const auto& [attr, cond] : conditions_) {
    if (cond.is_value_set()) {
      if (cond.values.size() == 1) {
        parts.push_back(attr + " = " + cond.values.begin()->ToSqlLiteral());
      } else {
        std::string part = attr + " IN (";
        bool first = true;
        for (const Value& v : cond.values) {
          if (!first) {
            part += ", ";
          }
          first = false;
          part += v.ToSqlLiteral();
        }
        part += ")";
        parts.push_back(std::move(part));
      }
    } else {
      const NumericRange& r = cond.range;
      if (r.IsBounded() && r.lo_inclusive && r.hi_inclusive) {
        parts.push_back(attr + " BETWEEN " + Value(r.lo).ToString() +
                        " AND " + Value(r.hi).ToString());
      } else {
        std::vector<std::string> bounds;
        if (std::isfinite(r.lo)) {
          bounds.push_back(attr + (r.lo_inclusive ? " >= " : " > ") +
                           Value(r.lo).ToString());
        }
        if (std::isfinite(r.hi)) {
          bounds.push_back(attr + (r.hi_inclusive ? " <= " : " < ") +
                           Value(r.hi).ToString());
        }
        if (bounds.empty()) {
          continue;  // unbounded range constrains nothing
        }
        parts.push_back(Join(bounds, " AND "));
      }
    }
  }
  return Join(parts, " AND ");
}

std::string SelectionProfile::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [attr, cond] : conditions_) {
    if (!first) {
      out += "; ";
    }
    first = false;
    out += attr + ": " + cond.ToString();
  }
  out += "}";
  return out;
}

}  // namespace autocat
