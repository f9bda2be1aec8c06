#ifndef AUTOCAT_STORAGE_SCHEMA_H_
#define AUTOCAT_STORAGE_SCHEMA_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace autocat {

/// How the categorizer treats a column's domain (Section 3.1 of the paper):
/// categorical attributes partition into value-set categories
/// (`A IN {v1,..}`), numeric attributes into range buckets (`a1 <= A < a2`).
enum class ColumnKind {
  kCategorical,
  kNumeric,
};

std::string_view ColumnKindToString(ColumnKind kind);

/// Definition of a single column: name (case-insensitive for lookup),
/// storage type, and categorization kind.
struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kString;
  ColumnKind kind = ColumnKind::kCategorical;

  ColumnDef() = default;
  ColumnDef(std::string name_in, ValueType type_in, ColumnKind kind_in)
      : name(std::move(name_in)), type(type_in), kind(kind_in) {}
};

/// An ordered list of column definitions with case-insensitive name lookup.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema, verifying column names are unique (case-insensitive)
  /// and that kNumeric columns have a numeric storage type.
  static Result<Schema> Create(std::vector<ColumnDef> columns);

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Index of the column named `name` (case-insensitive).
  Result<size_t> ColumnIndex(std::string_view name) const;

  /// True if a column named `name` exists.
  bool HasColumn(std::string_view name) const;

  /// "name:type:kind, ..." rendering for diagnostics.
  std::string ToString() const;

  bool operator==(const Schema& other) const;

 private:
  // Hashes std::string and std::string_view alike, so lookups by a view
  // build no key string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<ColumnDef> columns_;
  std::unordered_map<std::string, size_t, NameHash, std::equal_to<>>
      index_by_lower_name_;
};

}  // namespace autocat

#endif  // AUTOCAT_STORAGE_SCHEMA_H_
