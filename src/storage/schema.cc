#include "storage/schema.h"

#include "common/string_util.h"

namespace autocat {

std::string_view ColumnKindToString(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kCategorical:
      return "categorical";
    case ColumnKind::kNumeric:
      return "numeric";
  }
  return "unknown";
}

Result<Schema> Schema::Create(std::vector<ColumnDef> columns) {
  Schema schema;
  for (size_t i = 0; i < columns.size(); ++i) {
    const ColumnDef& col = columns[i];
    if (col.name.empty()) {
      return Status::InvalidArgument("column name must not be empty");
    }
    if (col.kind == ColumnKind::kNumeric &&
        col.type != ValueType::kInt64 && col.type != ValueType::kDouble) {
      return Status::InvalidArgument(
          "numeric column '" + col.name + "' must have int64/double type");
    }
    const std::string lower = ToLower(col.name);
    auto [it, inserted] = schema.index_by_lower_name_.emplace(lower, i);
    (void)it;
    if (!inserted) {
      return Status::AlreadyExists("duplicate column name '" + col.name +
                                   "'");
    }
  }
  schema.columns_ = std::move(columns);
  return schema;
}

Result<size_t> Schema::ColumnIndex(std::string_view name) const {
  const auto it = FindLowercase(index_by_lower_name_, name);
  if (it == index_by_lower_name_.end()) {
    return Status::NotFound("no column named '" + std::string(name) + "'");
  }
  return it->second;
}

bool Schema::HasColumn(std::string_view name) const {
  return FindLowercase(index_by_lower_name_, name) !=
         index_by_lower_name_.end();
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += columns_[i].name;
    out += ":";
    out += ValueTypeToString(columns_[i].type);
    out += ":";
    out += ColumnKindToString(columns_[i].kind);
  }
  return out;
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) {
    return false;
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ColumnDef& a = columns_[i];
    const ColumnDef& b = other.columns_[i];
    if (!EqualsIgnoreCase(a.name, b.name) || a.type != b.type ||
        a.kind != b.kind) {
      return false;
    }
  }
  return true;
}

}  // namespace autocat
