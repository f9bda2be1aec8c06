#include "exec/executor.h"

#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "exec/predicate.h"
#include "sql/parser.h"

namespace autocat {

namespace {

// `table` as a Database holds it: column-backed over its own shadow.
Table Installed(Table table) {
  if (table.num_rows() > std::numeric_limits<uint32_t>::max() ||
      (!table.has_rows() && !table.has_selection())) {
    // Too large for a columnar shadow, or already its backing (the
    // segment store's tables, and tables another Database installed).
    return table;
  }
  auto shadow =
      std::make_shared<const ColumnarTable>(ColumnarTable::Build(table));
  return Table::FromColumnar(table.schema(), std::move(shadow));
}

}  // namespace

Status Database::RegisterTable(std::string_view name, Table table) {
  const std::string key = ToLower(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + std::string(name) +
                                 "' already registered");
  }
  tables_.emplace(key, Installed(std::move(table)));
  return Status::OK();
}

void Database::PutTable(std::string_view name, Table table) {
  tables_[ToLower(name)] = Installed(std::move(table));
}

Result<const Table*> Database::GetTable(std::string_view name) const {
  const auto it = FindLowercase(tables_, name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  return &it->second;
}

Result<std::shared_ptr<const ColumnarTable>> Database::ColumnarFor(
    std::string_view name) const {
  AUTOCAT_ASSIGN_OR_RETURN(const Table* table, GetTable(name));
  if (table->num_rows() > std::numeric_limits<uint32_t>::max()) {
    return Status::NotSupported("table '" + std::string(name) +
                                "' too large for a columnar shadow");
  }
  return table->columnar_backing();
}

bool Database::HasTable(std::string_view name) const {
  return FindLowercase(tables_, name) != tables_.end();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) {
    names.push_back(key);
  }
  return names;
}

Result<std::vector<size_t>> FilterTable(const Table& table,
                                        const Expr* where) {
  std::vector<size_t> indices;
  if (where == nullptr) {
    indices.resize(table.num_rows());
    std::iota(indices.begin(), indices.end(), 0);
    return indices;
  }
  Row scratch;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    AUTOCAT_ASSIGN_OR_RETURN(
        const bool keep,
        EvaluatePredicate(*where, table.RowRef(r, &scratch), table.schema()));
    if (keep) {
      indices.push_back(r);
    }
  }
  return indices;
}

Result<Table> ExecuteQuery(const SelectQuery& query, const Database& db) {
  AUTOCAT_ASSIGN_OR_RETURN(const Table* table, db.GetTable(query.table_name));
  AUTOCAT_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarTable> shadow,
                           db.ColumnarFor(query.table_name));
  AUTOCAT_ASSIGN_OR_RETURN(const std::vector<size_t> indices,
                           FilterTable(*table, query.where.get()));
  return Table::Select(*table, std::move(shadow),
                       std::vector<uint32_t>(indices.begin(), indices.end()),
                       query.columns);
}

Result<Table> ExecuteSql(std::string_view sql, const Database& db) {
  AUTOCAT_ASSIGN_OR_RETURN(const SelectQuery query, ParseQuery(sql));
  return ExecuteQuery(query, db);
}

}  // namespace autocat
