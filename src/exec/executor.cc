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

std::shared_ptr<const ColumnarTable> Database::ShadowOf(const Table& table) {
  if (table.num_rows() > std::numeric_limits<uint32_t>::max()) {
    return nullptr;
  }
  if (!table.has_rows()) {
    // Column-backed tables (segment-store mode) carry their columnar
    // representation already.
    return table.columnar_backing();
  }
  return std::make_shared<const ColumnarTable>(ColumnarTable::Build(table));
}

Status Database::RegisterTable(std::string_view name, Table table) {
  const std::string key = ToLower(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + std::string(name) +
                                 "' already registered");
  }
  auto shadow = ShadowOf(table);
  tables_.emplace(key, Entry{std::move(table), std::move(shadow)});
  return Status::OK();
}

void Database::PutTable(std::string_view name, Table table) {
  auto shadow = ShadowOf(table);
  Entry& entry = tables_[ToLower(name)];
  entry.table = std::move(table);
  entry.shadow = std::move(shadow);
}

Result<const Table*> Database::GetTable(std::string_view name) const {
  const auto it = FindLowercase(tables_, name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  return &it->second.table;
}

Result<std::shared_ptr<const ColumnarTable>> Database::ColumnarFor(
    std::string_view name) const {
  const auto it = FindLowercase(tables_, name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  if (it->second.shadow == nullptr) {
    return Status::NotSupported("table '" + std::string(name) +
                                "' too large for a columnar shadow");
  }
  return it->second.shadow;
}

bool Database::HasTable(std::string_view name) const {
  return FindLowercase(tables_, name) != tables_.end();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, entry] : tables_) {
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
  if (!table.has_rows()) {
    // Column-backed base: synthesize each candidate row for the exact
    // row-at-a-time evaluator.
    for (size_t r = 0; r < table.num_rows(); ++r) {
      AUTOCAT_ASSIGN_OR_RETURN(
          const bool keep,
          EvaluatePredicate(*where, table.CopyRow(r), table.schema()));
      if (keep) {
        indices.push_back(r);
      }
    }
    return indices;
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    AUTOCAT_ASSIGN_OR_RETURN(
        const bool keep,
        EvaluatePredicate(*where, table.row(r), table.schema()));
    if (keep) {
      indices.push_back(r);
    }
  }
  return indices;
}

Result<Table> ExecuteQuery(const SelectQuery& query, const Database& db) {
  AUTOCAT_ASSIGN_OR_RETURN(const Table* table, db.GetTable(query.table_name));
  AUTOCAT_ASSIGN_OR_RETURN(const std::vector<size_t> indices,
                           FilterTable(*table, query.where.get()));
  AUTOCAT_ASSIGN_OR_RETURN(Table selected, table->SelectRows(indices));
  if (query.select_all()) {
    return selected;
  }
  return selected.Project(query.columns);
}

Result<Table> ExecuteSql(std::string_view sql, const Database& db) {
  AUTOCAT_ASSIGN_OR_RETURN(const SelectQuery query, ParseQuery(sql));
  return ExecuteQuery(query, db);
}

}  // namespace autocat
