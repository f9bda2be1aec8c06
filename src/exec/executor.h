#ifndef AUTOCAT_EXEC_EXECUTOR_H_
#define AUTOCAT_EXEC_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "storage/columnar.h"
#include "storage/table.h"

namespace autocat {

/// A minimal named-table catalog: the "database" queries run against.
/// Every table is installed column-backed (`Table::FromColumnar`) over
/// its columnar shadow (storage/columnar.h), built when the table is
/// registered or put, so a table is its shadow and no row copy stays
/// resident. Copies share the immutable shadows. (As with the rest of the
/// class, copying a Database that another thread is mutating requires
/// external synchronization.)
class Database {
 public:
  /// Registers `table` under `name` (case-insensitive), installed as
  /// described by `PutTable`. Errors when a table with that name already
  /// exists.
  Status RegisterTable(std::string_view name, Table table);

  /// Replaces or creates the table under `name`. A `FromColumnar` table
  /// without a selection is stored as it is; any other is stored as
  /// `Table::FromColumnar` over `ColumnarTable::Build` of it (a table
  /// with a selection is gathered first, so it never shares the shadow it
  /// selects from) and its rows are freed. A table of more than
  /// UINT32_MAX rows is stored as it is. Replacement happens in place:
  /// the `Table` object keeps its address (see GetTable), only its
  /// contents change. The new shadow is built before the swap.
  void PutTable(std::string_view name, Table table);

  /// Looks up a table by name.
  ///
  /// Pointer-stability contract: the returned pointer stays valid for the
  /// lifetime of the Database and is never invalidated by later
  /// RegisterTable or PutTable calls (tables live in a node-based map).
  /// PutTable replaces the *contents* behind the pointer, so callers that
  /// must not observe mixed contents (e.g. the serving layer reading a
  /// table while another thread calls PutTable) still need their own
  /// synchronization — the contract is about the address, not the data.
  Result<const Table*> GetTable(std::string_view name) const;

  /// Returns the table's columnar shadow: its `columnar_backing()`. The
  /// shared_ptr keeps the shadow alive across a later PutTable. Errors:
  /// kNotFound for an unknown table; kNotSupported when the table has
  /// more rows than a uint32_t selection vector can address (the serving
  /// layer returns the error).
  Result<std::shared_ptr<const ColumnarTable>> ColumnarFor(
      std::string_view name) const;

  bool HasTable(std::string_view name) const;
  size_t num_tables() const { return tables_.size(); }
  /// The registered table names (lowercase), in ascending order.
  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, Table, std::less<>> tables_;  // keyed by lowercase name
};

/// Executes a parsed selection/projection query against `db`: scans the
/// FROM table, keeps rows matching the WHERE clause with the exact
/// row-at-a-time evaluator (FilterTable), then projects the select list
/// (SelectRows -> Project). Returns the result relation, or the first
/// error a row's evaluation raises (an unknown column, or a string
/// compared with a number).
Result<Table> ExecuteQuery(const SelectQuery& query, const Database& db);

/// Parses and executes an SQL string.
Result<Table> ExecuteSql(std::string_view sql, const Database& db);

/// Returns the indices of the rows of `table` matched by `where`
/// (nullptr matches everything).
Result<std::vector<size_t>> FilterTable(const Table& table,
                                        const Expr* where);

}  // namespace autocat

#endif  // AUTOCAT_EXEC_EXECUTOR_H_
