#ifndef AUTOCAT_EXEC_EXECUTOR_H_
#define AUTOCAT_EXEC_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "sql/ast.h"
#include "storage/columnar.h"
#include "storage/table.h"

namespace autocat {

/// A minimal named-table catalog: the "database" queries run against.
class Database {
 public:
  Database() = default;

  // Copy/move transfer only the row-store tables; columnar shadows are
  // dropped and rebuilt lazily on first use. (As with the rest of the
  // class, copying or moving a Database that another thread is mutating
  // requires external synchronization.)
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;

  /// Registers `table` under `name` (case-insensitive). Errors when a table
  /// with that name already exists.
  Status RegisterTable(std::string_view name, Table table);

  /// Replaces or creates the table under `name`. Replacement happens in
  /// place: the `Table` object keeps its address (see GetTable), only its
  /// contents change. Invalidates the table's columnar shadow.
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

  /// Returns the table's columnar shadow (see storage/columnar.h),
  /// building and caching it on first use. The shared_ptr keeps the shadow
  /// alive across a concurrent PutTable, which only drops the cache entry.
  /// Errors: kNotFound for an unknown table; kNotSupported when the table
  /// has more rows than a uint32_t selection vector can address
  /// (ExecuteQuery falls back to the row path; the serving layer returns
  /// the error).
  ///
  /// Thread-safe against concurrent ColumnarFor/PutTable on *other*
  /// threads only under the same external synchronization GetTable
  /// requires for the row data itself.
  Result<std::shared_ptr<const ColumnarTable>> ColumnarFor(
      std::string_view name) const AUTOCAT_EXCLUDES(columnar_mu_);

  bool HasTable(std::string_view name) const;
  size_t num_tables() const { return tables_.size(); }

 private:
  /// The cached shadow for `key`, or nullptr when none is cached yet.
  std::shared_ptr<const ColumnarTable> LookupColumnarLocked(
      const std::string& key) const AUTOCAT_REQUIRES(columnar_mu_);
  /// Caches `shadow` under `key` (first writer wins on a race) and
  /// returns the cached entry.
  std::shared_ptr<const ColumnarTable> InsertColumnarLocked(
      const std::string& key,
      std::shared_ptr<const ColumnarTable> shadow) const
      AUTOCAT_REQUIRES(columnar_mu_);

  std::map<std::string, Table> tables_;  // keyed by lowercase name

  // Lazily built columnar shadows, keyed like tables_. Guarded by
  // columnar_mu_ so read-only callers (ColumnarFor is const) can share a
  // cache without racing on the map itself.
  mutable Mutex columnar_mu_;
  mutable std::map<std::string, std::shared_ptr<const ColumnarTable>>
      columnar_ AUTOCAT_GUARDED_BY(columnar_mu_);
};

/// Knobs for ExecuteQuery/ExecuteSql. Defaults favor the serving layer:
/// single-threaded filter.
struct ExecOptions {
  ExecOptions() { parallel.threads = 1; }

  /// Threading for the columnar filter (chunk-order merge keeps the
  /// result deterministic at any thread count).
  ParallelOptions parallel;
};

/// Executes a parsed selection/projection query against `db`: scans the
/// FROM table, keeps rows matching the WHERE clause, then projects the
/// select list. Returns the result relation. The scan runs the columnar
/// kernels over a zero-copy view; when they refuse the WHERE clause (or
/// the table is too large for a columnar shadow) it falls back to the
/// exact row-at-a-time evaluator. Results are bit-identical either way.
Result<Table> ExecuteQuery(const SelectQuery& query, const Database& db,
                           const ExecOptions& options);
Result<Table> ExecuteQuery(const SelectQuery& query, const Database& db);

/// Parses and executes an SQL string.
Result<Table> ExecuteSql(std::string_view sql, const Database& db,
                         const ExecOptions& options);
Result<Table> ExecuteSql(std::string_view sql, const Database& db);

/// Returns the indices of the rows of `table` matched by `where`
/// (nullptr matches everything).
Result<std::vector<size_t>> FilterTable(const Table& table,
                                        const Expr* where);

}  // namespace autocat

#endif  // AUTOCAT_EXEC_EXECUTOR_H_
