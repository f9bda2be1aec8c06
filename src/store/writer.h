#ifndef AUTOCAT_STORE_WRITER_H_
#define AUTOCAT_STORE_WRITER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/columnar.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "store/format.h"
#include "store/sorter.h"

namespace autocat {

struct StoreWriterOptions {
  /// Budget for the external sorter's in-memory chunk. Beyond it the
  /// writer holds null bitmaps (rows/8 bytes per column), zone entries
  /// (24 bytes per 2048 rows per column) and each column's distinct
  /// values: the string dictionaries and the int64/double rank domains,
  /// which must fit in memory (the homes domains do; an all-distinct
  /// 10M-row numeric column takes up to 160 MB).
  size_t memory_budget_bytes = 64ull << 20;
  /// Column names to sort each table by (Value order, ties keep input
  /// order). Empty preserves input order — required when a bit-identical
  /// twin of an in-memory table is wanted.
  std::vector<std::string> sort_columns;
  /// Spill directory; defaults to "<path>.tmp".
  std::string temp_dir;
};

/// Streaming bulk loader for a segment store file. Usage:
///
///   auto writer = StoreWriter::Create(path, options);
///   writer->BeginTable("homes", schema);
///   for (...) writer->Append(row);      // spills beyond the budget
///   writer->FinishTable();              // derive every column's arrays
///   writer->Finish();                   // assemble file, catalog, header
///
/// Each column has one `ColumnEncoder`, the encoder `ColumnarTable::Build`
/// uses, so the store holds exactly the arrays `Build` derives from the
/// same rows. Append observes each cell (the encoders keep only the
/// distinct values) and streams the row through an ExternalRowSorter
/// (serialized spill runs), so peak memory stays near the budget plus the
/// distinct values. FinishTable replays the merged run stream once,
/// encoding every cell: values and codes go to per-column spill files in
/// the temp dir ("<table>_col<c>.values" and "<table>_col<c>.codes"),
/// null bitmaps, dictionaries and zones stay in memory. Finish()
/// concatenates them into page-aligned regions of the final mapped file
/// and writes the catalog.
class StoreWriter {
 public:
  static Result<std::unique_ptr<StoreWriter>> Create(
      std::string path, StoreWriterOptions options);

  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Starts a table. Finish the previous one first. A kNull-typed column
  /// is kInvalidArgument: the format has no all-NULL column type.
  Status BeginTable(const std::string& name, const Schema& schema);

  /// Validates `row` against the schema exactly as Table::AppendRow does
  /// (NULL anywhere, lossless numeric coercion) and streams it in.
  Status Append(Row row);

  /// Derives the current table's column arrays (the encoders observed
  /// every cell during Append, so this replays the merged stream once).
  /// On failure the table's spill files are removed and the table is
  /// dropped.
  Status FinishTable();

  /// Assembles the store file. No further appends afterwards.
  Status Finish();

  struct Stats {
    uint64_t rows = 0;
    uint64_t spilled_runs = 0;
    uint64_t file_bytes = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  StoreWriter(std::string path, StoreWriterOptions options);

  // A fully encoded table waiting for Finish() to place its regions.
  struct PendingTable;

  Status EncodeTable(PendingTable* pending);
  static void RemoveSpillFiles(const PendingTable& pending);

  std::string path_;
  StoreWriterOptions options_;
  bool finished_ = false;

  // In-flight table (between BeginTable and FinishTable).
  std::unique_ptr<PendingTable> current_;
  std::unique_ptr<ExternalRowSorter> sorter_;
  // One per column of the in-flight table.
  std::vector<ColumnEncoder> encoders_;

  std::vector<std::unique_ptr<PendingTable>> pending_;
  Stats stats_;
};

}  // namespace autocat

#endif  // AUTOCAT_STORE_WRITER_H_
