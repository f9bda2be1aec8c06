#ifndef AUTOCAT_STORE_SORTER_H_
#define AUTOCAT_STORE_SORTER_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace autocat {

struct SorterOptions {
  /// Approximate in-memory chunk budget; when the serialized chunk
  /// exceeds it, the chunk is sorted and spilled to a run file.
  size_t memory_budget_bytes = 64ull << 20;
  /// Directory for run files. Created if absent; removed by Cleanup().
  std::string temp_dir;
  /// Column indices to sort by (Value order, lexicographic). Empty means
  /// no sorting: the merged stream replays rows in input order.
  std::vector<size_t> sort_columns;
};

/// External merge sorter over serialized rows — the bulk loader's
/// bounded-memory substrate. `AddRow` serializes each row into the current
/// chunk; when the chunk exceeds the budget it is sorted (stably, input
/// order breaking ties) and written to a run file. `OpenStream` performs
/// a k-way merge over all runs and can be called repeatedly; the bulk
/// loader replays the merged order once, encoding every column as it
/// goes. Peak memory is one chunk plus one row per run.
class ExternalRowSorter {
 public:
  ExternalRowSorter(Schema schema, SorterOptions options);
  ~ExternalRowSorter();
  ExternalRowSorter(const ExternalRowSorter&) = delete;
  ExternalRowSorter& operator=(const ExternalRowSorter&) = delete;

  /// Serializes `row` (must match the schema arity; cells must be NULL or
  /// the declared type) into the current chunk, spilling when over
  /// budget.
  Status AddRow(const Row& row);

  /// Spills the tail chunk. Call once, after the last AddRow.
  Status Finish();

  uint64_t num_rows() const { return num_rows_; }
  size_t num_runs() const { return runs_.size(); }

  /// A sequential scan of the merged (sorted) row stream.
  class Stream {
   public:
    /// Fills `out` with the next row; returns false at end of stream.
    Result<bool> Next(Row* out);

   private:
    friend class ExternalRowSorter;
    struct RunCursor {
      std::unique_ptr<std::ifstream> in;
      uint64_t remaining = 0;
      Row row;          // head row, already deserialized
      size_t run_index = 0;
    };
    const ExternalRowSorter* parent_ = nullptr;
    std::vector<RunCursor> cursors_;  // kept heap-ordered by (key, run)
  };

  /// Opens a merged scan over the spilled runs. Requires Finish().
  Result<Stream> OpenStream() const;

  /// Removes the run files and temp directory.
  Status Cleanup();

 private:
  Status SpillChunk();
  // <0 / 0 / >0 comparison of the sort keys of rows a and b.
  int CompareKeys(const Row& a, const Row& b) const;

  Schema schema_;
  SorterOptions options_;
  bool finished_ = false;

  // Current chunk: rows kept deserialized for sorting, with a running
  // estimate of their serialized footprint.
  std::vector<Row> chunk_;
  size_t chunk_bytes_ = 0;

  std::vector<std::string> runs_;  // run file paths
  std::vector<uint64_t> run_rows_;
  uint64_t num_rows_ = 0;
};

}  // namespace autocat

#endif  // AUTOCAT_STORE_SORTER_H_
