#ifndef AUTOCAT_EXEC_PIPELINE_OPERATOR_H_
#define AUTOCAT_EXEC_PIPELINE_OPERATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/pipeline/morsel.h"
#include "storage/attr_index.h"
#include "storage/columnar.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace autocat {

/// What every pipeline operator sees at Open: the base relation, its
/// columnar shadow (never null), and the projected result shape. Borrowed pointers —
/// the caller keeps them alive for the pipeline's duration.
struct PipelineInput {
  const Table* base = nullptr;
  const ColumnarTable* columnar = nullptr;
  /// Schema of the projected result (what the gather sink materializes).
  const Schema* schema = nullptr;
  /// Base-column index per result column.
  const std::vector<size_t>* projection = nullptr;
  /// Result columns the StatsAccumulate sink should index, by name
  /// (null = every supported column). The serve layer passes the
  /// categorizer's retained candidate attributes so no index entry is
  /// built for a column the partitioners will never touch.
  const std::vector<std::string>* stats_attributes = nullptr;
  size_t num_morsels = 0;
};

/// Push-protocol consumer of filtered morsels (the RDF-3X operator idiom
/// turned inside out: the scheduler drives, operators receive).
///
/// Lifecycle: `Open` once, then `Push` at most once per morsel — possibly
/// concurrently for *different* morsels, never twice for the same one —
/// then `Finish` once, single-threaded, after every Push returned. A
/// morsel the scheduler never pushes (the zone prover ruled it all-fail)
/// contributes zero survivors: every sink's per-morsel state defaults to
/// empty, so skipped morsels and pushed-empty morsels are
/// indistinguishable at Finish. `survivors` are the morsel's surviving
/// base-row indices, ascending.
///
/// Determinism contract: a sink keys everything it accumulates in Push by
/// `morsel.index` into slots pre-sized at Open (so concurrent Pushes
/// touch disjoint state), and Finish merges the slots in index order.
/// `morsel_offsets` has num_morsels + 1 entries: `[m]` is the number of
/// survivors in morsels 0..m-1 — i.e. the result-row index of morsel m's
/// first survivor — and `back()` is the total, letting a sink turn
/// morsel-local ordinals into result-row indices without having observed
/// the other morsels. The merged output is therefore a pure function of
/// the input, independent of thread count and completion order.
class MorselSink {
 public:
  virtual ~MorselSink() = default;

  virtual void Open(const PipelineInput& input) = 0;
  virtual void Push(const Morsel& morsel, const uint32_t* survivors,
                    size_t count) = 0;
  virtual Status Finish(const std::vector<size_t>& morsel_offsets) = 0;
};

/// Collects the selection vector (the surviving base-row indices in
/// ascending order) — what `CompiledPredicate::Filter` returns, rebuilt
/// from per-morsel shards.
class SelectionSink final : public MorselSink {
 public:
  void Open(const PipelineInput& input) override;
  void Push(const Morsel& morsel, const uint32_t* survivors,
            size_t count) override;
  Status Finish(const std::vector<size_t>& morsel_offsets) override;

  std::vector<uint32_t>& selection() { return selection_; }

 private:
  std::vector<std::vector<uint32_t>> shards_;
  std::vector<uint32_t> selection_;
};

/// Gathers the projected survivor rows into an owned row-backed table —
/// `TableView::Materialize`, morsel at a time — and accounts the copied
/// cells' bytes on the way (the cache's ApproxValueBytes measure:
/// sizeof(Value) plus string capacity of the stored copies), so the serve
/// layer skips its separate whole-table accounting pass.
class ProjectSink final : public MorselSink {
 public:
  void Open(const PipelineInput& input) override;
  void Push(const Morsel& morsel, const uint32_t* survivors,
            size_t count) override;
  Status Finish(const std::vector<size_t>& morsel_offsets) override;

  Table& result() { return result_; }
  /// sizeof(Table) + per-row sizeof(Row) + per-cell ApproxValueBytes of
  /// `result()` — equal to what serve/cache.cc computes over the table.
  size_t result_bytes() const { return result_bytes_; }

 private:
  const PipelineInput* input_ = nullptr;
  bool identity_ = false;
  std::vector<std::vector<Row>> shards_;
  std::vector<size_t> shard_bytes_;
  Table result_;
  size_t result_bytes_ = 0;
};

/// Accumulates the survivor set and turns it, at Finish, into a
/// ResultAttributeIndex: the root-level sorted-values / value-groups
/// shapes the partitioners consume (the "stats accumulate" operator).
/// Push only marks survivors in a bitmap — survivor rows ascend globally
/// across morsels, so ascending bitmap order *is* the morsel-merge order
/// and a row's rank is its result-row index; all per-column work happens
/// once in Finish against the final selection. Columns outside the two
/// supported shapes (or outside `stats_attributes`) get no entry;
/// consumers rescan.
class StatsAccumulateSink final : public MorselSink {
 public:
  void Open(const PipelineInput& input) override;
  void Push(const Morsel& morsel, const uint32_t* survivors,
            size_t count) override;
  Status Finish(const std::vector<size_t>& morsel_offsets) override;

  ResultAttributeIndex& index() { return index_; }

 private:
  // How a result column is read. The branch order mirrors the
  // partitioners' typed fast paths exactly, so the accumulated values are
  // the ones a direct scan would have produced.
  enum class Mode {
    kSkip,        ///< No entry for this column.
    kNumericI64,  ///< int64 -> static_cast<double>
    kNumericF64,  ///< double -> raw
    kStringDict,  ///< string -> group by dictionary code
  };

  const PipelineInput* input_ = nullptr;
  std::vector<Mode> modes_;
  /// Survivor bitmap over base rows — the only state Push touches
  /// (different morsels own disjoint word ranges, so concurrent Pushes
  /// never race). Finish reads values per column from it: via the
  /// per-table `sorted_order` rank-filter when the selection is dense
  /// enough, else by gathering and sorting the survivors.
  std::vector<uint64_t> survivor_words_;
  ResultAttributeIndex index_;
};

}  // namespace autocat

#endif  // AUTOCAT_EXEC_PIPELINE_OPERATOR_H_
