#ifndef AUTOCAT_EXEC_KERNELS_H_
#define AUTOCAT_EXEC_KERNELS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/schema.h"

namespace autocat {

/// One compiled per-attribute condition of a CompiledPredicate. Defined
/// and built only in kernels.cc.
struct PredicateLeaf;

/// A serving-layer SelectionProfile compiled into vectorized per-column
/// kernels over a `ColumnarTable`: a flat conjunction of one leaf per
/// constrained attribute, a never-matches flag, or (no leaves) every row.
///
/// `Filter` output is bit-identical to `MatchesRow` over every row,
/// ascending. `CompileProfile` is *total and exact*: `MatchesRow` never
/// errors, and every profile shape has an exact kernel. The
/// semantics-preservation argument is spelled out in DESIGN.md §10.
///
/// Rows reach the leaves from one candidate source. When a string value
/// set's posting union (see `ColumnarTable::Column::posting_rows`) names
/// at most num_rows / kPostingCutoffDivisor rows, only those rows are
/// evaluated; otherwise every row of each unproven morsel is. Either way
/// the zone prover skips proven morsels first.
///
/// `Filter` runs chunked through the morsel scheduler with per-chunk
/// selection shards merged in chunk order, so the selection vector is
/// bit-identical at any thread count.
class CompiledPredicate {
 public:
  /// Tri-state zone-prover verdict for one morsel: no row can match,
  /// every row must match, or unprovable (evaluate per row). Verdicts are
  /// *refuse-or-exact*: a prover that cannot decide says kMixed, never a
  /// wrong definite answer, so honoring kAllFail/kAllPass is always
  /// bit-identical to evaluating.
  enum class ZoneVerdict : uint8_t { kAllFail, kAllPass, kMixed };

  /// A string value set whose posting union names at most
  /// num_rows / kPostingCutoffDivisor rows becomes the candidate source.
  /// bench_exec_filter's BM_CandidateSource sweep (compile + Filter on the
  /// 120K-row homes table) puts the crossover with the dense scan at
  /// about n/2; at n/4 the posting source is still 20-30% faster, so n/4
  /// keeps a margin below the crossover (EXPERIMENTS.md).
  static constexpr size_t kPostingCutoffDivisor = 4;

  /// Candidate-source rule of later `CompileProfile` calls: the cutoff
  /// above (the default), always the dense scan, or the smallest posting
  /// union whatever its size. A hook for tests and bench_exec_filter,
  /// which time and check both sources on one predicate; the output is
  /// identical under every rule.
  enum class CandidateSource : uint8_t { kCutoff, kDense, kPostings };
  static void ForceCandidateSourceForTest(CandidateSource source);

  /// Compiles a serving-layer selection profile (conjunction of
  /// per-attribute conditions, `MatchesRow` semantics: an unknown
  /// attribute makes every row non-matching rather than erroring). Never
  /// refuses; the only error is a null `columnar` (kInvalidArgument).
  static Result<CompiledPredicate> CompileProfile(
      const SelectionProfile& profile, const Schema& schema,
      std::shared_ptr<const ColumnarTable> columnar);

  // Defined in kernels.cc, where PredicateLeaf is complete.
  CompiledPredicate(CompiledPredicate&&) noexcept;
  CompiledPredicate& operator=(CompiledPredicate&&) noexcept;
  ~CompiledPredicate();

  /// Returns the indices of the base rows that satisfy the predicate, in
  /// ascending order: zone-proven morsels are skipped or appended whole,
  /// and the rest evaluate their candidate rows. Deterministic at any
  /// thread count.
  Result<std::vector<uint32_t>> Filter(const ParallelOptions& parallel) const;

  /// Morsel-granular evaluation, the unit `Filter` dispatches: appends
  /// the surviving base-row indices of morsel `m` (rows
  /// [m*kMorselRows, min(n, (m+1)*kMorselRows))) to `out`, ascending.
  /// Evaluating every morsel in index order reproduces `Filter` exactly.
  /// Consults the zone prover first: kAllFail morsels append nothing and
  /// kAllPass morsels append the dense row range, both without touching a
  /// single cell.
  void AppendMorselSurvivors(size_t m, std::vector<uint32_t>* out) const;

  /// How `AppendMorselSurvivors` evaluates one morsel. The cold path sums
  /// these into its pruning and work counters.
  struct MorselWork {
    ZoneVerdict verdict = ZoneVerdict::kMixed;
    /// Rows some leaf is evaluated on: none for a zone-proven morsel, the
    /// candidate rows under a posting source, else every row.
    size_t rows_examined = 0;
    /// True when the first leaf's mask for the morsel is filled by a SIMD
    /// kernel (only a dense-sourced mixed morsel fills one).
    bool simd = false;
  };
  MorselWork PlanMorsel(size_t m) const;

  /// Zone-prover verdict for morsel `m`, the AND of the leaves' verdicts:
  /// any all-fail leaf zeroes it, all all-pass leaves keep it full, and
  /// anything else is kMixed. The cold path counts these verdicts for its
  /// zone-pruning metrics.
  ZoneVerdict MorselVerdict(size_t m) const;

  /// True when a posting union is the candidate source.
  bool uses_postings() const { return !candidates_.empty(); }

  size_t num_rows() const {
    return columnar_ == nullptr ? 0 : columnar_->num_rows();
  }

  /// The shadow the predicate was compiled against and filters.
  const std::shared_ptr<const ColumnarTable>& columnar() const {
    return columnar_;
  }

  /// Number of evaluation morsels (kMorselRows-wide chunks) over the base.
  size_t num_morsels() const;

 private:
  CompiledPredicate(std::shared_ptr<const ColumnarTable> columnar,
                    std::vector<PredicateLeaf> leaves, bool never_matches);

  std::shared_ptr<const ColumnarTable> columnar_;
  /// ANDed; empty matches every row (unless `never_matches_`).
  std::vector<PredicateLeaf> leaves_;
  bool never_matches_ = false;
  /// The candidate source's rows as a bitmap over base rows (the first
  /// leaf's accept set); empty for the dense scan.
  std::vector<uint64_t> candidates_;
};

}  // namespace autocat

#endif  // AUTOCAT_EXEC_KERNELS_H_
