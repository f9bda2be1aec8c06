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

  /// Evaluates the predicate over every base row and returns the matching
  /// row indices in ascending order. Deterministic at any thread count.
  Result<std::vector<uint32_t>> Filter(const ParallelOptions& parallel) const;

  /// Morsel-granular evaluation, the unit `Filter` dispatches: appends
  /// the surviving base-row indices of morsel `m` (rows
  /// [m*kMorselRows, min(n, (m+1)*kMorselRows))) to `out`, ascending.
  /// Evaluating every morsel in index order reproduces `Filter` exactly.
  /// Consults the zone prover first: kAllFail morsels append nothing and
  /// kAllPass morsels append the dense row range, both without touching a
  /// single cell.
  void AppendMorselSurvivors(size_t m, std::vector<uint32_t>* out) const;

  /// Zone-prover verdict for morsel `m`, the AND of the leaves' verdicts:
  /// any all-fail leaf zeroes it, all all-pass leaves keep it full, and
  /// anything else is kMixed. The cold path counts these verdicts for its
  /// zone-pruning metrics.
  ZoneVerdict MorselVerdict(size_t m) const;

  /// True when some leaf routes dense morsels through the SIMD kernels
  /// (serving metrics attribution; the scalar fallback stays available
  /// per call).
  bool uses_simd() const { return uses_simd_; }

  size_t num_rows() const {
    return columnar_ == nullptr ? 0 : columnar_->num_rows();
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
  bool uses_simd_ = false;
};

}  // namespace autocat

#endif  // AUTOCAT_EXEC_KERNELS_H_
