#ifndef AUTOCAT_EXEC_KERNELS_H_
#define AUTOCAT_EXEC_KERNELS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "sql/ast.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/schema.h"

namespace autocat {

/// A WHERE clause (or serving-layer SelectionProfile) compiled into
/// vectorized per-column kernels over a `ColumnarTable`.
///
/// A compiled predicate's `Filter` output is bit-identical to the
/// row-at-a-time path (`EvaluatePredicate` / `MatchesRow` over every row,
/// ascending). `Compile` is *refuse-or-exact*: it returns `kNotSupported`
/// whenever the row path *could* error, and the caller falls back to the
/// row path (an unknown column errors per evaluated row, and the
/// string-vs-numeric comparison error is data- and order-dependent, so
/// any literal whose comparison class differs from the column's storage
/// class refuses unless the column is all-NULL, where no row-path error
/// can occur). `CompileProfile` is *total*: `MatchesRow` never errors,
/// and every profile shape has an exact kernel. The
/// semantics-preservation argument is spelled out in DESIGN.md §10.
///
/// `Filter` runs chunked through `ParallelFor` with per-chunk selection
/// shards merged in chunk order, so the selection vector is bit-identical
/// at any thread count.
class CompiledPredicate {
 public:
  /// Tri-state zone-prover verdict for one morsel: no row can match,
  /// every row must match, or unprovable (evaluate per row). Verdicts are
  /// *refuse-or-exact*: a prover that cannot decide says kMixed, never a
  /// wrong definite answer, so honoring kAllFail/kAllPass is always
  /// bit-identical to evaluating.
  enum class ZoneVerdict : uint8_t { kAllFail, kAllPass, kMixed };

  /// Implementation detail, public only so the compiler helpers in
  /// kernels.cc can build trees: a predicate node. Leaves fill a 0/1 mask
  /// for base rows [begin, end); And/Or combine child masks bitwise
  /// (valid because a compiled predicate is statically error-free, so
  /// short-circuit order cannot be observed).
  struct Node {
    enum class Kind { kConstFalse, kConstTrue, kAnd, kOr, kLeaf };
    Kind kind = Kind::kConstFalse;
    std::vector<Node> children;
    std::function<void(size_t begin, size_t end, uint8_t* mask)> leaf;
    /// Single-row form of `leaf` (same verdict for every row, including
    /// the null mask). Lets an all-leaf conjunction evaluate its first
    /// child densely and test later children only on surviving rows.
    std::function<bool(size_t row)> row_pred;
    /// Optional zone prover: a per-morsel verdict derived from the
    /// column's zone map, never contradicting `leaf`. Missing means every
    /// morsel is unprovable (kMixed).
    std::function<ZoneVerdict(size_t m)> zone;
    /// True when `leaf` routes dense morsels through the SIMD kernels.
    bool simd = false;
  };

  /// Compiles a WHERE expression against the table's schema and columnar
  /// shadow. Returns kNotSupported when any sub-expression is not covered
  /// exactly (caller falls back to the row path).
  static Result<CompiledPredicate> Compile(
      const Expr& expr, const Schema& schema,
      std::shared_ptr<const ColumnarTable> columnar);

  /// Compiles a serving-layer selection profile (conjunction of
  /// per-attribute conditions, `MatchesRow` semantics: an unknown
  /// attribute makes every row non-matching rather than erroring). Never
  /// refuses; the only error is a null `columnar` (kInvalidArgument).
  static Result<CompiledPredicate> CompileProfile(
      const SelectionProfile& profile, const Schema& schema,
      std::shared_ptr<const ColumnarTable> columnar);

  /// Evaluates the predicate over every base row and returns the matching
  /// row indices in ascending order. Deterministic at any thread count.
  Result<std::vector<uint32_t>> Filter(const ParallelOptions& parallel) const;

  /// Morsel-granular evaluation for the push pipeline: appends the
  /// surviving base-row indices of morsel `m` (rows
  /// [m*kMorselRows, min(n, (m+1)*kMorselRows))) to `out`, ascending.
  /// Evaluating every morsel in index order reproduces `Filter` exactly.
  /// Consults the zone prover first: kAllFail morsels append nothing and
  /// kAllPass morsels append the dense row range, both without touching a
  /// single cell.
  void AppendMorselSurvivors(size_t m, std::vector<uint32_t>* out) const;

  /// Zone-prover verdict for morsel `m`, composed over the predicate tree
  /// (AND: any all-fail child zeroes it, all all-pass children keep it
  /// full; OR is the dual; anything else is kMixed). Schedulers use this
  /// to avoid dispatching kAllFail morsels at all.
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
  CompiledPredicate(std::shared_ptr<const ColumnarTable> columnar, Node root);

  std::shared_ptr<const ColumnarTable> columnar_;
  Node root_;
  bool uses_simd_ = false;
};

}  // namespace autocat

#endif  // AUTOCAT_EXEC_KERNELS_H_
