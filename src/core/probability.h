#ifndef AUTOCAT_CORE_PROBABILITY_H_
#define AUTOCAT_CORE_PROBABILITY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/category.h"
#include "workload/counts.h"

namespace autocat {

/// True when `p` is a finite value in [0, 1]. Every probability produced
/// by the estimator and consumed by the cost model must satisfy this;
/// call sites assert it under AUTOCAT_DCHECK.
bool IsValidProbability(double p);

/// Checks that every element of `probs` is a valid probability. Returns
/// the first violation (index and value in the message).
Status ValidateProbabilities(const std::vector<double>& probs);

/// Checks that `probs` is a probability distribution: every element valid
/// and the total within `tolerance` of 1. An empty vector is rejected.
Status ValidateDistribution(const std::vector<double>& probs,
                            double tolerance = 1e-9);

/// Workload-driven estimates of the two exploration probabilities of
/// Section 4.2.
///
/// * SHOWTUPLES probability: `Pw(C) = 1 - NAttr(SA(C)) / N` — a user who
///   never filters on C's subcategorizing attribute browses tuples rather
///   than subcategories.
/// * Exploration probability: `P(C) = NOverlap(C) / NAttr(CA(C))` — among
///   users who filter on the categorizing attribute, the fraction whose
///   condition overlaps label(C).
///
/// Degenerate cases: with an empty workload Pw is 1 (everyone browses) and
/// P is 0; when NAttr(CA(C)) is 0 the conditional P(C) is undefined and
/// reported as 0.
class ProbabilityEstimator {
 public:
  /// Neither pointer is owned; both must outlive the estimator.
  ProbabilityEstimator(const WorkloadStats* stats, const Schema* schema)
      : stats_(stats), schema_(schema) {}

  /// Pw of a node partitioned on `subcategorizing_attribute`.
  double ShowTuplesProbability(
      std::string_view subcategorizing_attribute) const;

  /// P(C) for a category carrying `label`.
  double ExplorationProbability(const CategoryLabel& label) const;

  /// P(C) for a numeric bucket on `attribute` with bounds [lo, hi] (the
  /// closed end does not matter): ExplorationProbability of such a label,
  /// without building one.
  double IntervalExplorationProbability(std::string_view attribute,
                                        double lo, double hi) const;

  /// NOverlap(C): workload queries whose condition on the label's
  /// attribute overlaps the label.
  size_t NOverlap(const CategoryLabel& label) const;

  const WorkloadStats& stats() const { return *stats_; }
  const Schema& schema() const { return *schema_; }

 private:
  // overlap / nattr clamped to [0, 1]; 0 when nattr is 0.
  static double OverlapFraction(size_t overlap, size_t nattr);

  const WorkloadStats* stats_;
  const Schema* schema_;
};

}  // namespace autocat

#endif  // AUTOCAT_CORE_PROBABILITY_H_
