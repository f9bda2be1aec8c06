#include "core/probability.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/check.h"

namespace autocat {

bool IsValidProbability(double p) {
  return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

Status ValidateProbabilities(const std::vector<double>& probs) {
  for (size_t i = 0; i < probs.size(); ++i) {
    if (!IsValidProbability(probs[i])) {
      return Status::Internal("probability " + std::to_string(i) + " is " +
                              std::to_string(probs[i]) +
                              ", outside [0, 1]");
    }
  }
  return Status::OK();
}

Status ValidateDistribution(const std::vector<double>& probs,
                            double tolerance) {
  if (probs.empty()) {
    return Status::Internal("empty probability distribution");
  }
  AUTOCAT_RETURN_IF_ERROR(ValidateProbabilities(probs));
  double sum = 0;
  for (double p : probs) {
    sum += p;
  }
  if (std::abs(sum - 1.0) > tolerance) {
    return Status::Internal("distribution sums to " + std::to_string(sum) +
                            ", not 1");
  }
  return Status::OK();
}

double ProbabilityEstimator::ShowTuplesProbability(
    std::string_view subcategorizing_attribute) const {
  if (stats_->num_queries() == 0) {
    return 1.0;
  }
  const double frac = stats_->AttrUsageFraction(subcategorizing_attribute);
  const double pw = std::clamp(1.0 - frac, 0.0, 1.0);
  // Pw and its complement (the SHOWCAT branch) form a two-way
  // distribution over the user's next move.
  AUTOCAT_DCHECK(ValidateDistribution({pw, 1.0 - pw}).ok());
  return pw;
}

size_t ProbabilityEstimator::NOverlap(const CategoryLabel& label) const {
  if (label.is_categorical()) {
    return stats_->CountConditionsOverlappingSet(
        label.attribute(),
        std::set<Value>(label.values().begin(), label.values().end()));
  }
  return stats_->CountConditionsOverlappingInterval(label.attribute(),
                                                    label.lo(), label.hi());
}

double ProbabilityEstimator::OverlapFraction(size_t overlap, size_t nattr) {
  const double p = std::clamp(
      static_cast<double>(overlap) / static_cast<double>(nattr), 0.0, 1.0);
  AUTOCAT_DCHECK(IsValidProbability(p));
  return p;
}

double ProbabilityEstimator::ExplorationProbability(
    const CategoryLabel& label) const {
  const size_t nattr = stats_->AttrUsageCount(label.attribute());
  if (nattr == 0) {
    return 0.0;
  }
  return OverlapFraction(NOverlap(label), nattr);
}

double ProbabilityEstimator::IntervalExplorationProbability(
    std::string_view attribute, double lo, double hi) const {
  const size_t nattr = stats_->AttrUsageCount(attribute);
  if (nattr == 0) {
    return 0.0;
  }
  return OverlapFraction(
      stats_->CountConditionsOverlappingInterval(attribute, lo, hi), nattr);
}

}  // namespace autocat
