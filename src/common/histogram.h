#ifndef AUTOCAT_COMMON_HISTOGRAM_H_
#define AUTOCAT_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <string>
#include <vector>

namespace autocat {

/// A fixed-boundary histogram for latency-style measurements.
///
/// The histogram is defined by a sorted list of bucket upper bounds; a
/// sample `v` lands in the first bucket whose bound satisfies `v <= bound`,
/// with an implicit final overflow bucket for everything above the last
/// bound. Boundaries are fixed at construction so two histograms built
/// from the same bounds can be merged and snapshotted deterministically
/// (the serving layer's metrics export depends on this).
///
/// The class itself is not thread-safe and deliberately carries no lock:
/// every shared Histogram must be a member declared with
/// AUTOCAT_GUARDED_BY next to the owning component's Mutex, so the
/// thread-safety analysis proves each access holds the lock at compile
/// time (ServiceMetrics in serve/metrics.h is the template; see
/// DESIGN.md §11). Stack-local histograms and snapshots need no lock.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  /// The default latency scale used by the serving layer: exponential
  /// bounds from 0.01 ms to ~42 s (doubling, 23 buckets) plus overflow.
  static Histogram LatencyMs();

  /// Records one sample.
  void Add(double v);

  /// Merges `other` into this histogram. The two must share identical
  /// bucket bounds.
  void Merge(const Histogram& other);

  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket counts; index upper_bounds().size() is the overflow bucket.
  const std::vector<size_t>& bucket_counts() const { return counts_; }

  /// Percentile estimate for `p` in [0, 100]: linear interpolation inside
  /// the containing bucket (the overflow bucket reports the observed max),
  /// clamped to [min(), max()]. Returns 0 when empty.
  double PercentileEstimate(double p) const;

  /// Deterministic JSON object:
  /// {"count":N,"mean":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..}.
  std::string ToJson() const;

 private:
  std::vector<double> upper_bounds_;
  std::vector<size_t> counts_;  // upper_bounds_.size() + 1 (overflow)
  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace autocat

#endif  // AUTOCAT_COMMON_HISTOGRAM_H_
