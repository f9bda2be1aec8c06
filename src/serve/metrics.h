#ifndef AUTOCAT_SERVE_METRICS_H_
#define AUTOCAT_SERVE_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "serve/cache.h"

namespace autocat {

/// How one request ended. kHit/kMiss both answered successfully (from the
/// cache / by running categorization); the rest are failures with their
/// own Status codes.
enum class ServeOutcome {
  kHit = 0,
  kMiss,
  kOverloaded,
  kDeadlineExceeded,
  kError,
};
inline constexpr size_t kNumServeOutcomes = 5;

std::string_view ServeOutcomeToString(ServeOutcome outcome);

/// Cold-path operator breakdown: where a cache miss spends its time,
/// named after the pipeline operators (DESIGN.md §14). Each operator is
/// recorded once per request that reaches it, except kStatsBuild, which
/// is recorded once per per-table WorkloadStats build: when a table is
/// installed, its schema changes, or the workload is rebuilt. The three
/// kCategorize* phases (see CategorizeTimings) are parts of kCategorize.
enum class ServeOperator {
  kParse = 0,
  kFilter,
  kGather,
  kAttrIndex,
  kStatsBuild,
  kCategorize,
  kCategorizeOrders,
  kCategorizeScore,
  kCategorizeAttach,
};
inline constexpr size_t kNumServeOperators = 9;

std::string_view ServeOperatorToString(ServeOperator op);

/// A point-in-time copy of every service counter, assembled by
/// CategorizationService::SnapshotMetrics(). ToJson() renders with fixed
/// key order and fixed-precision numbers, so two snapshots of identical
/// state are byte-identical (the serve lint rule keeps unordered
/// containers out of this layer for the same reason).
struct ServiceMetricsSnapshot {
  uint64_t requests_total = 0;
  uint64_t by_outcome[kNumServeOutcomes] = {0, 0, 0, 0, 0};
  Histogram latency_all = Histogram::LatencyMs();
  Histogram latency_hit = Histogram::LatencyMs();
  Histogram latency_miss = Histogram::LatencyMs();
  CacheStats cache;
  size_t queue_depth_high_water = 0;
  /// Indexed by ServeOperator.
  std::vector<Histogram> operator_ms =
      std::vector<Histogram>(kNumServeOperators, Histogram::LatencyMs());
  /// Pipelined cold executions and the morsels they scheduled, plus the
  /// zone-map accounting: morsels the prover ruled all-fail (no cell
  /// touched), morsels it ruled all-pass (dense survivors, no per-row
  /// evaluation), and the rows some leaf was evaluated on.
  uint64_t pipeline_requests = 0;
  uint64_t pipeline_morsels = 0;
  uint64_t morsels_pruned = 0;
  uint64_t morsels_all_pass = 0;
  uint64_t rows_examined = 0;
  /// In-flight request coalescing: executions that led a flight, requests
  /// answered from another request's in-flight execution, and the
  /// point-in-time count of followers currently waiting (a gauge read
  /// from the registry at snapshot time).
  uint64_t coalesced_leaders = 0;
  uint64_t coalesced_hits = 0;
  uint64_t coalescing_waiting = 0;
  /// Adaptive-loop counters (see serve/adaptive.h): requests the traffic
  /// observer has seen, and adaptation rounds that changed a knob.
  uint64_t adaptive_observed_requests = 0;
  uint64_t adaptive_actions = 0;

  std::string ToJson() const;
};

/// Thread-safe accumulator for request outcomes and latencies. Cache and
/// admission counters live in their own components; the service merges
/// all three into one snapshot.
class ServiceMetrics {
 public:
  ServiceMetrics() = default;

  void Record(ServeOutcome outcome, double latency_ms)
      AUTOCAT_EXCLUDES(mu_);

  /// Adds one cold-path operator duration (see ServeOperator).
  void RecordOperator(ServeOperator op, double ms) AUTOCAT_EXCLUDES(mu_);

  /// Counts one pipelined cold execution, the morsels it covered, and the
  /// zone-map split: `pruned` all-fail morsels, `all_pass` dense morsels,
  /// and `rows_examined` rows some leaf was evaluated on.
  void RecordPipeline(size_t morsels, size_t pruned, size_t all_pass,
                      size_t rows_examined)
      AUTOCAT_EXCLUDES(mu_);

  /// Counts one execution that led a coalescing flight.
  void RecordCoalescedLeader() AUTOCAT_EXCLUDES(mu_);

  /// Counts one request answered from another request's in-flight
  /// execution.
  void RecordCoalescedHit() AUTOCAT_EXCLUDES(mu_);

  /// Copies the request-side counters into `snapshot` (cache, queue, and
  /// the coalescing waiting gauge are the caller's to fill).
  void FillSnapshot(ServiceMetricsSnapshot* snapshot) const
      AUTOCAT_EXCLUDES(mu_);

 private:
  // Histogram itself is lock-free data + no internal synchronization
  // (common/histogram.h); every histogram here is a guarded member, so
  // all mutation funnels through mu_.
  mutable Mutex mu_;
  uint64_t by_outcome_[kNumServeOutcomes] AUTOCAT_GUARDED_BY(mu_) = {
      0, 0, 0, 0, 0};
  Histogram latency_all_ AUTOCAT_GUARDED_BY(mu_) = Histogram::LatencyMs();
  Histogram latency_hit_ AUTOCAT_GUARDED_BY(mu_) = Histogram::LatencyMs();
  Histogram latency_miss_ AUTOCAT_GUARDED_BY(mu_) =
      Histogram::LatencyMs();
  std::vector<Histogram> operator_ms_ AUTOCAT_GUARDED_BY(mu_) =
      std::vector<Histogram>(kNumServeOperators, Histogram::LatencyMs());
  uint64_t pipeline_requests_ AUTOCAT_GUARDED_BY(mu_) = 0;
  uint64_t pipeline_morsels_ AUTOCAT_GUARDED_BY(mu_) = 0;
  uint64_t morsels_pruned_ AUTOCAT_GUARDED_BY(mu_) = 0;
  uint64_t morsels_all_pass_ AUTOCAT_GUARDED_BY(mu_) = 0;
  uint64_t rows_examined_ AUTOCAT_GUARDED_BY(mu_) = 0;
  uint64_t coalesced_leaders_ AUTOCAT_GUARDED_BY(mu_) = 0;
  uint64_t coalesced_hits_ AUTOCAT_GUARDED_BY(mu_) = 0;
};

}  // namespace autocat

#endif  // AUTOCAT_SERVE_METRICS_H_
