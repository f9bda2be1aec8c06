#ifndef AUTOCAT_SERVE_SERVICE_H_
#define AUTOCAT_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "core/categorizer.h"
#include "exec/executor.h"
#include "serve/adaptive.h"
#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/coalesce.h"
#include "serve/metrics.h"
#include "serve/signature.h"
#include "workload/counts.h"
#include "workload/workload.h"

namespace autocat {

/// One SQL categorization request.
struct ServeRequest {
  std::string sql;
  /// Relative latency budget in service-clock milliseconds; 0 falls back
  /// to ServiceOptions::default_deadline_ms (0 there = unbounded).
  int64_t deadline_ms = 0;
  /// Skips cache lookup AND insert: the request always runs the cold
  /// path (benchmarking / debugging).
  bool bypass_cache = false;
};

/// A successful answer: the canonical query's result set and category
/// tree. The payload is shared with the cache — holding the response
/// keeps it alive even across eviction or invalidation.
struct ServeResponse {
  std::shared_ptr<const CachedCategorization> payload;
  bool cache_hit = false;
  std::string signature;   ///< The canonical cache key.
  double latency_ms = 0;   ///< Wall-clock, measured by the service.
};

/// Service configuration.
struct ServiceOptions {
  /// Knobs for the cost-based categorizer run on cache misses. The
  /// default leaves `parallel.threads` at 1: the serving layer gets its
  /// parallelism across requests (thread pool + sharded cache), not
  /// inside one tree build.
  CategorizerOptions categorizer;
  /// Workload-preprocessing configuration (split intervals).
  WorkloadStatsOptions stats;
  /// Signature bucketing. When `bucket_widths` is empty it is seeded from
  /// `stats.split_intervals`, so signatures snap to the same grid the
  /// split points live on.
  SignatureOptions signature;
  CacheOptions cache;
  /// Admission control: max_concurrent executing, max_queue waiting,
  /// anything beyond rejected with kOverloaded.
  size_t max_concurrent = 4;
  size_t max_queue = 16;
  int64_t default_deadline_ms = 0;
  /// Adaptive serving loop: targets, bounds, and whether Adapt() acts.
  AdaptiveOptions adaptive;
  /// Service clock in milliseconds (monotonic); injectable for deadline
  /// and TTL tests. Null uses the steady clock. Also used by the cache
  /// and admission controller unless their own clocks are set.
  std::function<int64_t()> now_ms;
  /// Test hook: called with the canonical key right before a leader/solo
  /// cold execution starts, with no service locks held — a test can
  /// interleave PutTable here to exercise the epoch-versioned coalescing
  /// slot. Null in production.
  std::function<void(const std::string&)> on_cold_execute;
};

/// The paper's query-time categorization, packaged as a long-lived
/// service (DESIGN.md §9): it owns the Database, the query log, the
/// preprocessed per-table WorkloadStats, a signature-keyed result cache,
/// and an admission controller, and answers a stream of SQL requests.
/// A table is installed whole: its columnar shadow (built by Database)
/// and its WorkloadStats exist from the moment the table does, so no
/// request ever builds either.
///
/// Handle() is thread-safe and blocking; drive concurrency by submitting
/// Handle calls onto the shared ThreadPool (tools/loadgen does). Table
/// and workload mutations (PutTable / RebuildWorkload) serialize against
/// in-flight requests with a reader-writer lock and bump the cache epoch,
/// so a response never mixes old and new table contents.
class CategorizationService {
 public:
  CategorizationService(Database db, Workload workload,
                        ServiceOptions options);

  CategorizationService(const CategorizationService&) = delete;
  CategorizationService& operator=(const CategorizationService&) = delete;

  /// Serves one request: admission -> parse -> canonicalize -> cache
  /// lookup -> (on miss) execute + categorize + insert. Failures map to
  /// explicit codes: kOverloaded (queue full), kDeadlineExceeded (budget
  /// spent while queued or before a stage started), kParseError /
  /// kNotFound / kNotSupported for bad requests. The deadline is checked
  /// at stage boundaries; a request whose final stage completes is
  /// answered even if the budget ran out during it.
  Result<ServeResponse> Handle(const ServeRequest& request)
      AUTOCAT_EXCLUDES(state_mu_);

  /// Replaces or creates a table and invalidates every cached entry (the
  /// epoch bump). Blocks until in-flight requests finish. The table's
  /// WorkloadStats are rebuilt only when its schema changes: they read
  /// nothing else of the table.
  void PutTable(std::string_view name, Table table)
      AUTOCAT_EXCLUDES(state_mu_);

  /// Registers a new table (kAlreadyExists if the name is taken) and
  /// builds its WorkloadStats. New tables cannot affect cached entries, so
  /// the epoch is kept.
  Status RegisterTable(std::string_view name, Table table)
      AUTOCAT_EXCLUDES(state_mu_);

  /// Replaces the query log, rebuilds every table's WorkloadStats, and
  /// invalidates the cache (trees depend on workload counts).
  void RebuildWorkload(Workload workload) AUTOCAT_EXCLUDES(state_mu_);

  /// One adaptation round (DESIGN.md §12): drains the traffic observer's
  /// window, asks the controller for a plan, and applies it — snap widths
  /// under the write lock, TTL and capacity directly on the cache. A
  /// no-op (beyond draining the window) when `options().adaptive.enabled`
  /// is false. The caller picks the cadence; tools/loadgen calls it every
  /// `--adapt_every` completed requests.
  AdaptiveAction Adapt() AUTOCAT_EXCLUDES(state_mu_);

  /// Merged snapshot of request, cache, and admission counters.
  ServiceMetricsSnapshot SnapshotMetrics() const;
  /// SnapshotMetrics() rendered as deterministic JSON.
  std::string MetricsJson() const;

  /// The effective snap widths right now (base widths times the adaptive
  /// multipliers applied so far).
  SignatureOptions CurrentSignatureOptions() const
      AUTOCAT_EXCLUDES(state_mu_);

  const ServiceOptions& options() const { return options_; }

 private:
  int64_t NowMs() const;
  /// Builds the WorkloadStats of the table under `table_key` from the
  /// current workload and the table's schema, sequentially, and stores
  /// the result — a build error included, which every request to that
  /// table then returns.
  void BuildStatsLocked(const std::string& table_key)
      AUTOCAT_REQUIRES(state_mu_);
  /// The stored stats build of an installed table.
  const Result<std::shared_ptr<const WorkloadStats>>& StatsLocked(
      const std::string& table_key) const AUTOCAT_REQUIRES_SHARED(state_mu_);
  /// The post-admission pipeline; sets `outcome` for metrics.
  Result<ServeResponse> HandleAdmitted(const ServeRequest& request,
                                       const Deadline& deadline,
                                       ServeOutcome* outcome)
      AUTOCAT_EXCLUDES(state_mu_);

  /// One cold execution under a single fresh shared-lock section:
  /// canonicalize, compile the profile against the table's columnar
  /// shadow, run the cold pipeline, categorize, and insert. The cache was
  /// already probed by HandleAdmitted's probe pass (or is bypassed).
  struct ColdAttempt {
    ServeResponse response;
    /// For publishing to a coalescing flight: the payload, the cache
    /// epoch the attempt ran under, and the canonical key it used.
    std::shared_ptr<const CachedCategorization> payload;
    uint64_t epoch = 0;
    std::string key;
  };
  Result<ColdAttempt> AttemptServe(const SelectQuery& query,
                                   const std::string& table_key,
                                   const ServeRequest& request,
                                   const Deadline& deadline,
                                   ServeOutcome* outcome)
      AUTOCAT_EXCLUDES(state_mu_);

  ServiceOptions options_;
  // Guards db_, workload_, and stats_by_table_: requests hold it shared
  // for their whole read (the GetTable pointer-stability contract makes
  // the pointer safe, but contents mutate under PutTable's unique lock).
  // Lock order (tools/lock_order.txt): state_mu_ is the outermost lock —
  // cache shard, metrics, and admission locks may be taken while it is
  // held, never the reverse.
  mutable SharedMutex state_mu_;
  Database db_ AUTOCAT_GUARDED_BY(state_mu_);
  Workload workload_ AUTOCAT_GUARDED_BY(state_mu_);
  // Exactly one stats build per table in db_, keyed by lowercase name.
  std::map<std::string, Result<std::shared_ptr<const WorkloadStats>>>
      stats_by_table_ AUTOCAT_GUARDED_BY(state_mu_);
  // The signature options requests canonicalize with. `base_signature_`
  // is the seeded configuration, immutable after the constructor;
  // `signature_` is base widths times the adaptive multipliers, read
  // under the shared lock by every request and rewritten by Adapt().
  SignatureOptions base_signature_;
  SignatureOptions signature_ AUTOCAT_GUARDED_BY(state_mu_);
  // The adaptive controller's knob state machine; Adapt() serializes
  // planning against requests and other Adapt() calls via state_mu_.
  AdaptiveController adaptive_ AUTOCAT_GUARDED_BY(state_mu_);
  SignatureCache cache_;
  // In-flight cold-execution coalescing (self-locking; its internal
  // mutexes sit after state_mu_ in the lock order and are never held
  // across a blocking wait together with it).
  CoalescingRegistry coalescing_;
  AdmissionController admission_;
  ServiceMetrics metrics_;
  TrafficObserver traffic_;
  // atomic-order: relaxed — a monotone metrics counter; readers only need
  // an eventually-consistent count, no ordering with other state.
  std::atomic<uint64_t> adaptive_actions_{0};
};

}  // namespace autocat

#endif  // AUTOCAT_SERVE_SERVICE_H_
