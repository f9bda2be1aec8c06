#include "serve/service.h"

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "exec/kernels.h"
#include "exec/pipeline/cold_path.h"
#include "sql/parser.h"
#include "storage/columnar.h"

namespace autocat {

namespace {

// Releases the admission slot on every exit path.
class AdmissionSlot {
 public:
  explicit AdmissionSlot(AdmissionController* admission)
      : admission_(admission) {}
  ~AdmissionSlot() { admission_->Release(); }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

 private:
  AdmissionController* admission_;
};

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CacheOptions WithServiceClock(CacheOptions cache,
                              const std::function<int64_t()>& now_ms) {
  if (!cache.now_ms && now_ms) {
    cache.now_ms = now_ms;
  }
  return cache;
}

SignatureOptions WithDefaultBuckets(SignatureOptions signature,
                                    const WorkloadStatsOptions& stats) {
  if (signature.bucket_widths.empty()) {
    signature.bucket_widths = stats.split_intervals;
  }
  return signature;
}

}  // namespace

CategorizationService::CategorizationService(Database db, Workload workload,
                                             ServiceOptions options)
    : options_(std::move(options)),
      db_(std::move(db)),
      workload_(std::move(workload)),
      adaptive_(options_.adaptive, options_.cache.ttl_ms,
                options_.cache.capacity_bytes),
      cache_(WithServiceClock(options_.cache, options_.now_ms)),
      admission_(options_.max_concurrent, options_.max_queue,
                 options_.now_ms),
      traffic_(options_.adaptive.max_tracked_endpoints) {
  options_.signature =
      WithDefaultBuckets(std::move(options_.signature), options_.stats);
  base_signature_ = options_.signature;
  {
    WriterLock lock(state_mu_);
    signature_ = base_signature_;
    for (const std::string& key : db_.TableNames()) {
      BuildStatsLocked(key);
    }
  }
  // The serving layer takes its parallelism across requests; an
  // unconfigured categorizer (threads = 0 elsewhere means "hardware")
  // builds each tree sequentially so concurrent requests don't oversubscribe.
  if (options_.categorizer.parallel.threads == 0) {
    options_.categorizer.parallel.threads = 1;
  }
}

int64_t CategorizationService::NowMs() const {
  if (options_.now_ms) {
    return options_.now_ms();
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<ServeResponse> CategorizationService::Handle(
    const ServeRequest& request) {
  const double wall_start = WallMs();
  const int64_t now = NowMs();
  Deadline deadline = Deadline::Never();
  if (request.deadline_ms > 0) {
    deadline = Deadline::At(now + request.deadline_ms);
  } else if (options_.default_deadline_ms > 0) {
    deadline = Deadline::At(now + options_.default_deadline_ms);
  }

  const Status admitted = admission_.Admit(deadline);
  if (!admitted.ok()) {
    const ServeOutcome outcome =
        admitted.code() == StatusCode::kOverloaded
            ? ServeOutcome::kOverloaded
            : ServeOutcome::kDeadlineExceeded;
    metrics_.Record(outcome, WallMs() - wall_start);
    return admitted;
  }
  AdmissionSlot slot(&admission_);

  ServeOutcome outcome = ServeOutcome::kError;
  auto response = HandleAdmitted(request, deadline, &outcome);
  const double latency = WallMs() - wall_start;
  metrics_.Record(outcome, latency);
  if (response.ok()) {
    response.value().latency_ms = latency;
  }
  return response;
}

Result<ServeResponse> CategorizationService::HandleAdmitted(
    const ServeRequest& request, const Deadline& deadline,
    ServeOutcome* outcome) {
  *outcome = ServeOutcome::kError;
  const double parse_start = WallMs();
  AUTOCAT_ASSIGN_OR_RETURN(const SelectQuery query,
                           ParseQuery(request.sql));
  metrics_.RecordOperator(ServeOperator::kParse, WallMs() - parse_start);
  const std::string table_key = ToLower(query.table_name);

  // At most two passes: follow a coalescing flight, then run solo when
  // that flight fails or races a PutTable. Everything that reads table
  // contents stays inside one shared-lock section, paired with the cache
  // epoch observed in that same section, so a concurrent PutTable can
  // never leak mixed-state entries into the cache or across a coalesced
  // flight.
  CoalesceTicket ticket;
  std::string probe_key;
  if (!request.bypass_cache) {
    SelectionProfile probe_profile;
    {
      // Probe pass, the request's only cache probe: resolve the canonical
      // signature and the cache under the shared lock, then take or join
      // the coalescing slot for the cold execution. The slot is keyed on
      // the epoch observed in this same section (serve/coalesce.h
      // explains why). A table whose stats failed to build answers with
      // that error before the probe, so it counts no cache miss.
      ReaderLock lock(state_mu_);
      AUTOCAT_ASSIGN_OR_RETURN(const Table* table,
                               db_.GetTable(table_key));
      AUTOCAT_RETURN_IF_ERROR(StatsLocked(table_key).status());
      AUTOCAT_ASSIGN_OR_RETURN(
          CanonicalQuery canonical,
          CanonicalizeQuery(query, table->schema(), signature_));
      if (auto payload = cache_.Get(canonical.key, canonical.hash)) {
        *outcome = ServeOutcome::kHit;
        traffic_.Record(true, canonical.profile);
        ServeResponse response;
        response.payload = std::move(payload);
        response.cache_hit = true;
        response.signature = std::move(canonical.key);
        return response;
      }
      if (deadline.ExpiredAt(NowMs())) {
        *outcome = ServeOutcome::kDeadlineExceeded;
        return Status::DeadlineExceeded(
            "deadline passed before query execution");
      }
      ticket = coalescing_.JoinOrLead(canonical.key, cache_.epoch());
      probe_key = std::move(canonical.key);
      probe_profile = canonical.profile;
    }

    if (ticket.kind == CoalesceTicket::Kind::kFollower) {
      const int64_t timeout_ms =
          deadline.is_unbounded() ? -1 : deadline.RemainingMs(NowMs());
      const AwaitOutcome awaited =
          coalescing_.Await(*ticket.flight, timeout_ms);
      if (awaited.completed && awaited.status.ok() && awaited.payload &&
          awaited.computed_epoch == ticket.flight->epoch) {
        metrics_.RecordCoalescedHit();
        // No execution happened on our behalf; the adaptive controller
        // should see this as hit-shaped traffic.
        traffic_.Record(true, probe_profile);
        *outcome = ServeOutcome::kMiss;
        ServeResponse response;
        response.payload = awaited.payload;
        response.cache_hit = false;
        response.signature = std::move(probe_key);
        return response;
      }
      if (!awaited.completed && deadline.ExpiredAt(NowMs())) {
        *outcome = ServeOutcome::kDeadlineExceeded;
        return Status::DeadlineExceeded(
            "deadline passed waiting on a coalesced execution");
      }
      // The leader failed, raced a PutTable (computed epoch moved), or
      // outlived our budget; run the cold path ourselves, uncoalesced.
      ticket = CoalesceTicket();
    }
  }

  // Leader or solo: run the cold path. The guard publishes a failure
  // from its destructor on every non-publishing exit, so followers never
  // block on a leader that errored out.
  std::optional<PublishGuard> guard;
  if (ticket.kind == CoalesceTicket::Kind::kLeader) {
    metrics_.RecordCoalescedLeader();
    guard.emplace(&coalescing_, probe_key, ticket.flight);
  }
  if (options_.on_cold_execute) {
    options_.on_cold_execute(probe_key);
  }
  AUTOCAT_ASSIGN_OR_RETURN(
      ColdAttempt served,
      AttemptServe(query, table_key, request, deadline, outcome));
  // A signature drift between the probe and the attempt (Adapt resnapped
  // the widths) means the flight's key no longer describes what ran; let
  // the guard publish the failure so followers retry solo.
  if (guard && served.key == probe_key) {
    guard->Publish(Status::OK(), served.payload, served.epoch);
  }
  return std::move(served.response);
}

Result<CategorizationService::ColdAttempt>
CategorizationService::AttemptServe(const SelectQuery& query,
                                    const std::string& table_key,
                                    const ServeRequest& request,
                                    const Deadline& deadline,
                                    ServeOutcome* outcome) {
  ColdAttempt served;
  ReaderLock lock(state_mu_);
  AUTOCAT_ASSIGN_OR_RETURN(const Table* table, db_.GetTable(table_key));
  AUTOCAT_ASSIGN_OR_RETURN(
      CanonicalQuery canonical,
      CanonicalizeQuery(query, table->schema(), signature_));

  if (deadline.ExpiredAt(NowMs())) {
    *outcome = ServeOutcome::kDeadlineExceeded;
    return Status::DeadlineExceeded(
        "deadline passed before query execution");
  }

  AUTOCAT_ASSIGN_OR_RETURN(const std::shared_ptr<const WorkloadStats> stats,
                           StatsLocked(table_key));
  const uint64_t observed_epoch = cache_.epoch();
  const CostBasedCategorizer categorizer(stats.get(),
                                         options_.categorizer);

  // One cold path (DESIGN.md §14). The canonical profile compiles against
  // the table's columnar shadow, and the cold pipeline filters, wraps the
  // selection and projection over the shadow as the result (no cell is
  // copied), counts its bytes, and builds the attribute index over the
  // selection. ColumnarFor's refusal of a table too large for a 32-bit
  // selection is a real error.
  AUTOCAT_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarTable> shadow,
                           db_.ColumnarFor(table_key));
  AUTOCAT_ASSIGN_OR_RETURN(
      const CompiledPredicate compiled,
      CompiledPredicate::CompileProfile(canonical.profile, table->schema(),
                                        shadow));
  ColdPipelineOptions pipe_options;
  // Request tasks stay sequential (same policy as the stats build); the
  // pipeline's output is identical at any thread count.
  pipe_options.parallel.threads = 1;
  // Only the categorizer's retained candidates get index entries:
  // candidate elimination is per-attribute, so the base schema's
  // retained set intersected with the projection (which the index does
  // by name) equals the result schema's retained set.
  const std::vector<std::string> retained =
      categorizer.RetainedAttributes(table->schema());
  pipe_options.stats_attributes = &retained;
  AUTOCAT_ASSIGN_OR_RETURN(
      ColdPipelineResult scan,
      RunColdPipeline(compiled, *table, shadow.get(), canonical.columns,
                      pipe_options));
  metrics_.RecordOperator(ServeOperator::kFilter, scan.timings.filter_ms);
  metrics_.RecordOperator(ServeOperator::kGather, scan.timings.project_ms);
  metrics_.RecordOperator(ServeOperator::kAttrIndex, scan.timings.stats_ms);
  metrics_.RecordPipeline(scan.timings.morsels, scan.timings.morsels_pruned,
                          scan.timings.morsels_all_pass,
                          scan.timings.rows_examined);
  // The view shares the table version's shadow (not the result), so it
  // stays valid across the move into the payload.
  AUTOCAT_ASSIGN_OR_RETURN(
      const TableView view,
      TableView::Create(*table, std::move(shadow), std::move(scan.selection),
                        canonical.columns));

  if (deadline.ExpiredAt(NowMs())) {
    *outcome = ServeOutcome::kDeadlineExceeded;
    return Status::DeadlineExceeded(
        "deadline passed before categorization");
  }

  const double categorize_start = WallMs();
  CategorizeTimings phases;
  const auto build_tree = [&](const Table& owned) -> Result<CategoryTree> {
    return categorizer.Categorize(view, owned, &canonical.profile,
                                  &scan.attr_index, &phases);
  };
  AUTOCAT_ASSIGN_OR_RETURN(
      auto payload,
      CachedCategorization::Build(std::move(scan.result), build_tree));
  metrics_.RecordOperator(ServeOperator::kCategorize,
                          WallMs() - categorize_start);
  metrics_.RecordOperator(ServeOperator::kCategorizeOrders,
                          phases.orders_ms);
  metrics_.RecordOperator(ServeOperator::kCategorizeScore, phases.score_ms);
  metrics_.RecordOperator(ServeOperator::kCategorizeAttach,
                          phases.attach_ms);
  if (!request.bypass_cache) {
    cache_.Insert(canonical.key, canonical.hash, payload, observed_epoch);
    traffic_.Record(false, canonical.profile);
  }
  *outcome = ServeOutcome::kMiss;
  served.response.payload = payload;
  served.response.cache_hit = false;
  served.response.signature = canonical.key;
  served.payload = std::move(payload);
  served.epoch = observed_epoch;
  served.key = std::move(canonical.key);
  return served;
}

void CategorizationService::BuildStatsLocked(const std::string& table_key)
    AUTOCAT_REQUIRES(state_mu_) {
  const Table* table = db_.GetTable(table_key).value();
  // Sequential build: serving-path determinism and no pool interaction;
  // this runs once per table install, schema change, or workload rebuild.
  ParallelOptions sequential;
  sequential.threads = 1;
  const double stats_start = WallMs();
  Result<WorkloadStats> built = WorkloadStats::Build(
      workload_, table->schema(), options_.stats, sequential);
  metrics_.RecordOperator(ServeOperator::kStatsBuild,
                          WallMs() - stats_start);
  if (built.ok()) {
    stats_by_table_.insert_or_assign(
        table_key,
        std::make_shared<const WorkloadStats>(std::move(built).value()));
  } else {
    stats_by_table_.insert_or_assign(table_key, built.status());
  }
}

const Result<std::shared_ptr<const WorkloadStats>>&
CategorizationService::StatsLocked(const std::string& table_key) const
    AUTOCAT_REQUIRES_SHARED(state_mu_) {
  return stats_by_table_.at(table_key);
}

void CategorizationService::PutTable(std::string_view name, Table table) {
  const std::string key = ToLower(name);
  {
    WriterLock lock(state_mu_);
    const Result<const Table*> old = db_.GetTable(key);
    const bool same_schema =
        old.ok() && old.value()->schema() == table.schema();
    db_.PutTable(key, std::move(table));
    // WorkloadStats::Build reads only the workload and the schema, so the
    // stats of an unchanged schema are exactly the ones already stored.
    if (!same_schema) {
      BuildStatsLocked(key);
    }
  }
  cache_.BumpEpoch();
}

Status CategorizationService::RegisterTable(std::string_view name,
                                            Table table) {
  WriterLock lock(state_mu_);
  // A brand-new table cannot be referenced by any cached entry, so the
  // epoch is deliberately kept.
  AUTOCAT_RETURN_IF_ERROR(db_.RegisterTable(name, std::move(table)));
  BuildStatsLocked(ToLower(name));
  return Status::OK();
}

void CategorizationService::RebuildWorkload(Workload workload) {
  {
    WriterLock lock(state_mu_);
    workload_ = std::move(workload);
    for (const std::string& key : db_.TableNames()) {
      BuildStatsLocked(key);
    }
  }
  cache_.BumpEpoch();
}

AdaptiveAction CategorizationService::Adapt() {
  const TrafficWindowSnapshot window = traffic_.SnapshotAndReset();
  const CacheStats cache_stats = cache_.Stats();
  AdaptiveAction action;
  if (!options_.adaptive.enabled) {
    return action;
  }
  {
    WriterLock lock(state_mu_);
    action = adaptive_.Plan(window, cache_stats);
    if (action.widths_changed) {
      // Rebuild from the base so multipliers stay absolute (no
      // compounding drift from repeated in-place scaling).
      signature_ = base_signature_;
      for (auto& [attribute, width] : signature_.bucket_widths) {
        const auto it = action.width_multipliers.find(attribute);
        if (it != action.width_multipliers.end()) {
          width *= it->second;
        }
      }
    }
  }
  // Wider signatures make the old, narrower keys unreachable — they are
  // still correct for their keys, so no epoch bump; LRU ages them out.
  if (action.ttl_changed) {
    cache_.SetTtlMs(action.ttl_ms);
  }
  if (action.capacity_changed) {
    cache_.SetCapacityBytes(action.capacity_bytes);
  }
  if (action.any_change()) {
    adaptive_actions_.fetch_add(1, std::memory_order_relaxed);
  }
  return action;
}

SignatureOptions CategorizationService::CurrentSignatureOptions() const {
  ReaderLock lock(state_mu_);
  return signature_;
}

ServiceMetricsSnapshot CategorizationService::SnapshotMetrics() const {
  ServiceMetricsSnapshot snapshot;
  metrics_.FillSnapshot(&snapshot);
  snapshot.cache = cache_.Stats();
  snapshot.coalescing_waiting = coalescing_.waiting();
  snapshot.queue_depth_high_water = admission_.queue_high_water();
  snapshot.adaptive_observed_requests = traffic_.total_requests();
  snapshot.adaptive_actions =
      adaptive_actions_.load(std::memory_order_relaxed);
  return snapshot;
}

std::string CategorizationService::MetricsJson() const {
  return SnapshotMetrics().ToJson();
}

}  // namespace autocat
