#include "serve/metrics.h"

#include "common/mutex.h"

namespace autocat {

std::string_view ServeOutcomeToString(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kHit:
      return "hit";
    case ServeOutcome::kMiss:
      return "miss";
    case ServeOutcome::kOverloaded:
      return "overloaded";
    case ServeOutcome::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeOutcome::kError:
      return "error";
  }
  return "unknown";
}

std::string_view ServeOperatorToString(ServeOperator op) {
  switch (op) {
    case ServeOperator::kParse:
      return "parse";
    case ServeOperator::kFilter:
      return "filter";
    case ServeOperator::kGather:
      return "gather";
    case ServeOperator::kAttrIndex:
      return "attr_index";
    case ServeOperator::kStatsBuild:
      return "stats_build";
    case ServeOperator::kCategorize:
      return "categorize";
    case ServeOperator::kCategorizeOrders:
      return "categorize_orders";
    case ServeOperator::kCategorizeScore:
      return "categorize_score";
    case ServeOperator::kCategorizeAttach:
      return "categorize_attach";
  }
  return "unknown";
}

void ServiceMetrics::Record(ServeOutcome outcome, double latency_ms) {
  MutexLock lock(mu_);
  ++by_outcome_[static_cast<size_t>(outcome)];
  latency_all_.Add(latency_ms);
  if (outcome == ServeOutcome::kHit) {
    latency_hit_.Add(latency_ms);
  } else if (outcome == ServeOutcome::kMiss) {
    latency_miss_.Add(latency_ms);
  }
}

void ServiceMetrics::RecordOperator(ServeOperator op, double ms) {
  MutexLock lock(mu_);
  operator_ms_[static_cast<size_t>(op)].Add(ms);
}

void ServiceMetrics::RecordPipeline(size_t morsels, size_t pruned,
                                    size_t all_pass, size_t rows_examined) {
  MutexLock lock(mu_);
  ++pipeline_requests_;
  pipeline_morsels_ += morsels;
  morsels_pruned_ += pruned;
  morsels_all_pass_ += all_pass;
  rows_examined_ += rows_examined;
}

void ServiceMetrics::RecordCoalescedLeader() {
  MutexLock lock(mu_);
  ++coalesced_leaders_;
}

void ServiceMetrics::RecordCoalescedHit() {
  MutexLock lock(mu_);
  ++coalesced_hits_;
}

void ServiceMetrics::FillSnapshot(ServiceMetricsSnapshot* snapshot) const {
  MutexLock lock(mu_);
  snapshot->requests_total = 0;
  for (size_t i = 0; i < kNumServeOutcomes; ++i) {
    snapshot->by_outcome[i] = by_outcome_[i];
    snapshot->requests_total += by_outcome_[i];
  }
  snapshot->latency_all = latency_all_;
  snapshot->latency_hit = latency_hit_;
  snapshot->latency_miss = latency_miss_;
  snapshot->operator_ms = operator_ms_;
  snapshot->pipeline_requests = pipeline_requests_;
  snapshot->pipeline_morsels = pipeline_morsels_;
  snapshot->morsels_pruned = morsels_pruned_;
  snapshot->morsels_all_pass = morsels_all_pass_;
  snapshot->rows_examined = rows_examined_;
  snapshot->coalesced_leaders = coalesced_leaders_;
  snapshot->coalesced_hits = coalesced_hits_;
}

std::string ServiceMetricsSnapshot::ToJson() const {
  std::string out = "{\"requests\":{\"total\":" +
                    std::to_string(requests_total);
  for (size_t i = 0; i < kNumServeOutcomes; ++i) {
    out += ",\"";
    out += ServeOutcomeToString(static_cast<ServeOutcome>(i));
    out += "\":" + std::to_string(by_outcome[i]);
  }
  out += "},\"cache\":{";
  out += "\"hits\":" + std::to_string(cache.hits);
  out += ",\"misses\":" + std::to_string(cache.misses);
  out += ",\"evictions\":" + std::to_string(cache.evictions);
  out += ",\"expirations\":" + std::to_string(cache.expirations);
  out += ",\"invalidations\":" + std::to_string(cache.invalidations);
  out += ",\"oversized\":" + std::to_string(cache.oversized);
  out += ",\"entries\":" + std::to_string(cache.entries);
  out += ",\"bytes\":" + std::to_string(cache.bytes);
  out += ",\"capacity_bytes\":" + std::to_string(cache.capacity_bytes);
  out += ",\"epoch\":" + std::to_string(cache.epoch);
  out += "},\"latency_ms\":{";
  out += "\"all\":" + latency_all.ToJson();
  out += ",\"hit\":" + latency_hit.ToJson();
  out += ",\"miss\":" + latency_miss.ToJson();
  out += "},\"operators\":{";
  for (size_t i = 0; i < kNumServeOperators && i < operator_ms.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"";
    out += ServeOperatorToString(static_cast<ServeOperator>(i));
    out += "\":" + operator_ms[i].ToJson();
  }
  out += "},\"pipeline\":{\"requests\":" + std::to_string(pipeline_requests);
  out += ",\"morsels\":" + std::to_string(pipeline_morsels);
  out += ",\"morsels_pruned\":" + std::to_string(morsels_pruned);
  out += ",\"morsels_all_pass\":" + std::to_string(morsels_all_pass);
  out += ",\"rows_examined\":" + std::to_string(rows_examined);
  out += "},\"coalescing\":{\"leaders\":" +
         std::to_string(coalesced_leaders);
  out += ",\"hits\":" + std::to_string(coalesced_hits);
  out += ",\"waiting\":" + std::to_string(coalescing_waiting);
  out += "},\"queue\":{\"depth_high_water\":" +
         std::to_string(queue_depth_high_water);
  out += "},\"adaptive\":{\"observed_requests\":" +
         std::to_string(adaptive_observed_requests);
  out += ",\"actions\":" + std::to_string(adaptive_actions);
  out += "}}";
  return out;
}

}  // namespace autocat
