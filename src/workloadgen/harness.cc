#include "workloadgen/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <set>
#include <utility>

#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "simgen/homes_generator.h"
#include "simgen/study.h"
#include "workloadgen/traffic.h"

namespace autocat {

namespace {

// Independent derived streams: environment, session pool, train split.
constexpr uint64_t kHomesStream = 0x686f6d6573;    // "homes"
constexpr uint64_t kSessionStream = 0x73657373;    // "sess"
constexpr uint64_t kTrainStream = 0x747261696e;    // "train"

SessionConfig SessionConfigFor(const ScenarioSpec& spec) {
  SessionConfig config;
  config.num_sessions = spec.num_sessions;
  config.seed = SplitMixSeed(spec.seed, kSessionStream);
  return config;
}

std::vector<std::string> AllPoolQueries(TrafficStream& stream,
                                        const DriftSpec& drift) {
  std::vector<std::string> sqls;
  for (const UserSession& session : stream.PoolSessions(drift)) {
    for (const SessionQuery& query : session.queries) {
      sqls.push_back(query.sql);
    }
  }
  return sqls;
}

std::string FormatFixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace

std::string PhaseReport::ToJson() const {
  std::string out = "{\"name\":\"" + name + "\"";
  out += ",\"requests\":" + std::to_string(requests);
  out += ",\"hits\":" + std::to_string(hits);
  out += ",\"misses\":" + std::to_string(misses);
  out += ",\"overloaded\":" + std::to_string(overloaded);
  out += ",\"deadline_exceeded\":" + std::to_string(deadline_exceeded);
  out += ",\"errors\":" + std::to_string(errors);
  out += ",\"hit_rate\":" + FormatFixed(hit_rate, 4);
  out += ",\"distinct_signatures\":" + std::to_string(distinct_signatures);
  out += ",\"latency_ms\":{\"p50\":" + FormatFixed(latency_p50_ms, 3);
  out += ",\"p90\":" + FormatFixed(latency_p90_ms, 3);
  out += ",\"p99\":" + FormatFixed(latency_p99_ms, 3);
  out += "}}";
  return out;
}

std::string ScenarioReport::ToJson() const {
  std::string out = "{\"scenario\":\"" + scenario + "\"";
  out += ",\"adaptive\":";
  out += adaptive ? "true" : "false";
  out += ",\"adaptive_actions\":" + std::to_string(adaptive_actions);
  out += ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += phases[i].ToJson();
  }
  out += "]";
  out += ",\"service_metrics\":" + service_metrics_json;
  out += "}";
  return out;
}

Result<double> ScenarioReport::PhaseHitRate(
    std::string_view phase_name) const {
  for (const PhaseReport& phase : phases) {
    if (phase.name == phase_name) {
      return phase.hit_rate;
    }
  }
  return Status::NotFound("no phase named '" + std::string(phase_name) +
                          "' in scenario '" + scenario + "'");
}

std::vector<std::string> ScenarioHarness::TrainQueries(
    const ScenarioSpec& spec) {
  const Geography geo = Geography::UnitedStates();
  TrafficStream stream(&geo, SessionConfigFor(spec), spec.seed);
  const DriftSpec train_drift =
      spec.phases.empty() ? DriftSpec{} : spec.phases.front().drift;
  std::vector<std::string> sqls = AllPoolQueries(stream, train_drift);
  // The runExperiment.py split: shuffle the full pool with a seeded RNG
  // and keep the first train_fraction as the historical log; the served
  // traffic draws from the same pool independently.
  Random rng(SplitMixSeed(spec.seed, kTrainStream));
  rng.Shuffle(sqls);
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(std::llround(
             spec.train_fraction * static_cast<double>(sqls.size()))));
  sqls.resize(std::min(keep, sqls.size()));
  return sqls;
}

Result<ScenarioReport> ScenarioHarness::Run(const ScenarioSpec& spec,
                                            const HarnessOptions& options) {
  if (spec.phases.empty()) {
    return Status::InvalidArgument("scenario '" + spec.name +
                                   "' has no phases");
  }
  const Geography geo = Geography::UnitedStates();

  HomesGeneratorConfig homes_config;
  homes_config.num_rows = spec.num_homes;
  homes_config.seed = SplitMixSeed(spec.seed, kHomesStream);
  const HomesGenerator homes_generator(&geo, homes_config);
  AUTOCAT_ASSIGN_OR_RETURN(Table homes, homes_generator.Generate());
  const Schema schema = homes.schema();

  WorkloadParseReport parse_report;
  Workload train = Workload::Parse(TrainQueries(spec), schema,
                                   &parse_report);
  if (train.empty()) {
    return Status::Internal("scenario '" + spec.name +
                            "': training workload parsed to empty (" +
                            std::to_string(parse_report.parse_errors) +
                            " parse errors)");
  }

  Database db;
  AUTOCAT_RETURN_IF_ERROR(db.RegisterTable("ListProperty",
                                           std::move(homes)));

  const StudyConfig study = DefaultStudyConfig();
  ServiceOptions service_options;
  service_options.categorizer = study.categorizer;
  service_options.stats = study.stats;
  service_options.cache.capacity_bytes = spec.cache_mb << 20;
  service_options.cache.ttl_ms = spec.ttl_ms;
  service_options.max_concurrent = std::max<size_t>(options.threads, 1);
  service_options.max_queue = options.max_queue;
  service_options.default_deadline_ms = options.deadline_ms;
  service_options.adaptive = options.adaptive_options;
  service_options.adaptive.enabled = options.adaptive;
  CategorizationService service(std::move(db), std::move(train),
                                std::move(service_options));

  TrafficStream stream(&geo, SessionConfigFor(spec), spec.seed);
  for (const PhaseSpec& phase : spec.phases) {
    AUTOCAT_RETURN_IF_ERROR(stream.AddPhase(phase));
  }
  const std::vector<TrafficEvent>& events = stream.events();

  // Per-event result slots, each written by exactly one task (pre-sized,
  // so concurrent writers never touch the same element or reallocate).
  std::vector<ServeOutcome> outcomes(events.size(), ServeOutcome::kError);
  std::vector<double> latencies(events.size(), 0.0);
  std::vector<std::string> signatures(events.size());

  const auto run_event = [&](size_t i) {
    ServeRequest request;
    request.sql = stream.Sql(events[i]);
    Result<ServeResponse> response = service.Handle(request);
    if (response.ok()) {
      outcomes[i] = response.value().cache_hit ? ServeOutcome::kHit
                                               : ServeOutcome::kMiss;
      latencies[i] = response.value().latency_ms;
      signatures[i] = std::move(response.value().signature);
    } else if (response.status().code() == StatusCode::kOverloaded) {
      outcomes[i] = ServeOutcome::kOverloaded;
    } else if (response.status().code() == StatusCode::kDeadlineExceeded) {
      outcomes[i] = ServeOutcome::kDeadlineExceeded;
    } else {
      outcomes[i] = ServeOutcome::kError;
    }
  };

  // The calling thread only submits and waits, so `threads` requests run
  // at once on `threads` workers (a pool of n has n - 1). One thread runs
  // every request inline, in stream order.
  ThreadPool pool(options.threads <= 1 ? 1 : options.threads + 1);
  const auto start = std::chrono::steady_clock::now();
  const size_t batch = options.adaptive && options.adapt_every > 0
                           ? options.adapt_every
                           : events.size();
  size_t next = 0;
  while (next < events.size()) {
    const size_t end = std::min(next + batch, events.size());
    std::vector<std::future<Status>> done;
    done.reserve(end - next);
    for (size_t i = next; i < end; ++i) {
      if (options.paced) {
        const auto planned =
            start + std::chrono::milliseconds(events[i].arrival_ms);
        const auto now = std::chrono::steady_clock::now();
        if (planned > now) {
          SleepForMillis(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  planned - now)
                  .count());
        }
      }
      done.push_back(pool.Submit([&run_event, i]() {
        run_event(i);
        return Status::OK();
      }));
    }
    for (auto& future : done) {
      AUTOCAT_RETURN_IF_ERROR(future.get());
    }
    if (options.adaptive) {
      (void)service.Adapt();
    }
    next = end;
  }

  ScenarioReport report;
  report.scenario = spec.name;
  report.adaptive = options.adaptive;
  report.phases.resize(stream.phases().size());
  std::vector<Histogram> phase_latency(stream.phases().size(),
                                       Histogram::LatencyMs());
  std::vector<std::set<std::string>> phase_signatures(
      stream.phases().size());
  for (size_t p = 0; p < stream.phases().size(); ++p) {
    report.phases[p].name = stream.phases()[p].name;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    PhaseReport& phase = report.phases[events[i].phase];
    ++phase.requests;
    switch (outcomes[i]) {
      case ServeOutcome::kHit:
        ++phase.hits;
        break;
      case ServeOutcome::kMiss:
        ++phase.misses;
        break;
      case ServeOutcome::kOverloaded:
        ++phase.overloaded;
        break;
      case ServeOutcome::kDeadlineExceeded:
        ++phase.deadline_exceeded;
        break;
      case ServeOutcome::kError:
        ++phase.errors;
        break;
    }
    if (outcomes[i] == ServeOutcome::kHit ||
        outcomes[i] == ServeOutcome::kMiss) {
      phase_latency[events[i].phase].Add(latencies[i]);
      phase_signatures[events[i].phase].insert(signatures[i]);
    }
  }
  for (size_t p = 0; p < report.phases.size(); ++p) {
    PhaseReport& phase = report.phases[p];
    const uint64_t answered = phase.hits + phase.misses;
    phase.hit_rate = answered == 0 ? 0.0
                                   : static_cast<double>(phase.hits) /
                                         static_cast<double>(answered);
    phase.distinct_signatures = phase_signatures[p].size();
    phase.latency_p50_ms = phase_latency[p].PercentileEstimate(50);
    phase.latency_p90_ms = phase_latency[p].PercentileEstimate(90);
    phase.latency_p99_ms = phase_latency[p].PercentileEstimate(99);
  }
  const ServiceMetricsSnapshot snapshot = service.SnapshotMetrics();
  report.adaptive_actions = snapshot.adaptive_actions;
  report.service_metrics_json = snapshot.ToJson();
  return report;
}

}  // namespace autocat
