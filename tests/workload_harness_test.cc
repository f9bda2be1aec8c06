// Scenario-harness tests (src/workloadgen/harness.*), including the
// drift-recovery acceptance gate: the drifting scenario must show the
// cache hit-rate degrading under intent drift, and the adaptive serving
// knobs must recover at least 30% of the lost hit-rate. All runs but one
// use threads=1 (strictly sequential replay), so every counter asserted
// there is exactly reproducible; the threads=4 run checks only what holds
// at any interleaving (and gives TSan a concurrent replay to watch).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workloadgen/harness.h"
#include "workloadgen/scenario.h"

namespace autocat {
namespace {

HarnessOptions Sequential() {
  HarnessOptions options;
  options.threads = 1;
  return options;
}

HarnessOptions Adaptive() {
  HarnessOptions options;
  options.threads = 1;
  options.adaptive = true;
  options.adapt_every = 64;
  return options;
}

double DriftPhaseMean(const ScenarioReport& report) {
  double sum = 0;
  size_t n = 0;
  for (const PhaseReport& phase : report.phases) {
    if (phase.name.rfind("drift", 0) == 0) {
      sum += phase.hit_rate;
      ++n;
    }
  }
  EXPECT_GT(n, 0u) << "no drift phases in scenario " << report.scenario;
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

TEST(WorkloadHarnessTest, TrainQueriesAreDeterministicAndSplit) {
  auto spec = BuiltinScenario("steady");
  ASSERT_TRUE(spec.ok());
  const std::vector<std::string> a =
      ScenarioHarness::TrainQueries(spec.value());
  const std::vector<std::string> b =
      ScenarioHarness::TrainQueries(spec.value());
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());

  // train_fraction 0.5 keeps about half the pool; a different fraction
  // keeps a proportionally different slice of the same pool.
  ScenarioSpec quarter = spec.value();
  quarter.train_fraction = 0.25;
  const std::vector<std::string> c = ScenarioHarness::TrainQueries(quarter);
  EXPECT_LT(c.size(), a.size());
  EXPECT_GT(c.size(), a.size() / 4);
}

TEST(WorkloadHarnessTest, SteadyScenarioWarmsTheCache) {
  auto spec = BuiltinScenario("steady");
  ASSERT_TRUE(spec.ok());
  auto report = ScenarioHarness::Run(spec.value(), Sequential());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->phases.size(), spec->phases.size());
  for (size_t p = 0; p < report->phases.size(); ++p) {
    EXPECT_EQ(report->phases[p].name, spec->phases[p].name);
    EXPECT_EQ(report->phases[p].requests, spec->phases[p].requests);
    EXPECT_EQ(report->phases[p].hits + report->phases[p].misses,
              report->phases[p].requests)
        << "sequential replay must answer every request";
    EXPECT_EQ(report->phases[p].errors, 0u);
    EXPECT_GT(report->phases[p].distinct_signatures, 0u);
  }
  // A session-coherent stream revisits signatures: steady state must be
  // warmer than the opening phase.
  auto warm = report->PhaseHitRate("warm");
  auto steady = report->PhaseHitRate("steady");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(steady.ok());
  EXPECT_GT(steady.value(), warm.value());
  EXPECT_GT(steady.value(), 0.5);

  EXPECT_FALSE(report->PhaseHitRate("no-such-phase").ok());
}

TEST(WorkloadHarnessTest, RunsAreExactlyReproducible) {
  auto spec = BuiltinScenario("skewed");
  ASSERT_TRUE(spec.ok());
  auto a = ScenarioHarness::Run(spec.value(), Sequential());
  auto b = ScenarioHarness::Run(spec.value(), Sequential());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->phases.size(), b->phases.size());
  for (size_t p = 0; p < a->phases.size(); ++p) {
    EXPECT_EQ(a->phases[p].hits, b->phases[p].hits);
    EXPECT_EQ(a->phases[p].misses, b->phases[p].misses);
    EXPECT_EQ(a->phases[p].distinct_signatures,
              b->phases[p].distinct_signatures);
  }
}

TEST(WorkloadHarnessTest, FourThreadReplayAnswersEveryRequest) {
  auto spec = ParseScenarioSpec(
      "scenario concurrent\n"
      "homes 1500\n"
      "sessions 48\n"
      "phase warm requests=120 zipf=1.1\n"
      "phase hot requests=160 zipf=1.1\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  HarnessOptions options;
  options.threads = 4;
  auto report = ScenarioHarness::Run(spec.value(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->phases.size(), 2u);
  uint64_t hits = 0;
  for (size_t p = 0; p < report->phases.size(); ++p) {
    const PhaseReport& phase = report->phases[p];
    EXPECT_EQ(phase.requests, spec->phases[p].requests);
    // Four requests at a time fit the four admission slots: none is
    // rejected, queued out, or failed.
    EXPECT_EQ(phase.hits + phase.misses, phase.requests) << phase.name;
    EXPECT_EQ(phase.overloaded, 0u) << phase.name;
    EXPECT_EQ(phase.errors, 0u) << phase.name;
    hits += phase.hits;
  }
  EXPECT_GT(hits, 0u);
}

TEST(WorkloadHarnessTest, ReportJsonCarriesTheSchema) {
  auto spec = BuiltinScenario("steady");
  ASSERT_TRUE(spec.ok());
  auto report = ScenarioHarness::Run(spec.value(), Sequential());
  ASSERT_TRUE(report.ok());
  const std::string json = report->ToJson();
  for (const char* key :
       {"\"scenario\":", "\"adaptive\":", "\"adaptive_actions\":",
        "\"phases\":", "\"hit_rate\":", "\"distinct_signatures\":",
        "\"latency_ms\":", "\"p50\":", "\"p99\":", "\"service_metrics\":",
        "\"overloaded\":", "\"deadline_exceeded\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(WorkloadHarnessTest, RejectsPhaselessSpec) {
  ScenarioSpec spec;
  spec.name = "empty";
  EXPECT_FALSE(ScenarioHarness::Run(spec, Sequential()).ok());
}

// The acceptance gate (ISSUE 7): measurable degradation under drift, and
// the adaptive TTL/snap knobs recovering >= 30% of the lost hit-rate.
// Numbers are recorded in EXPERIMENTS.md ("Workload scenarios" table).
TEST(WorkloadHarnessTest, DriftGateAdaptiveKnobsRecoverHitRate) {
  auto spec = BuiltinScenario("drifting");
  ASSERT_TRUE(spec.ok());

  auto fixed = ScenarioHarness::Run(spec.value(), Sequential());
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  auto steady = fixed->PhaseHitRate("steady");
  ASSERT_TRUE(steady.ok());
  const double h_steady = steady.value();
  const double h_drift = DriftPhaseMean(fixed.value());

  // Gate 1: rolling intent drift measurably degrades the hit rate.
  EXPECT_GT(h_steady - h_drift, 0.10)
      << "h_steady=" << h_steady << " h_drift=" << h_drift;

  auto adapted = ScenarioHarness::Run(spec.value(), Adaptive());
  ASSERT_TRUE(adapted.ok()) << adapted.status().ToString();
  EXPECT_GT(adapted->adaptive_actions, 0u);
  const double h_adapt = DriftPhaseMean(adapted.value());

  // Gate 2: the snap-width/TTL/capacity loop claws back >= 30% of it.
  const double lost = h_steady - h_drift;
  const double recovered = h_adapt - h_drift;
  EXPECT_GE(recovered, 0.30 * lost)
      << "h_steady=" << h_steady << " h_drift=" << h_drift
      << " h_adapt=" << h_adapt << " (recovered "
      << (lost > 0 ? recovered / lost : 0) << " of the loss)";
}

TEST(WorkloadHarnessTest, AdaptiveRunReportsActionsInMetrics) {
  auto spec = BuiltinScenario("drifting");
  ASSERT_TRUE(spec.ok());
  auto report = ScenarioHarness::Run(spec.value(), Adaptive());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->adaptive);
  EXPECT_GT(report->adaptive_actions, 0u);
  EXPECT_NE(report->service_metrics_json.find("\"adaptive\":{"),
            std::string::npos);
  EXPECT_NE(report->service_metrics_json.find("\"observed_requests\":"),
            std::string::npos);
}

}  // namespace
}  // namespace autocat
