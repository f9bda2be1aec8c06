// Load generator for the categorization service (src/serve/): runs a
// declarative session-workload scenario (src/workloadgen/) — coherent
// per-user refine/relax/pivot sessions composed into phases with Zipf
// skew, bursts, and intent drift — through the scenario harness,
// optionally with the adaptive serving knobs on:
//
//   loadgen --scenario=drifting --threads=2 --adaptive --adapt-every=64
//   loadgen --scenario-file=my.scenario --paced
//
// Prints the harness report as deterministic JSON plus a short per-phase
// summary, so the output doubles as a smoke test for the serving stack.
// Without a scenario it prints its usage and exits 2.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/loadgen_flags.h"
#include "workloadgen/harness.h"
#include "workloadgen/scenario.h"

namespace {

using namespace autocat;

int RunScenario(const LoadgenConfig& config) {
  Result<ScenarioSpec> spec = Status::Internal("unreachable");
  if (!config.scenario.empty()) {
    spec = BuiltinScenario(config.scenario);
  } else {
    std::ifstream in(config.scenario_file);
    if (!in) {
      std::fprintf(stderr, "cannot open scenario file '%s'\n",
                   config.scenario_file.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    spec = ParseScenarioSpec(text.str());
  }
  if (!spec.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 spec.status().ToString().c_str());
    return 1;
  }
  if (config.seed.has_value()) {
    spec.value().seed = *config.seed;
  }
  if (config.cache_mb.has_value()) {
    spec.value().cache_mb = *config.cache_mb;
  }

  HarnessOptions options;
  options.threads = config.threads;
  options.adaptive = config.adaptive;
  options.adapt_every = config.adapt_every;
  options.paced = config.paced;
  options.deadline_ms = config.deadline_ms;

  const Result<ScenarioReport> report =
      ScenarioHarness::Run(spec.value(), options);
  if (!report.ok()) {
    std::fprintf(stderr, "harness: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.value().ToJson().c_str());
  for (const PhaseReport& phase : report.value().phases) {
    std::printf(
        "# phase %-12s %5zu requests, hit rate %.3f, %4zu signatures, "
        "p50 %.2fms p99 %.2fms\n",
        phase.name.c_str(), phase.requests, phase.hit_rate,
        phase.distinct_signatures, phase.latency_p50_ms,
        phase.latency_p99_ms);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    args.emplace_back(argv[i]);
  }
  Result<LoadgenConfig> config = ParseLoadgenArgs(args);
  if (config.ok() && !config.value().has_scenario()) {
    config = Status::InvalidArgument(
        "--scenario=NAME or --scenario-file=PATH is required");
  }
  if (!config.ok()) {
    std::fprintf(stderr, "%s\nusage: %s", config.status().ToString().c_str(),
                 LoadgenUsage(argv[0]).c_str());
    return 2;
  }
  return RunScenario(config.value());
}
