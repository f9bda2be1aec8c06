#ifndef AUTOCAT_WORKLOADGEN_SCENARIO_H_
#define AUTOCAT_WORKLOADGEN_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "workloadgen/traffic.h"

namespace autocat {

/// Declarative description of one workload experiment: the synthetic
/// environment (homes, session pool, seed), the serving configuration
/// under test (cache size, TTL), and the phase sequence the traffic
/// composer replays.
struct ScenarioSpec {
  std::string name;
  /// Synthetic environment.
  size_t num_homes = 2000;
  size_t num_sessions = 64;
  uint64_t seed = 4242;
  /// Fraction of the drift-0 query pool used to train workload stats
  /// (the rest is the served test traffic's historical backdrop) — the
  /// train/test split style of feedback-kde's runExperiment.py.
  double train_fraction = 0.5;
  /// Serving knobs at scenario start (the adaptive loop may move them).
  size_t cache_mb = 8;
  int64_t ttl_ms = 0;
  std::vector<PhaseSpec> phases;
};

/// Parses the declarative spec format (one directive per line, '#'
/// comments). Scalar directives: `scenario <name>`, `homes <n>`,
/// `sessions <n>`, `seed <n>`, `train_fraction <f>`, `cache_mb <n>`,
/// `ttl_ms <n>`. Phase directive:
///   phase <name> requests=<n> [zipf=<s>] [drift=<p>] [gap_ms=<n>]
///         [burst=<n>] [pause_ms=<n>]
/// Unknown directives, unknown phase keys, and malformed numeric values
/// are errors (strict parsing — no silent zeroes), as are values out of
/// range: `zipf` must be finite and >= 0, `drift` in [0, 1],
/// `train_fraction` in (0, 1] (NaN fails each), and `cache_mb` small
/// enough that its byte count fits in size_t.
Result<ScenarioSpec> ParseScenarioSpec(std::string_view text);

/// Renders `spec` in the ParseScenarioSpec format (round-trips).
std::string ScenarioSpecToString(const ScenarioSpec& spec);

/// The built-in scenario library: "steady", "skewed", "bursty",
/// "drifting", "mixed". Configured short enough to run as ctest gates on
/// one core under TSan.
Result<ScenarioSpec> BuiltinScenario(std::string_view name);
std::vector<std::string> BuiltinScenarioNames();

}  // namespace autocat

#endif  // AUTOCAT_WORKLOADGEN_SCENARIO_H_
