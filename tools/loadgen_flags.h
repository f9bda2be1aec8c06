#ifndef AUTOCAT_TOOLS_LOADGEN_FLAGS_H_
#define AUTOCAT_TOOLS_LOADGEN_FLAGS_H_

// Flag parsing for tools/loadgen, extracted into a header so unit tests
// can exercise it directly. Numeric values go through the strict
// common/string_util parsers: a malformed value ("20x", "", "1e--3") is
// a kInvalidArgument error naming the flag, never a silent zero (the
// strtoull behavior this replaced).

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"

namespace autocat {

struct LoadgenConfig {
  // The scenario to run, selected by --scenario=<builtin name> or
  // --scenario-file=<spec path> (mutually exclusive; one is required).
  std::string scenario;
  std::string scenario_file;
  size_t threads = 4;
  int64_t deadline_ms = 0;
  // Overrides of the scenario's own cache_mb / seed, set only when the
  // flag is given (whatever its value).
  std::optional<size_t> cache_mb;
  std::optional<uint64_t> seed;
  bool adaptive = false;
  size_t adapt_every = 64;
  bool paced = false;

  bool has_scenario() const {
    return !scenario.empty() || !scenario_file.empty();
  }
};

inline std::string LoadgenUsage(std::string_view argv0) {
  std::string out(argv0);
  out +=
      " (--scenario=NAME | --scenario-file=PATH)\n"
      "          [--threads=N] [--deadline-ms=N] [--cache-mb=N] [--seed=N]\n"
      "          [--adaptive] [--adapt-every=N] [--paced]\n";
  return out;
}

namespace loadgen_internal {

// Splits "--name=value" into its parts; returns false when `arg` is not
// the named flag.
inline bool MatchFlag(std::string_view arg, std::string_view name,
                      std::string_view* value) {
  if (arg.size() < 2 + name.size() + 1 || arg.substr(0, 2) != "--" ||
      arg.substr(2, name.size()) != name ||
      arg[2 + name.size()] != '=') {
    return false;
  }
  *value = arg.substr(2 + name.size() + 1);
  return true;
}

inline Status FlagError(std::string_view flag, const Status& status) {
  return Status::InvalidArgument("--" + std::string(flag) + ": " +
                                 status.message());
}

inline Status ParseSize(std::string_view flag, std::string_view value,
                        size_t* out) {
  const Result<uint64_t> parsed = ParseUint64(value);
  if (!parsed.ok()) {
    return FlagError(flag, parsed.status());
  }
  *out = static_cast<size_t>(parsed.value());
  return Status::OK();
}

}  // namespace loadgen_internal

/// Parses command-line arguments (excluding argv[0]). Unknown flags and
/// malformed values are kInvalidArgument. A missing scenario is not a
/// parse error; the caller checks has_scenario().
inline Result<LoadgenConfig> ParseLoadgenArgs(
    const std::vector<std::string>& args) {
  using loadgen_internal::FlagError;
  using loadgen_internal::MatchFlag;
  using loadgen_internal::ParseSize;
  LoadgenConfig config;
  for (const std::string& arg : args) {
    std::string_view value;
    if (MatchFlag(arg, "threads", &value)) {
      AUTOCAT_RETURN_IF_ERROR(ParseSize("threads", value,
                                        &config.threads));
      if (config.threads == 0) {
        return Status::InvalidArgument("--threads: must be >= 1");
      }
    } else if (MatchFlag(arg, "deadline-ms", &value)) {
      const Result<int64_t> parsed = ParseInt64(value);
      if (!parsed.ok()) {
        return FlagError("deadline-ms", parsed.status());
      }
      if (parsed.value() < 0) {
        return Status::InvalidArgument("--deadline-ms: must be >= 0");
      }
      config.deadline_ms = parsed.value();
    } else if (MatchFlag(arg, "cache-mb", &value)) {
      size_t cache_mb = 0;
      AUTOCAT_RETURN_IF_ERROR(ParseSize("cache-mb", value, &cache_mb));
      // The harness sizes the cache as cache_mb << 20 bytes.
      if (cache_mb > (std::numeric_limits<size_t>::max() >> 20)) {
        return Status::InvalidArgument(
            "--cache-mb: too large to express in bytes");
      }
      config.cache_mb = cache_mb;
    } else if (MatchFlag(arg, "seed", &value)) {
      const Result<uint64_t> parsed = ParseUint64(value);
      if (!parsed.ok()) {
        return FlagError("seed", parsed.status());
      }
      config.seed = parsed.value();
    } else if (MatchFlag(arg, "scenario", &value)) {
      config.scenario = std::string(value);
    } else if (MatchFlag(arg, "scenario-file", &value)) {
      config.scenario_file = std::string(value);
    } else if (MatchFlag(arg, "adapt-every", &value)) {
      AUTOCAT_RETURN_IF_ERROR(ParseSize("adapt-every", value,
                                        &config.adapt_every));
      if (config.adapt_every == 0) {
        return Status::InvalidArgument("--adapt-every: must be >= 1");
      }
    } else if (arg == "--adaptive") {
      config.adaptive = true;
    } else if (arg == "--paced") {
      config.paced = true;
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  if (!config.scenario.empty() && !config.scenario_file.empty()) {
    return Status::InvalidArgument(
        "--scenario and --scenario-file are mutually exclusive");
  }
  return config;
}

}  // namespace autocat

#endif  // AUTOCAT_TOOLS_LOADGEN_FLAGS_H_
