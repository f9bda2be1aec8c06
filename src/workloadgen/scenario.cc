#include "workloadgen/scenario.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/string_util.h"

namespace autocat {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Re-raises a numeric-parse failure as a spec parse error naming the
// line, so "homes ok" points at its line, not just at 'ok'.
template <typename T>
Result<T> AnnotateLine(Result<T> value, size_t line_no) {
  if (value.ok()) {
    return value;
  }
  return Status::ParseError(std::string(value.status().message()) +
                            " (line " + std::to_string(line_no) + ")");
}

Result<PhaseSpec> ParsePhaseLine(const std::vector<std::string>& tokens,
                                 size_t line_no) {
  const std::string where = " (line " + std::to_string(line_no) + ")";
  if (tokens.size() < 3) {
    return Status::ParseError(
        "phase directive needs a name and at least requests=<n>" + where);
  }
  PhaseSpec phase;
  phase.name = tokens[1];
  bool have_requests = false;
  for (size_t i = 2; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("phase key without '=': '" + token + "'" +
                                where);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "requests") {
      AUTOCAT_ASSIGN_OR_RETURN(const uint64_t n,
                               AnnotateLine(ParseUint64(value), line_no));
      phase.requests = static_cast<size_t>(n);
      have_requests = true;
    } else if (key == "zipf") {
      AUTOCAT_ASSIGN_OR_RETURN(phase.zipf_s,
                               AnnotateLine(ParseDouble(value), line_no));
      if (!(phase.zipf_s >= 0 && std::isfinite(phase.zipf_s))) {
        return Status::ParseError("zipf must be finite and >= 0" + where);
      }
    } else if (key == "drift") {
      AUTOCAT_ASSIGN_OR_RETURN(phase.drift.position,
                               AnnotateLine(ParseDouble(value), line_no));
      // Written this way round so NaN fails too.
      if (!(phase.drift.position >= 0 && phase.drift.position <= 1)) {
        return Status::ParseError("drift must be in [0, 1]" + where);
      }
    } else if (key == "gap_ms") {
      AUTOCAT_ASSIGN_OR_RETURN(phase.mean_gap_ms,
                               AnnotateLine(ParseInt64(value), line_no));
    } else if (key == "burst") {
      AUTOCAT_ASSIGN_OR_RETURN(const uint64_t n,
                               AnnotateLine(ParseUint64(value), line_no));
      phase.burst_size = static_cast<size_t>(n);
    } else if (key == "pause_ms") {
      AUTOCAT_ASSIGN_OR_RETURN(phase.burst_pause_ms,
                               AnnotateLine(ParseInt64(value), line_no));
    } else {
      return Status::ParseError("unknown phase key '" + key + "'" + where);
    }
  }
  if (!have_requests || phase.requests == 0) {
    return Status::ParseError("phase '" + phase.name +
                              "' needs requests=<n> > 0" + where);
  }
  return phase;
}

}  // namespace

Result<ScenarioSpec> ParseScenarioSpec(std::string_view text) {
  ScenarioSpec spec;
  bool named = false;
  size_t line_no = 0;
  // The latest arrival the phases so far can reach: a phase whose
  // arrival clock could pass INT64_MAX is refused at its line.
  int64_t clock_ms = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = TrimWhitespace(raw_line);
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = TrimWhitespace(line.substr(0, hash));
    }
    if (line.empty()) {
      continue;
    }
    std::vector<std::string> tokens;
    for (const std::string& token : Split(line, ' ')) {
      if (!TrimWhitespace(token).empty()) {
        tokens.emplace_back(TrimWhitespace(token));
      }
    }
    const std::string where = " (line " + std::to_string(line_no) + ")";
    const std::string& directive = tokens[0];
    if (directive == "phase") {
      AUTOCAT_ASSIGN_OR_RETURN(PhaseSpec phase,
                               ParsePhaseLine(tokens, line_no));
      AUTOCAT_ASSIGN_OR_RETURN(
          clock_ms,
          AnnotateLine(TrafficStream::LatestArrivalMs(phase, clock_ms),
                       line_no));
      spec.phases.push_back(std::move(phase));
      continue;
    }
    if (tokens.size() != 2) {
      return Status::ParseError("directive '" + directive +
                                "' needs exactly one value" + where);
    }
    const std::string& value = tokens[1];
    if (directive == "scenario") {
      spec.name = value;
      named = true;
    } else if (directive == "homes") {
      AUTOCAT_ASSIGN_OR_RETURN(const uint64_t n,
                               AnnotateLine(ParseUint64(value), line_no));
      spec.num_homes = static_cast<size_t>(n);
    } else if (directive == "sessions") {
      AUTOCAT_ASSIGN_OR_RETURN(const uint64_t n,
                               AnnotateLine(ParseUint64(value), line_no));
      spec.num_sessions = static_cast<size_t>(n);
    } else if (directive == "seed") {
      AUTOCAT_ASSIGN_OR_RETURN(spec.seed,
                               AnnotateLine(ParseUint64(value), line_no));
    } else if (directive == "train_fraction") {
      AUTOCAT_ASSIGN_OR_RETURN(spec.train_fraction,
                               AnnotateLine(ParseDouble(value), line_no));
      if (!(spec.train_fraction > 0 && spec.train_fraction <= 1)) {
        return Status::ParseError("train_fraction must be in (0, 1]" +
                                  where);
      }
    } else if (directive == "cache_mb") {
      AUTOCAT_ASSIGN_OR_RETURN(const uint64_t n,
                               AnnotateLine(ParseUint64(value), line_no));
      // The harness sizes the cache as cache_mb << 20 bytes.
      if (n > (std::numeric_limits<size_t>::max() >> 20)) {
        return Status::ParseError("cache_mb is too large to express in "
                                  "bytes" + where);
      }
      spec.cache_mb = static_cast<size_t>(n);
    } else if (directive == "ttl_ms") {
      AUTOCAT_ASSIGN_OR_RETURN(spec.ttl_ms,
                               AnnotateLine(ParseInt64(value), line_no));
    } else {
      return Status::ParseError("unknown directive '" + directive + "'" +
                                where);
    }
  }
  if (!named) {
    return Status::ParseError("spec has no 'scenario <name>' directive");
  }
  if (spec.phases.empty()) {
    return Status::ParseError("scenario '" + spec.name +
                              "' has no phases");
  }
  if (spec.num_homes == 0 || spec.num_sessions == 0) {
    return Status::ParseError("scenario '" + spec.name +
                              "' needs homes > 0 and sessions > 0");
  }
  return spec;
}

std::string ScenarioSpecToString(const ScenarioSpec& spec) {
  std::string out;
  out += "scenario " + spec.name + "\n";
  out += "homes " + std::to_string(spec.num_homes) + "\n";
  out += "sessions " + std::to_string(spec.num_sessions) + "\n";
  out += "seed " + std::to_string(spec.seed) + "\n";
  out += "train_fraction " + FormatDouble(spec.train_fraction) + "\n";
  out += "cache_mb " + std::to_string(spec.cache_mb) + "\n";
  out += "ttl_ms " + std::to_string(spec.ttl_ms) + "\n";
  for (const PhaseSpec& phase : spec.phases) {
    out += "phase " + phase.name +
           " requests=" + std::to_string(phase.requests);
    if (phase.zipf_s != 0) {
      out += " zipf=" + FormatDouble(phase.zipf_s);
    }
    if (phase.drift.position != 0) {
      out += " drift=" + FormatDouble(phase.drift.position);
    }
    if (phase.mean_gap_ms != 0) {
      out += " gap_ms=" + std::to_string(phase.mean_gap_ms);
    }
    if (phase.burst_size != 0) {
      out += " burst=" + std::to_string(phase.burst_size);
    }
    if (phase.burst_pause_ms != 0) {
      out += " pause_ms=" + std::to_string(phase.burst_pause_ms);
    }
    out += "\n";
  }
  return out;
}

Result<ScenarioSpec> BuiltinScenario(std::string_view name) {
  // All builtins are sized to finish quickly on one core under TSan:
  // a few thousand rows, hundreds of requests per phase.
  if (name == "steady") {
    return ParseScenarioSpec(
        "scenario steady\n"
        "homes 2000\n"
        "sessions 64\n"
        "phase warm requests=300\n"
        "phase steady requests=500\n");
  }
  if (name == "skewed") {
    return ParseScenarioSpec(
        "scenario skewed\n"
        "homes 2000\n"
        "sessions 96\n"
        "phase warm requests=300 zipf=1.1\n"
        "phase hot requests=600 zipf=1.1\n");
  }
  if (name == "bursty") {
    return ParseScenarioSpec(
        "scenario bursty\n"
        "homes 2000\n"
        "sessions 64\n"
        "phase warm requests=200\n"
        "phase bursts requests=600 burst=16 pause_ms=40\n");
  }
  if (name == "drifting") {
    // Rolling drift: the hot ranges keep moving phase over phase, so the
    // cache never naturally re-warms on one pool — the regime where the
    // adaptive snap-width knob has to earn its keep (the ctest drift
    // gate measures recovery on the drift1..drift3 phases).
    return ParseScenarioSpec(
        "scenario drifting\n"
        "homes 2000\n"
        "sessions 96\n"
        "phase warm requests=400 zipf=0.9\n"
        "phase steady requests=600 zipf=0.9\n"
        "phase drift1 requests=400 zipf=0.9 drift=0.35\n"
        "phase drift2 requests=400 zipf=0.9 drift=0.55\n"
        "phase drift3 requests=400 zipf=0.9 drift=0.75\n");
  }
  if (name == "mixed") {
    return ParseScenarioSpec(
        "scenario mixed\n"
        "homes 2500\n"
        "sessions 80\n"
        "phase warm requests=300 zipf=0.9\n"
        "phase bursts requests=400 zipf=0.9 burst=12 pause_ms=30\n"
        "phase shifted requests=500 zipf=1.1 drift=0.6\n"
        "phase settled requests=400 zipf=0.9 drift=0.6\n");
  }
  return Status::NotFound("no builtin scenario named '" +
                          std::string(name) + "'");
}

std::vector<std::string> BuiltinScenarioNames() {
  return {"steady", "skewed", "bursty", "drifting", "mixed"};
}

}  // namespace autocat
