#include "workloadgen/traffic.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/random.h"

namespace autocat {

TrafficStream::TrafficStream(const Geography* geo, SessionConfig sessions,
                             uint64_t seed)
    : generator_(geo, std::move(sessions)), seed_(seed) {}

uint64_t TrafficStream::PoolKey(const DriftSpec& drift) {
  // Quantized drift position; pools differ only through the position
  // (amplitude/rotation are scenario-wide constants in practice).
  return static_cast<uint64_t>(std::llround(drift.position * 1e6));
}

TrafficStream::Pool& TrafficStream::GetPool(const DriftSpec& drift) {
  const uint64_t key = PoolKey(drift);
  auto it = pools_.find(key);
  if (it == pools_.end()) {
    Pool pool;
    pool.sessions = generator_.Generate(drift);
    pool.cursors.assign(pool.sessions.size(), 0);
    it = pools_.emplace(key, std::move(pool)).first;
  }
  return it->second;
}

const std::vector<UserSession>& TrafficStream::PoolSessions(
    const DriftSpec& drift) {
  return GetPool(drift).sessions;
}

const std::string& TrafficStream::Sql(const TrafficEvent& event) const {
  return Query(event).sql;
}

const SessionQuery& TrafficStream::Query(const TrafficEvent& event) const {
  const auto it = pools_.find(event.pool_key);
  AUTOCAT_CHECK(it != pools_.end());
  const std::vector<UserSession>& sessions = it->second.sessions;
  AUTOCAT_CHECK(event.session < sessions.size());
  const UserSession& session = sessions[event.session];
  AUTOCAT_CHECK(event.step < session.queries.size());
  return session.queries[event.step];
}

Result<int64_t> TrafficStream::LatestArrivalMs(const PhaseSpec& phase,
                                               int64_t start_ms) {
  const std::string name = "phase '" + phase.name + "'";
  if (phase.mean_gap_ms < 0 || phase.burst_pause_ms < 0) {
    return Status::InvalidArgument(name +
                                   " has a negative gap_ms or pause_ms");
  }
  // The arrival loop below advances the clock `steps` times by at most
  // `step_ms`: once per burst boundary, or once per gap.
  uint64_t steps = 0;
  int64_t step_ms = 0;
  bool overflow = false;
  if (phase.requests > 0 && phase.burst_size > 0) {
    steps = (phase.requests - 1) / phase.burst_size;
    step_ms = phase.burst_pause_ms;
  } else if (phase.requests > 1 && phase.mean_gap_ms > 0) {
    steps = phase.requests - 1;
    overflow = __builtin_add_overflow(phase.mean_gap_ms,
                                      phase.mean_gap_ms / 2, &step_ms);
  }
  int64_t span_ms = 0;
  int64_t end_ms = 0;
  overflow = overflow ||
             steps > static_cast<uint64_t>(
                         std::numeric_limits<int64_t>::max()) ||
             __builtin_mul_overflow(static_cast<int64_t>(steps), step_ms,
                                    &span_ms) ||
             __builtin_add_overflow(start_ms, span_ms, &end_ms);
  if (overflow) {
    return Status::InvalidArgument(
        name + ": its arrival clock would pass INT64_MAX ms");
  }
  return end_ms;
}

Status TrafficStream::AddPhase(const PhaseSpec& phase) {
  if (phase.requests == 0) {
    return Status::InvalidArgument("phase '" + phase.name +
                                   "' has zero requests");
  }
  if (phase.zipf_s < 0) {
    return Status::InvalidArgument("phase '" + phase.name +
                                   "' has negative zipf_s");
  }
  AUTOCAT_RETURN_IF_ERROR(LatestArrivalMs(phase, clock_ms_).status());
  const size_t phase_index = phases_.size();
  Pool& pool = GetPool(phase.drift);
  const size_t num_sessions = pool.sessions.size();
  AUTOCAT_CHECK(num_sessions > 0);

  // One RNG stream per phase, independent of the pool-generation
  // streams; composition is sequential so the stream is deterministic in
  // the phase sequence alone.
  Random rng(SplitMixSeed(seed_ ^ 0x7261666669636bULL, phase_index));

  events_.reserve(events_.size() + phase.requests);
  size_t in_burst = 0;
  for (size_t i = 0; i < phase.requests; ++i) {
    TrafficEvent event;
    event.phase = phase_index;
    event.pool_key = PoolKey(phase.drift);
    event.session = phase.zipf_s > 0
                        ? rng.Zipf(num_sessions, phase.zipf_s)
                        : static_cast<size_t>(rng.Uniform(
                              0, static_cast<int64_t>(num_sessions) - 1));
    size_t& cursor = pool.cursors[event.session];
    event.step = cursor;
    cursor = (cursor + 1) % pool.sessions[event.session].queries.size();

    // Arrival process: bursts are back-to-back requests separated by
    // silent pauses; otherwise steady jittered gaps.
    if (phase.burst_size > 0) {
      if (in_burst == phase.burst_size) {
        clock_ms_ += phase.burst_pause_ms;
        in_burst = 0;
      }
    } else if (i > 0 && phase.mean_gap_ms > 0) {
      // Uniform on [mean/2, 3*mean/2]: mean-preserving jitter.
      clock_ms_ += rng.Uniform((phase.mean_gap_ms + 1) / 2,
                               phase.mean_gap_ms + phase.mean_gap_ms / 2);
    }
    event.arrival_ms = clock_ms_;
    ++in_burst;
    events_.push_back(event);
  }
  phases_.push_back(phase);
  return Status::OK();
}

}  // namespace autocat
