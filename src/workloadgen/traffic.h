#ifndef AUTOCAT_WORKLOADGEN_TRAFFIC_H_
#define AUTOCAT_WORKLOADGEN_TRAFFIC_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "workloadgen/session.h"

namespace autocat {

/// One phase of a scenario: how many requests, how sessions are picked
/// (Zipf skew), the drift regime the session pool is generated under, and
/// the arrival process (steady pacing or on/off bursts).
struct PhaseSpec {
  std::string name;
  size_t requests = 0;
  /// Zipf exponent for picking which session issues the next request
  /// (0 = uniform across sessions; ~1 concentrates traffic on a few hot
  /// sessions and therefore a few hot signatures).
  double zipf_s = 0;
  DriftSpec drift;
  /// Mean inter-arrival gap in milliseconds; 0 means closed-loop (no
  /// planned pacing — requests arrive back to back).
  int64_t mean_gap_ms = 0;
  /// When > 0, arrivals come in bursts of this many back-to-back
  /// requests separated by `burst_pause_ms` of silence.
  size_t burst_size = 0;
  int64_t burst_pause_ms = 0;
};

/// One request of the composed traffic: which session of which pool
/// issues which step, and when. SQL text is looked up through the stream
/// so events stay small.
struct TrafficEvent {
  size_t phase = 0;
  uint64_t pool_key = 0;
  size_t session = 0;
  size_t step = 0;
  int64_t arrival_ms = 0;
};

/// Composes phases of session traffic into one deterministic event
/// stream. Session pools are keyed by the drift position, so consecutive
/// phases under the same drift share one pool AND its per-session step
/// cursors — a session interrupted by a phase boundary resumes where it
/// left off, preserving hit-rate continuity. A drift change starts a new
/// pool, which is exactly the signature-invalidating shift the adaptive
/// knobs must react to. Composition is sequential by design (phases are
/// ordered); pool generation underneath is chunk-parallel.
class TrafficStream {
 public:
  /// `geo` is not owned and must outlive the stream.
  TrafficStream(const Geography* geo, SessionConfig sessions,
                uint64_t seed);

  /// Appends `phase.requests` events for the phase. Deterministic in
  /// (seed, the sequence of phases added so far). Errors, leaving the
  /// stream unchanged, on zero requests, a negative `zipf_s`, and
  /// whatever `LatestArrivalMs` rejects from the current clock.
  Status AddPhase(const PhaseSpec& phase);

  /// The arrival clock at `phase`'s last request when the phase starts
  /// at `start_ms`, with every gap drawn at its largest (3/2 of
  /// `mean_gap_ms`) — a bound on what `AddPhase` can reach. Errors with
  /// kInvalidArgument on a negative `mean_gap_ms` or `burst_pause_ms`
  /// and when the bound would pass INT64_MAX.
  static Result<int64_t> LatestArrivalMs(const PhaseSpec& phase,
                                         int64_t start_ms);

  const std::vector<TrafficEvent>& events() const { return events_; }
  const std::vector<PhaseSpec>& phases() const { return phases_; }

  const std::string& Sql(const TrafficEvent& event) const;
  const SessionQuery& Query(const TrafficEvent& event) const;

  /// Sessions of the pool for one drift regime (generated on demand).
  const std::vector<UserSession>& PoolSessions(const DriftSpec& drift);

  static uint64_t PoolKey(const DriftSpec& drift);

 private:
  struct Pool {
    std::vector<UserSession> sessions;
    /// Next step each session will issue; wraps at the chain's end so a
    /// reused session replays its exploration (coherent repeat visits).
    std::vector<size_t> cursors;
  };

  Pool& GetPool(const DriftSpec& drift);

  SessionGenerator generator_;
  uint64_t seed_;
  std::vector<PhaseSpec> phases_;
  std::vector<TrafficEvent> events_;
  // std::map (not unordered) for deterministic iteration order.
  std::map<uint64_t, Pool> pools_;
  int64_t clock_ms_ = 0;
};

}  // namespace autocat

#endif  // AUTOCAT_WORKLOADGEN_TRAFFIC_H_
