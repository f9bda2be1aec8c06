// Unit tests for the workload-synthesis subsystem (src/workloadgen/):
// coherent session generation, deterministic traffic composition with
// skew/bursts/drift, and the declarative scenario-spec parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "simgen/geo.h"
#include "simgen/homes_generator.h"
#include "workload/workload.h"
#include "workloadgen/scenario.h"
#include "workloadgen/session.h"
#include "workloadgen/traffic.h"

namespace autocat {
namespace {

SessionConfig SmallConfig() {
  SessionConfig config;
  config.num_sessions = 48;
  config.seed = 20240807;
  return config;
}

std::string SessionFingerprint(const std::vector<UserSession>& sessions) {
  std::string out;
  for (const UserSession& session : sessions) {
    out += std::to_string(session.id) + ":" + session.region + "\n";
    for (const SessionQuery& query : session.queries) {
      out += std::to_string(query.step) + "|";
      out += SessionMutationToString(query.mutation);
      out += "|" + query.mutated_attribute + "|" + query.sql + "\n";
    }
  }
  return out;
}

TEST(SessionGeneratorTest, ChainsAreCoherentAndWellFormed) {
  const Geography geo = Geography::UnitedStates();
  const SessionGenerator generator(&geo, SmallConfig());
  const std::vector<UserSession> sessions = generator.Generate();
  ASSERT_EQ(sessions.size(), SmallConfig().num_sessions);

  const std::set<std::string> known_attributes = {
      "price",        "neighborhood", "bedroomcount",
      "squarefootage", "propertytype", "yearbuilt"};
  for (size_t i = 0; i < sessions.size(); ++i) {
    const UserSession& session = sessions[i];
    EXPECT_EQ(session.id, i);
    EXPECT_FALSE(session.region.empty());
    ASSERT_GE(session.queries.size(), SmallConfig().min_steps);
    ASSERT_LE(session.queries.size(), SmallConfig().max_steps);
    for (size_t step = 0; step < session.queries.size(); ++step) {
      const SessionQuery& query = session.queries[step];
      EXPECT_EQ(query.step, step);
      EXPECT_NE(query.sql.find("FROM ListProperty"), std::string::npos);
      if (step == 0) {
        EXPECT_EQ(query.mutation, SessionMutation::kInitial);
        EXPECT_TRUE(query.mutated_attribute.empty());
      } else {
        EXPECT_NE(query.mutation, SessionMutation::kInitial);
        EXPECT_TRUE(known_attributes.count(query.mutated_attribute))
            << "unknown mutated attribute '" << query.mutated_attribute
            << "'";
      }
    }
  }
}

TEST(SessionGeneratorTest, EverySessionSqlParses) {
  const Geography geo = Geography::UnitedStates();
  const SessionGenerator generator(&geo, SmallConfig());
  auto schema = HomesGenerator::ListPropertySchema();
  ASSERT_TRUE(schema.ok());

  std::vector<std::string> sqls;
  for (const UserSession& session : generator.Generate()) {
    for (const SessionQuery& query : session.queries) {
      sqls.push_back(query.sql);
    }
  }
  WorkloadParseReport report;
  const Workload workload =
      Workload::Parse(sqls, schema.value(), &report);
  EXPECT_EQ(report.parse_errors, 0u);
  EXPECT_EQ(report.parsed, sqls.size());
  EXPECT_EQ(workload.size(), sqls.size());
}

TEST(SessionGeneratorTest, MutationNamesRoundTrip) {
  EXPECT_EQ(SessionMutationToString(SessionMutation::kInitial), "initial");
  EXPECT_EQ(SessionMutationToString(SessionMutation::kRefine), "refine");
  EXPECT_EQ(SessionMutationToString(SessionMutation::kRelax), "relax");
  EXPECT_EQ(SessionMutationToString(SessionMutation::kPivot), "pivot");
}

TEST(SessionGeneratorTest, DriftProducesADifferentPool) {
  const Geography geo = Geography::UnitedStates();
  const SessionGenerator generator(&geo, SmallConfig());
  DriftSpec shifted;
  shifted.position = 0.8;
  const std::string base = SessionFingerprint(generator.Generate());
  const std::string drifted =
      SessionFingerprint(generator.Generate(shifted));
  EXPECT_NE(base, drifted);
  // Same drift twice is the same pool (pools are pure functions of
  // (seed, drift)).
  EXPECT_EQ(drifted, SessionFingerprint(generator.Generate(shifted)));
}

TEST(SessionGeneratorTest, DriftRaisesPriceLevels) {
  // Drift moves buyers' price centers up (price_amplitude > 0): the mean
  // of all BETWEEN endpoints must rise measurably. Rotation is disabled
  // to isolate the price knob (rotated hot windows land on cheaper
  // neighborhoods, which legitimately offsets part of the lift), and the
  // pool is large enough that region sampling noise can't mask a 1.8x
  // center shift.
  const Geography geo = Geography::UnitedStates();
  SessionConfig config = SmallConfig();
  config.num_sessions = 512;
  const SessionGenerator generator(&geo, config);
  DriftSpec shifted;
  shifted.position = 1.0;
  shifted.neighborhood_rotation = 0;
  const auto mean_price_endpoint =
      [](const std::vector<UserSession>& sessions) {
        double sum = 0;
        size_t n = 0;
        for (const UserSession& session : sessions) {
          for (const SessionQuery& query : session.queries) {
            const size_t at = query.sql.find("price BETWEEN ");
            if (at == std::string::npos) {
              continue;
            }
            sum += std::strtod(query.sql.c_str() + at + 14, nullptr);
            ++n;
          }
        }
        return n == 0 ? 0.0 : sum / static_cast<double>(n);
      };
  const double base = mean_price_endpoint(generator.Generate());
  const double drifted = mean_price_endpoint(generator.Generate(shifted));
  EXPECT_GT(base, 0.0);
  EXPECT_GT(drifted, base * 1.3);
}

TEST(TrafficStreamTest, ComposesPhasesInOrder) {
  const Geography geo = Geography::UnitedStates();
  TrafficStream stream(&geo, SmallConfig(), 7);
  PhaseSpec a;
  a.name = "a";
  a.requests = 100;
  PhaseSpec b;
  b.name = "b";
  b.requests = 50;
  b.drift.position = 0.5;
  ASSERT_TRUE(stream.AddPhase(a).ok());
  ASSERT_TRUE(stream.AddPhase(b).ok());
  ASSERT_EQ(stream.events().size(), 150u);
  for (size_t i = 0; i < stream.events().size(); ++i) {
    const TrafficEvent& event = stream.events()[i];
    EXPECT_EQ(event.phase, i < 100 ? 0u : 1u);
    EXPECT_EQ(event.pool_key,
              TrafficStream::PoolKey(i < 100 ? a.drift : b.drift));
    // Every event resolves to real SQL.
    EXPECT_FALSE(stream.Sql(event).empty());
  }
}

TEST(TrafficStreamTest, SessionCursorsAdvanceCoherently) {
  // Each session must issue its chain in order: the k-th event of a
  // session is step k mod chain length — across phase boundaries too,
  // as long as the drift regime (and therefore the pool) is unchanged.
  const Geography geo = Geography::UnitedStates();
  TrafficStream stream(&geo, SmallConfig(), 11);
  PhaseSpec first;
  first.name = "first";
  first.requests = 200;
  PhaseSpec second;
  second.name = "second";
  second.requests = 200;
  ASSERT_TRUE(stream.AddPhase(first).ok());
  ASSERT_TRUE(stream.AddPhase(second).ok());

  const std::vector<UserSession>& sessions = stream.PoolSessions({});
  std::map<size_t, size_t> issued;  // session -> events so far
  for (const TrafficEvent& event : stream.events()) {
    const size_t k = issued[event.session]++;
    EXPECT_EQ(event.step,
              k % sessions[event.session].queries.size())
        << "session " << event.session << " broke exploration order";
  }
}

TEST(TrafficStreamTest, ZipfSkewConcentratesTraffic) {
  const Geography geo = Geography::UnitedStates();
  const auto top_share = [&geo](double zipf_s) {
    TrafficStream stream(&geo, SmallConfig(), 23);
    PhaseSpec phase;
    phase.name = "p";
    phase.requests = 1000;
    phase.zipf_s = zipf_s;
    EXPECT_TRUE(stream.AddPhase(phase).ok());
    std::map<size_t, size_t> counts;
    for (const TrafficEvent& event : stream.events()) {
      ++counts[event.session];
    }
    size_t top = 0;
    for (const auto& [session, count] : counts) {
      top = std::max(top, count);
    }
    return static_cast<double>(top) / 1000.0;
  };
  const double uniform = top_share(0);
  const double skewed = top_share(1.2);
  // 48 sessions uniformly -> ~2% each; zipf 1.2 -> a dominant head.
  EXPECT_LT(uniform, 0.08);
  EXPECT_GT(skewed, 2 * uniform);
}

TEST(TrafficStreamTest, BurstArrivalsAlternateWithPauses) {
  const Geography geo = Geography::UnitedStates();
  TrafficStream stream(&geo, SmallConfig(), 31);
  PhaseSpec phase;
  phase.name = "bursts";
  phase.requests = 64;
  phase.burst_size = 8;
  phase.burst_pause_ms = 50;
  ASSERT_TRUE(stream.AddPhase(phase).ok());
  const std::vector<TrafficEvent>& events = stream.events();
  ASSERT_EQ(events.size(), 64u);
  for (size_t i = 0; i < events.size(); ++i) {
    // Within a burst arrivals are back to back (same planned ms); a new
    // burst starts exactly one pause later.
    const int64_t expected = static_cast<int64_t>(i / 8) * 50;
    EXPECT_EQ(events[i].arrival_ms, expected) << "event " << i;
  }
}

TEST(TrafficStreamTest, SteadyGapsAdvanceTheClock) {
  const Geography geo = Geography::UnitedStates();
  TrafficStream stream(&geo, SmallConfig(), 31);
  PhaseSpec phase;
  phase.name = "paced";
  phase.requests = 50;
  phase.mean_gap_ms = 10;
  ASSERT_TRUE(stream.AddPhase(phase).ok());
  const std::vector<TrafficEvent>& events = stream.events();
  for (size_t i = 1; i < events.size(); ++i) {
    const int64_t gap = events[i].arrival_ms - events[i - 1].arrival_ms;
    EXPECT_GE(gap, 5);   // mean/2
    EXPECT_LE(gap, 15);  // 3*mean/2
  }
}

TEST(TrafficStreamTest, RejectsDegeneratePhases) {
  const Geography geo = Geography::UnitedStates();
  TrafficStream stream(&geo, SmallConfig(), 1);
  PhaseSpec empty;
  empty.name = "empty";
  empty.requests = 0;
  EXPECT_FALSE(stream.AddPhase(empty).ok());
  PhaseSpec negative;
  negative.name = "neg";
  negative.requests = 10;
  negative.zipf_s = -1;
  EXPECT_FALSE(stream.AddPhase(negative).ok());
}

// Arrival clocks that would pass INT64_MAX are refused before any event
// is added (the arrival loop would overflow a signed int64 otherwise;
// UBSan builds run these).
TEST(TrafficStreamTest, RejectsPhasesWhoseClockWouldOverflow) {
  const Geography geo = Geography::UnitedStates();
  TrafficStream stream(&geo, SmallConfig(), 1);
  PhaseSpec gap;
  gap.name = "gap";
  gap.requests = 3;
  gap.mean_gap_ms = 8000000000000000000;  // 3/2 of it passes INT64_MAX
  EXPECT_EQ(stream.AddPhase(gap).code(), StatusCode::kInvalidArgument);
  PhaseSpec pause;
  pause.name = "pause";
  pause.requests = 5;
  pause.burst_size = 2;
  pause.burst_pause_ms = 9000000000000000000;  // two pauses pass it
  EXPECT_EQ(stream.AddPhase(pause).code(), StatusCode::kInvalidArgument);
  PhaseSpec negative;
  negative.name = "negative";
  negative.requests = 5;
  negative.burst_size = 2;
  negative.burst_pause_ms = -1;
  EXPECT_EQ(stream.AddPhase(negative).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(stream.events().empty());
  EXPECT_TRUE(stream.phases().empty());

  // One pause of 9e18 fits; a second phase starting there cannot pause
  // again, and the refusal leaves the stream as it was.
  pause.requests = 3;
  ASSERT_TRUE(stream.AddPhase(pause).ok());
  EXPECT_EQ(stream.events().back().arrival_ms, 9000000000000000000);
  const size_t events = stream.events().size();
  EXPECT_FALSE(stream.AddPhase(pause).ok());
  EXPECT_EQ(stream.events().size(), events);
  PhaseSpec closed;
  closed.name = "closed";
  closed.requests = 4;
  EXPECT_TRUE(stream.AddPhase(closed).ok());
}

TEST(TrafficStreamTest, LatestArrivalBoundsTheLargestGaps) {
  PhaseSpec gap;
  gap.name = "gap";
  gap.requests = 11;
  gap.mean_gap_ms = 10;
  EXPECT_EQ(TrafficStream::LatestArrivalMs(gap, 100).value(), 100 + 10 * 15);
  PhaseSpec bursts;
  bursts.name = "bursts";
  bursts.requests = 10;
  bursts.burst_size = 4;
  bursts.burst_pause_ms = 7;
  EXPECT_EQ(TrafficStream::LatestArrivalMs(bursts, 0).value(), 2 * 7);
  PhaseSpec single = gap;
  single.requests = 1;
  single.mean_gap_ms = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(TrafficStream::LatestArrivalMs(single, 5).value(), 5);
}

TEST(ScenarioSpecTest, RejectsOverflowingClocksAtTheirLine) {
  auto gap = ParseScenarioSpec(
      "scenario big\n"
      "homes 10\n"
      "phase p requests=3 gap_ms=8000000000000000000\n");
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), StatusCode::kParseError);
  EXPECT_NE(gap.status().message().find("(line 3)"), std::string::npos)
      << gap.status().ToString();
  // Each phase fits alone; the second would pass INT64_MAX after the
  // first one's pause.
  auto pause = ParseScenarioSpec(
      "scenario big\n"
      "homes 10\n"
      "phase a requests=3 burst=2 pause_ms=9000000000000000000\n"
      "\n"
      "phase b requests=3 burst=2 pause_ms=9000000000000000000\n");
  ASSERT_FALSE(pause.ok());
  EXPECT_NE(pause.status().message().find("(line 5)"), std::string::npos)
      << pause.status().ToString();
}

TEST(ScenarioSpecTest, ParsesFullSpec) {
  auto spec = ParseScenarioSpec(
      "# comment\n"
      "scenario demo\n"
      "homes 1234\n"
      "sessions 77\n"
      "seed 99\n"
      "train_fraction 0.25\n"
      "cache_mb 4\n"
      "ttl_ms 500\n"
      "phase warm requests=100\n"
      "phase hot requests=200 zipf=1.1 drift=0.4 gap_ms=5 burst=8 "
      "pause_ms=20\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "demo");
  EXPECT_EQ(spec->num_homes, 1234u);
  EXPECT_EQ(spec->num_sessions, 77u);
  EXPECT_EQ(spec->seed, 99u);
  EXPECT_DOUBLE_EQ(spec->train_fraction, 0.25);
  EXPECT_EQ(spec->cache_mb, 4u);
  EXPECT_EQ(spec->ttl_ms, 500);
  ASSERT_EQ(spec->phases.size(), 2u);
  EXPECT_EQ(spec->phases[0].name, "warm");
  EXPECT_EQ(spec->phases[0].requests, 100u);
  EXPECT_EQ(spec->phases[1].name, "hot");
  EXPECT_DOUBLE_EQ(spec->phases[1].zipf_s, 1.1);
  EXPECT_DOUBLE_EQ(spec->phases[1].drift.position, 0.4);
  EXPECT_EQ(spec->phases[1].mean_gap_ms, 5);
  EXPECT_EQ(spec->phases[1].burst_size, 8u);
  EXPECT_EQ(spec->phases[1].burst_pause_ms, 20);
}

TEST(ScenarioSpecTest, RoundTripsThroughToString) {
  auto spec = BuiltinScenario("mixed");
  ASSERT_TRUE(spec.ok());
  auto reparsed = ParseScenarioSpec(ScenarioSpecToString(spec.value()));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(ScenarioSpecToString(reparsed.value()),
            ScenarioSpecToString(spec.value()));
}

TEST(ScenarioSpecTest, RejectsMalformedInput) {
  // Malformed numerics are errors, never silent zeroes.
  EXPECT_FALSE(ParseScenarioSpec("scenario s\nhomes 20x\n"
                                 "phase p requests=10\n")
                   .ok());
  EXPECT_FALSE(ParseScenarioSpec("scenario s\n"
                                 "phase p requests=abc\n")
                   .ok());
  EXPECT_FALSE(ParseScenarioSpec("scenario s\n"
                                 "phase p requests=\n")
                   .ok());
  // Unknown directives and phase keys.
  EXPECT_FALSE(ParseScenarioSpec("scenario s\nbogus 1\n"
                                 "phase p requests=10\n")
                   .ok());
  EXPECT_FALSE(ParseScenarioSpec("scenario s\n"
                                 "phase p requests=10 zipff=1\n")
                   .ok());
  // Structural requirements.
  EXPECT_FALSE(ParseScenarioSpec("phase p requests=10\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("scenario s\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("scenario s\n"
                                 "phase p requests=0\n")
                   .ok());
  EXPECT_FALSE(ParseScenarioSpec("scenario s\ntrain_fraction 0\n"
                                 "phase p requests=10\n")
                   .ok());
  EXPECT_FALSE(ParseScenarioSpec("scenario s\ntrain_fraction 1.5\n"
                                 "phase p requests=10\n")
                   .ok());
  EXPECT_FALSE(ParseScenarioSpec("scenario s\nhomes 0\n"
                                 "phase p requests=10\n")
                   .ok());
  // Values that parse as numbers but would reach undefined behaviour
  // downstream: a drift outside [0, 1] or NaN (a float-to-size_t cast
  // out of range), a NaN or infinite Zipf exponent, a NaN train
  // fraction, and a cache size whose byte count overflows size_t.
  for (const char* bad :
       {"scenario s\nphase p requests=10 drift=nan\n",
        "scenario s\nphase p requests=10 drift=-1\n",
        "scenario s\nphase p requests=10 drift=inf\n",
        "scenario s\nphase p requests=10 drift=1.5\n",
        "scenario s\nphase p requests=10 zipf=nan\n",
        "scenario s\nphase p requests=10 zipf=inf\n",
        "scenario s\nphase p requests=10 zipf=-1\n",
        "scenario s\ntrain_fraction nan\nphase p requests=10\n",
        "scenario s\ncache_mb 17592186044416\nphase p requests=10\n"}) {
    const auto spec = ParseScenarioSpec(bad);
    EXPECT_FALSE(spec.ok()) << bad;
    EXPECT_NE(spec.status().message().find("(line 2)"), std::string::npos)
        << bad << ": " << spec.status().ToString();
  }
  // The bounds themselves are valid.
  EXPECT_TRUE(ParseScenarioSpec("scenario s\ncache_mb 17592186044415\n"
                                "phase p requests=10 drift=1 zipf=0\n")
                  .ok());
}

TEST(ScenarioSpecTest, ErrorsNameTheLine) {
  const auto spec = ParseScenarioSpec("scenario s\nhomes ok\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 2"), std::string::npos)
      << spec.status().ToString();
}

TEST(ScenarioSpecTest, BuiltinsAllParse) {
  const std::vector<std::string> names = BuiltinScenarioNames();
  EXPECT_EQ(names.size(), 5u);
  for (const std::string& name : names) {
    auto spec = BuiltinScenario(name);
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status().ToString();
    EXPECT_EQ(spec->name, name);
    EXPECT_FALSE(spec->phases.empty());
  }
  EXPECT_EQ(BuiltinScenario("nope").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace autocat
