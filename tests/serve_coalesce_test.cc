// In-flight request coalescing (serve/coalesce.h, DESIGN.md §14):
// registry unit tests for the epoch-versioned flight slot, a
// burst-of-identical-requests stress run driven through the service's
// on_cold_execute hook (run under TSan in CI's serve leg), the
// PutTable-races-a-flight regression, and the serve-level gates that pin
// cold responses — pipelined and row-selection-sourced — to the row
// oracle bit for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.h"
#include "serve/coalesce.h"
#include "serve/service.h"
#include "storage/table.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

using Kind = CoalesceTicket::Kind;

std::shared_ptr<const CachedCategorization> MakePayload() {
  auto schema = Schema::Create(
      {ColumnDef("x", ValueType::kInt64, ColumnKind::kNumeric)});
  EXPECT_TRUE(schema.ok());
  auto built = CachedCategorization::Build(
      Table(std::move(schema).value()),
      [](const Table& t) -> Result<CategoryTree> {
        return CategoryTree(&t);
      });
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

// ------------------------------------------------------- registry units

TEST(CoalescingRegistryTest, LeaderThenFollowerSharesThePublishedPayload) {
  CoalescingRegistry registry;
  const CoalesceTicket leader = registry.JoinOrLead("k", 7);
  ASSERT_EQ(leader.kind, Kind::kLeader);
  ASSERT_NE(leader.flight, nullptr);
  EXPECT_EQ(leader.flight->epoch, 7u);

  const CoalesceTicket follower = registry.JoinOrLead("k", 7);
  ASSERT_EQ(follower.kind, Kind::kFollower);
  EXPECT_EQ(follower.flight, leader.flight);

  const auto payload = MakePayload();
  {
    PublishGuard guard(&registry, "k", leader.flight);
    guard.Publish(Status::OK(), payload, 7);
  }
  const AwaitOutcome out = registry.Await(*follower.flight, -1);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.payload.get(), payload.get());
  EXPECT_EQ(out.computed_epoch, 7u);

  // Publishing releases the slot: the next arrival leads a fresh flight.
  const CoalesceTicket next = registry.JoinOrLead("k", 8);
  EXPECT_EQ(next.kind, Kind::kLeader);
  EXPECT_NE(next.flight, leader.flight);
  PublishGuard cleanup(&registry, "k", next.flight);
}

TEST(CoalescingRegistryTest, EpochMismatchStepsAsideInsteadOfFollowing) {
  CoalescingRegistry registry;
  const CoalesceTicket leader = registry.JoinOrLead("k", 1);
  ASSERT_EQ(leader.kind, Kind::kLeader);
  // A request that observed a different cache epoch must not share the
  // flight's result — it executes solo, uncoalesced.
  const CoalesceTicket solo = registry.JoinOrLead("k", 2);
  EXPECT_EQ(solo.kind, Kind::kSolo);
  EXPECT_EQ(solo.flight, nullptr);
  PublishGuard cleanup(&registry, "k", leader.flight);
}

TEST(CoalescingRegistryTest, AwaitTimesOutAndGuardAbortPublishesFailure) {
  CoalescingRegistry registry;
  const CoalesceTicket leader = registry.JoinOrLead("k", 1);
  const CoalesceTicket follower = registry.JoinOrLead("k", 1);
  ASSERT_EQ(follower.kind, Kind::kFollower);

  const AwaitOutcome timed_out = registry.Await(*follower.flight, 20);
  EXPECT_FALSE(timed_out.completed);

  // A leader that exits without publishing (error, retry-for-stats) must
  // wake its followers with a failure, not leave them blocked.
  { PublishGuard guard(&registry, "k", leader.flight); }
  const AwaitOutcome aborted = registry.Await(*follower.flight, -1);
  EXPECT_TRUE(aborted.completed);
  EXPECT_EQ(aborted.status.code(), StatusCode::kInternal);
  EXPECT_EQ(aborted.payload, nullptr);
}

TEST(CoalescingRegistryTest, WaitingGaugeTracksBlockedFollowers) {
  CoalescingRegistry registry;
  const CoalesceTicket leader = registry.JoinOrLead("k", 1);
  const CoalesceTicket follower = registry.JoinOrLead("k", 1);
  ASSERT_EQ(follower.kind, Kind::kFollower);
  EXPECT_EQ(registry.waiting(), 0u);

  std::future<AwaitOutcome> waiter = std::async(
      std::launch::async,
      [&registry, &follower] { return registry.Await(*follower.flight, -1); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry.waiting() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(registry.waiting(), 1u);

  const auto payload = MakePayload();
  {
    PublishGuard guard(&registry, "k", leader.flight);
    guard.Publish(Status::OK(), payload, 1);
  }
  const AwaitOutcome out = waiter.get();
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.payload.get(), payload.get());
  EXPECT_EQ(registry.waiting(), 0u);
}

// ------------------------------------------------------ service fixture

Schema HomesSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

Table HomesTable(size_t rows) {
  const char* kNeighborhoods[] = {"Redmond", "Bellevue", "Seattle",
                                  "Issaquah"};
  Table table(HomesSchema());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    .AppendRow({Value(kNeighborhoods[i % 4]),
                                Value(static_cast<int64_t>(
                                    150000 + 5000 * (i % 37))),
                                Value(static_cast<int64_t>(1 + i % 5))})
                    .ok());
  }
  return table;
}

Workload HomesWorkload() {
  const std::vector<std::string> sqls = {
      "SELECT * FROM Homes WHERE neighborhood = 'Redmond'",
      "SELECT * FROM Homes WHERE neighborhood IN ('Redmond', 'Bellevue')",
      "SELECT * FROM Homes WHERE price BETWEEN 150000 AND 250000",
      "SELECT * FROM Homes WHERE price <= 300000 AND bedroomcount >= 2",
      "SELECT * FROM Homes WHERE neighborhood = 'Seattle' AND price >= "
      "200000",
  };
  WorkloadParseReport report;
  Workload workload = Workload::Parse(sqls, HomesSchema(), &report);
  EXPECT_EQ(report.parsed, sqls.size());
  return workload;
}

std::unique_ptr<CategorizationService> MakeService(ServiceOptions options,
                                                   size_t rows = 40) {
  Database db;
  EXPECT_TRUE(db.RegisterTable("Homes", HomesTable(rows)).ok());
  if (options.stats.split_intervals.empty()) {
    options.stats.split_intervals["price"] = 5000;
  }
  return std::make_unique<CategorizationService>(
      std::move(db), HomesWorkload(), std::move(options));
}

// --------------------------------------------------- coalescing stress

TEST(ServiceCoalescingTest, BurstOfIdenticalRequestsCoalesces) {
  constexpr size_t kBurst = 8;
  CategorizationService* service_ptr = nullptr;
  std::atomic<int> cold_calls{0};
  ServiceOptions options;
  options.max_concurrent = kBurst;
  options.on_cold_execute = [&](const std::string&) {
    if (cold_calls.fetch_add(1) == 0) {
      // Leader: hold the execution open until every follower is parked
      // on the flight, so the burst coalesces deterministically.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < deadline &&
             service_ptr->SnapshotMetrics().coalescing_waiting <
                 kBurst - 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  auto service = MakeService(std::move(options));
  service_ptr = service.get();

  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  std::vector<std::future<Result<ServeResponse>>> futures;
  futures.reserve(kBurst);
  for (size_t i = 0; i < kBurst; ++i) {
    futures.push_back(std::async(std::launch::async, [&service, &request] {
      return service->Handle(request);
    }));
  }
  std::vector<ServeResponse> responses;
  for (auto& future : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    responses.push_back(std::move(response).value());
  }

  // One execution answered the whole burst with one shared payload.
  EXPECT_EQ(cold_calls.load(), 1);
  for (const ServeResponse& response : responses) {
    EXPECT_FALSE(response.cache_hit);
    EXPECT_EQ(response.payload.get(), responses.front().payload.get());
    EXPECT_EQ(response.signature, responses.front().signature);
  }
  const ServiceMetricsSnapshot snapshot = service->SnapshotMetrics();
  EXPECT_EQ(snapshot.coalesced_leaders, 1u);
  EXPECT_EQ(snapshot.coalesced_hits, kBurst - 1);
  EXPECT_EQ(snapshot.coalescing_waiting, 0u);

  // The leader inserted the entry: the next identical request plain-hits.
  auto hit = service->Handle(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
}

TEST(ServiceCoalescingTest, PutTableMidFlightForcesSoloRetry) {
  CategorizationService* service_ptr = nullptr;
  std::atomic<bool> armed{false};
  std::atomic<int> cold_calls{0};
  ServiceOptions options;
  options.on_cold_execute = [&](const std::string&) {
    if (!armed.load()) {
      return;
    }
    if (cold_calls.fetch_add(1) == 0) {
      // Leader: wait for the follower to park, then swap the table out
      // from under the flight. The leader's execution now runs under a
      // newer cache epoch than the flight was keyed on, so the follower
      // must refuse the published payload and retry solo.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < deadline &&
             service_ptr->SnapshotMetrics().coalescing_waiting < 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      service_ptr->PutTable("Homes", HomesTable(80));
    }
  };
  auto service = MakeService(std::move(options), /*rows=*/40);
  service_ptr = service.get();

  ServeRequest warm;
  warm.sql = "SELECT * FROM Homes WHERE price <= 160000";
  ASSERT_TRUE(service->Handle(warm).ok());
  armed.store(true);
  const ServiceMetricsSnapshot before = service->SnapshotMetrics();

  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE bedroomcount >= 1";
  auto a = std::async(std::launch::async, [&service, &request] {
    return service->Handle(request);
  });
  auto b = std::async(std::launch::async, [&service, &request] {
    return service->Handle(request);
  });
  const auto ra = a.get();
  const auto rb = b.get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();

  // Both answers must reflect the swapped-in 80-row table — a stale
  // coalesced payload would report the old 40 rows.
  EXPECT_EQ(ra->payload->result_rows(), 80u);
  EXPECT_EQ(rb->payload->result_rows(), 80u);

  const ServiceMetricsSnapshot snapshot = service->SnapshotMetrics();
  EXPECT_EQ(snapshot.coalesced_hits - before.coalesced_hits, 0u)
      << "a follower accepted a payload computed under a different epoch";
  // One flight, led once; its follower then ran solo.
  EXPECT_EQ(snapshot.coalesced_leaders - before.coalesced_leaders, 1u);
  EXPECT_EQ(cold_calls.load(), 2);
}

TEST(ServiceCoalescingTest, BypassCacheNeverCoalesces) {
  std::atomic<int> cold_calls{0};
  ServiceOptions options;
  options.on_cold_execute = [&](const std::string&) {
    cold_calls.fetch_add(1);
  };
  auto service = MakeService(std::move(options));

  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  request.bypass_cache = true;
  ASSERT_TRUE(service->Handle(request).ok());
  ASSERT_TRUE(service->Handle(request).ok());

  EXPECT_EQ(cold_calls.load(), 2);
  const ServiceMetricsSnapshot snapshot = service->SnapshotMetrics();
  EXPECT_EQ(snapshot.coalesced_leaders, 0u);
  EXPECT_EQ(snapshot.coalesced_hits, 0u);
}

// ------------------------------------------- served responses vs oracle

// Replays each request through the legacy row chain (equiv::ServeRows)
// and requires the pipelined response to match it bit for bit.
TEST(ServiceCoalescingTest, PipelineAndLegacyServeBitIdenticalResponses) {
  auto service = MakeService(ServiceOptions(), /*rows=*/150);
  const Table table = HomesTable(150);
  const Workload workload = HomesWorkload();

  const std::vector<std::string> sqls = {
      "SELECT * FROM Homes WHERE neighborhood = 'Redmond'",
      "SELECT * FROM Homes WHERE price BETWEEN 150000 AND 250000",
      "SELECT * FROM Homes WHERE price <= 300000 AND bedroomcount >= 2",
      "SELECT neighborhood, price FROM Homes WHERE bedroomcount >= 3",
      "SELECT * FROM Homes WHERE bedroomcount >= 99",  // empty result
  };
  for (const std::string& sql : sqls) {
    ServeRequest request;
    request.sql = sql;
    auto served = service->Handle(request);
    ASSERT_TRUE(served.ok()) << sql << ": " << served.status().ToString();
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const equiv::OracleResponse oracle,
        equiv::ServeRows(sql, table, workload, service->options()));
    equiv::ExpectServedMatchesOracle(served.value(), oracle, sql);
  }
  const ServiceMetricsSnapshot snapshot = service->SnapshotMetrics();
  EXPECT_EQ(snapshot.pipeline_requests, sqls.size());
  EXPECT_GT(snapshot.pipeline_morsels, 0u);
}

}  // namespace
}  // namespace autocat
