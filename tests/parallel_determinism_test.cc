// Proves the tentpole determinism guarantee end to end: every parallel hot
// path — simgen row/query generation, workload parsing, count-table
// construction, cost-based tree building, and exhaustive enumeration —
// produces bit-identical output for threads in {1, 2, 7, 16}. threads=1 is
// the strictly sequential reference; 7 and 16 deliberately exceed typical
// chunk counts and core counts to force uneven work stealing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/categorizer.h"
#include "core/enumerate.h"
#include "simgen/geo.h"
#include "simgen/homes_generator.h"
#include "simgen/workload_generator.h"
#include "storage/table.h"
#include "test_util.h"
#include "workload/counts.h"
#include "workload/workload.h"
#include "workloadgen/session.h"
#include "workloadgen/traffic.h"

namespace autocat {
namespace {

const size_t kThreadCounts[] = {1, 2, 7, 16};

ParallelOptions Par(size_t threads) {
  ParallelOptions options;
  options.threads = threads;
  return options;
}

// Cell-by-cell fingerprint of a table; equal fingerprints mean equal
// rendered content in equal row order.
std::string TableFingerprint(const Table& table) {
  std::string out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      out += table.CellValue(r, c).ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

TEST(ParallelDeterminismTest, HomesTableIdenticalAtAnyThreadCount) {
  const Geography geo = Geography::UnitedStates();
  std::vector<std::string> fingerprints;
  for (const size_t threads : kThreadCounts) {
    HomesGeneratorConfig config;
    config.num_rows = 2500;  // spans multiple 1024-row chunks
    config.parallel = Par(threads);
    const HomesGenerator generator(&geo, config);
    auto table = generator.Generate();
    ASSERT_TRUE(table.ok());
    ASSERT_EQ(table.value().num_rows(), 2500u);
    fingerprints.push_back(TableFingerprint(table.value()));
  }
  ASSERT_FALSE(fingerprints[0].empty());
  for (size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[i], fingerprints[0])
        << "threads=" << kThreadCounts[i] << " diverged from threads=1";
  }
}

TEST(ParallelDeterminismTest, WorkloadSqlIdenticalAtAnyThreadCount) {
  const Geography geo = Geography::UnitedStates();
  std::vector<std::vector<std::string>> logs;
  for (const size_t threads : kThreadCounts) {
    WorkloadGeneratorConfig config;
    config.num_queries = 1000;  // spans multiple 256-query chunks
    config.parallel = Par(threads);
    const WorkloadGenerator generator(&geo, config);
    logs.push_back(generator.GenerateSql());
    ASSERT_EQ(logs.back().size(), 1000u);
  }
  for (size_t i = 1; i < logs.size(); ++i) {
    EXPECT_EQ(logs[i], logs[0])
        << "threads=" << kThreadCounts[i] << " diverged from threads=1";
  }
}

TEST(ParallelDeterminismTest, ParseReportIdenticalAtAnyThreadCount) {
  const Geography geo = Geography::UnitedStates();
  WorkloadGeneratorConfig config;
  config.num_queries = 600;
  const WorkloadGenerator generator(&geo, config);
  std::vector<std::string> sqls = generator.GenerateSql();
  // Inject malformed and unsupported queries at positions spanning several
  // parse chunks, so error counters and sample diagnostics must merge
  // across shard boundaries.
  for (const size_t pos : {3u, 250u, 257u, 512u, 599u}) {
    sqls.insert(sqls.begin() + pos, "SELECT FROM WHERE nonsense ((");
  }
  auto schema = HomesGenerator::ListPropertySchema();
  ASSERT_TRUE(schema.ok());

  std::vector<WorkloadParseReport> reports;
  std::vector<std::vector<std::string>> kept;
  for (const size_t threads : kThreadCounts) {
    WorkloadParseReport report;
    const Workload workload =
        Workload::Parse(sqls, schema.value(), &report, Par(threads));
    reports.push_back(report);
    std::vector<std::string> entry_sqls;
    for (const WorkloadEntry& entry : workload.entries()) {
      entry_sqls.push_back(entry.sql);
    }
    kept.push_back(std::move(entry_sqls));
  }
  ASSERT_EQ(reports[0].parse_errors, 5u);
  ASSERT_EQ(reports[0].parsed, 600u);
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].total, reports[0].total);
    EXPECT_EQ(reports[i].parsed, reports[0].parsed);
    EXPECT_EQ(reports[i].parse_errors, reports[0].parse_errors);
    EXPECT_EQ(reports[i].unsupported, reports[0].unsupported);
    EXPECT_EQ(reports[i].sample_errors, reports[0].sample_errors);
    EXPECT_EQ(kept[i], kept[0]);
  }
}

TEST(ParallelDeterminismTest, WorkloadStatsIdenticalAtAnyThreadCount) {
  const Geography geo = Geography::UnitedStates();
  WorkloadGeneratorConfig config;
  config.num_queries = 1500;  // spans multiple 512-entry count chunks
  const WorkloadGenerator generator(&geo, config);
  auto schema = HomesGenerator::ListPropertySchema();
  ASSERT_TRUE(schema.ok());
  auto workload = generator.Generate(schema.value(), nullptr);
  ASSERT_TRUE(workload.ok());

  WorkloadStatsOptions stats_options;
  stats_options.split_intervals = {
      {"price", 5000}, {"squarefootage", 100}, {"yearbuilt", 5},
      {"bedroomcount", 1}, {"bathcount", 1}};

  std::vector<std::string> fingerprints;
  for (const size_t threads : kThreadCounts) {
    auto stats = WorkloadStats::Build(workload.value(), schema.value(),
                                      stats_options, Par(threads));
    ASSERT_TRUE(stats.ok());
    std::string fp =
        TableFingerprint(stats.value().AttributeUsageCountsTable(
            schema.value()));
    auto occ = stats.value().OccurrenceCountsTable("neighborhood");
    ASSERT_TRUE(occ.ok());
    fp += TableFingerprint(occ.value());
    for (const char* attr : {"price", "squarefootage", "yearbuilt"}) {
      auto split = stats.value().SplitPointsTable(attr);
      ASSERT_TRUE(split.ok());
      fp += TableFingerprint(split.value());
    }
    fingerprints.push_back(std::move(fp));
  }
  ASSERT_FALSE(fingerprints[0].empty());
  for (size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[i], fingerprints[0])
        << "threads=" << kThreadCounts[i] << " diverged from threads=1";
  }
}

TEST(ParallelDeterminismTest, CostBasedTreeIdenticalAtAnyThreadCount) {
  // Full pipeline on a small instance: generated homes + workload, stats,
  // then a cost-based tree whose per-level candidate scoring runs at the
  // given thread count. The rendered trees must match byte for byte.
  const Geography geo = Geography::UnitedStates();
  HomesGeneratorConfig homes_config;
  homes_config.num_rows = 1500;
  const HomesGenerator homes_generator(&geo, homes_config);
  auto homes = homes_generator.Generate();
  ASSERT_TRUE(homes.ok());

  WorkloadGeneratorConfig workload_config;
  workload_config.num_queries = 1200;
  const WorkloadGenerator workload_generator(&geo, workload_config);
  auto workload =
      workload_generator.Generate(homes.value().schema(), nullptr);
  ASSERT_TRUE(workload.ok());

  WorkloadStatsOptions stats_options;
  stats_options.split_intervals = {
      {"price", 5000}, {"squarefootage", 100}, {"yearbuilt", 5},
      {"bedroomcount", 1}, {"bathcount", 1}};
  auto stats = WorkloadStats::Build(workload.value(),
                                    homes.value().schema(), stats_options);
  ASSERT_TRUE(stats.ok());

  std::vector<std::string> rendered;
  for (const size_t threads : kThreadCounts) {
    CategorizerOptions options;
    options.parallel = Par(threads);
    const CostBasedCategorizer categorizer(&stats.value(), options);
    auto tree = categorizer.Categorize(homes.value(), nullptr);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_GT(tree.value().num_nodes(), 1u);
    rendered.push_back(tree.value().Render(/*max_children=*/1000000,
                                           /*max_depth=*/0));
  }
  for (size_t i = 1; i < rendered.size(); ++i) {
    EXPECT_EQ(rendered[i], rendered[0])
        << "threads=" << kThreadCounts[i] << " diverged from threads=1";
  }
}

TEST(ParallelDeterminismTest, EnumerationIdenticalAtAnyThreadCount) {
  const Table homes = test::HomesTable({
      {"Ballard", 350000, 2},     {"Ballard", 420000, 3},
      {"Ballard", 510000, 3},     {"Fremont", 280000, 2, "Condo"},
      {"Fremont", 300000, 2},     {"Fremont", 460000, 4},
      {"Queen Anne", 700000, 4},  {"Queen Anne", 820000, 5},
      {"Queen Anne", 650000, 3},  {"Capitol Hill", 390000, 2, "Condo"},
      {"Capitol Hill", 450000, 3}, {"Capitol Hill", 520000, 3},
      {"Greenwood", 310000, 2},   {"Greenwood", 340000, 3},
      {"Greenwood", 370000, 3},   {"Ravenna", 480000, 3},
      {"Ravenna", 530000, 4},     {"Ravenna", 560000, 4},
      {"Laurelhurst", 900000, 5}, {"Laurelhurst", 980000, 5},
      {"Ballard", 400000, 2},     {"Fremont", 330000, 2},
      {"Queen Anne", 760000, 4},  {"Capitol Hill", 410000, 2},
      {"Greenwood", 355000, 3},   {"Ravenna", 505000, 3},
  });
  const WorkloadStats stats = test::StatsFromSql(
      {
          "SELECT * FROM homes WHERE price BETWEEN 300000 AND 400000",
          "SELECT * FROM homes WHERE price BETWEEN 400000 AND 500000",
          "SELECT * FROM homes WHERE price BETWEEN 500000 AND 600000",
          "SELECT * FROM homes WHERE neighborhood IN ('Ballard', 'Fremont')",
          "SELECT * FROM homes WHERE neighborhood = 'Queen Anne'",
          "SELECT * FROM homes WHERE bedroomcount BETWEEN 2 AND 3",
          "SELECT * FROM homes WHERE bedroomcount BETWEEN 3 AND 4",
          "SELECT * FROM homes WHERE price <= 450000",
      },
      /*price_interval=*/50000);

  struct Snapshot {
    double cost;
    std::vector<std::string> order;
    std::string tree;
  };
  std::vector<Snapshot> one_level;
  std::vector<Snapshot> orders;
  for (const size_t threads : kThreadCounts) {
    CategorizerOptions options;
    options.max_tuples_per_category = 4;
    options.parallel = Par(threads);
    auto best_one = EnumerateBestOneLevel(
        homes, {"neighborhood", "price", "bedroomcount"}, &stats, options,
        nullptr);
    ASSERT_TRUE(best_one.ok()) << best_one.status().ToString();
    one_level.push_back(Snapshot{best_one.value().cost,
                                 best_one.value().attribute_order,
                                 best_one.value().tree.Render(1000000, 0)});
    // Four candidates -> 64 orders, spanning several 16-order chunks.
    auto best_order = EnumerateBestAttributeOrder(
        homes, {"neighborhood", "price", "bedroomcount", "propertytype"},
        &stats, options, nullptr);
    ASSERT_TRUE(best_order.ok()) << best_order.status().ToString();
    orders.push_back(Snapshot{best_order.value().cost,
                              best_order.value().attribute_order,
                              best_order.value().tree.Render(1000000, 0)});
  }
  for (size_t i = 1; i < one_level.size(); ++i) {
    EXPECT_EQ(one_level[i].cost, one_level[0].cost);
    EXPECT_EQ(one_level[i].order, one_level[0].order);
    EXPECT_EQ(one_level[i].tree, one_level[0].tree);
    EXPECT_EQ(orders[i].cost, orders[0].cost);
    EXPECT_EQ(orders[i].order, orders[0].order);
    EXPECT_EQ(orders[i].tree, orders[0].tree);
  }
}

// Golden determinism for the session workload generator (src/workloadgen):
// the full session pool — ids, regions, mutation kinds, mutated
// attributes, and rendered SQL — is bit-identical for a fixed seed at
// every thread count, and across two independently constructed
// generators (no hidden state).
TEST(ParallelDeterminismTest, SessionPoolIdenticalAtAnyThreadCount) {
  const Geography geo = Geography::UnitedStates();
  DriftSpec drift;
  drift.position = 0.6;
  std::vector<std::string> fingerprints;
  for (const size_t threads : kThreadCounts) {
    SessionConfig config;
    config.num_sessions = 100;  // spans several 16-session chunks
    config.seed = 424207;
    config.parallel = Par(threads);
    const SessionGenerator generator(&geo, config);
    for (int run = 0; run < 2; ++run) {
      std::string fingerprint;
      for (const UserSession& session : generator.Generate(drift)) {
        fingerprint += std::to_string(session.id);
        fingerprint += '|';
        fingerprint += session.region;
        for (const SessionQuery& query : session.queries) {
          fingerprint += '|';
          fingerprint += std::to_string(query.step);
          fingerprint += ',';
          fingerprint += SessionMutationToString(query.mutation);
          fingerprint += ',';
          fingerprint += query.mutated_attribute;
          fingerprint += ',';
          fingerprint += query.sql;
        }
        fingerprint += '\n';
      }
      fingerprints.push_back(std::move(fingerprint));
    }
  }
  ASSERT_FALSE(fingerprints[0].empty());
  for (size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[i], fingerprints[0])
        << "threads=" << kThreadCounts[i / 2] << " run=" << i % 2
        << " diverged from threads=1 run=0";
  }
}

// The composed traffic stream (pools + Zipf picks + burst arrivals) is
// likewise bit-identical: phase composition is sequential by design, and
// the chunk-parallel pool generation underneath may not leak through.
TEST(ParallelDeterminismTest, TrafficStreamIdenticalAtAnyThreadCount) {
  const Geography geo = Geography::UnitedStates();
  std::vector<std::string> fingerprints;
  for (const size_t threads : kThreadCounts) {
    SessionConfig config;
    config.num_sessions = 64;
    config.seed = 77001;
    config.parallel = Par(threads);
    for (int run = 0; run < 2; ++run) {
      TrafficStream stream(&geo, config, 9090);
      PhaseSpec steady;
      steady.name = "steady";
      steady.requests = 300;
      steady.zipf_s = 1.0;
      PhaseSpec drifted;
      drifted.name = "drifted";
      drifted.requests = 300;
      drifted.zipf_s = 1.0;
      drifted.drift.position = 0.7;
      drifted.burst_size = 16;
      drifted.burst_pause_ms = 25;
      ASSERT_TRUE(stream.AddPhase(steady).ok());
      ASSERT_TRUE(stream.AddPhase(drifted).ok());
      std::string fingerprint;
      for (const TrafficEvent& event : stream.events()) {
        fingerprint += std::to_string(event.phase) + "," +
                       std::to_string(event.pool_key) + "," +
                       std::to_string(event.session) + "," +
                       std::to_string(event.step) + "," +
                       std::to_string(event.arrival_ms) + "|" +
                       stream.Sql(event) + "\n";
      }
      fingerprints.push_back(std::move(fingerprint));
    }
  }
  ASSERT_FALSE(fingerprints[0].empty());
  for (size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[i], fingerprints[0])
        << "threads=" << kThreadCounts[i / 2] << " run=" << i % 2
        << " diverged from threads=1 run=0";
  }
}

}  // namespace
}  // namespace autocat
