#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/random.h"
#include "serve/signature.h"
#include "simgen/geo.h"
#include "simgen/homes_generator.h"
#include "simgen/study.h"
#include "simgen/workload_generator.h"
#include "sql/parser.h"
#include "store/writer.h"
#include "workloadgen/traffic.h"

namespace perfbench {

using autocat::Result;
using autocat::Row;
using autocat::Status;
using autocat::Table;

namespace {

// Independent derived streams of the workload seed.
constexpr uint64_t kHomesStream = 1;
constexpr uint64_t kLogStream = 2;
constexpr uint64_t kBatchStream = 3;
constexpr uint64_t kSessionStream = 4;
constexpr uint64_t kRequestStream = 5;

// Input generation may use every core; the timed load never runs here.
autocat::ParallelOptions GenerationThreads() {
  autocat::ParallelOptions parallel;
  parallel.threads = 4;
  return parallel;
}

Result<Table> GenerateHomes(const autocat::Geography& geo, size_t rows,
                            uint64_t seed) {
  autocat::HomesGeneratorConfig config;
  config.num_rows = rows;
  config.seed = seed;
  config.parallel = GenerationThreads();
  return autocat::HomesGenerator(&geo, config).Generate();
}

// The canonical cache key the service would give `sql`.
Result<std::string> CanonicalKey(const std::string& sql,
                                 const autocat::Schema& schema,
                                 const autocat::SignatureOptions& signature) {
  AUTOCAT_ASSIGN_OR_RETURN(const autocat::SelectQuery query,
                           autocat::ParseQuery(sql));
  AUTOCAT_ASSIGN_OR_RETURN(autocat::CanonicalQuery canonical,
                           autocat::CanonicalizeQuery(query, schema,
                                                      signature));
  return std::move(canonical.key);
}

// Log queries, first occurrence of each canonical signature, in log order;
// with `selective`, only those that bound price and name neighborhoods.
Result<std::vector<std::string>> DistinctLogQueries(const Inputs& in,
                                                    size_t limit,
                                                    bool selective) {
  autocat::SignatureOptions signature;
  signature.bucket_widths = in.options.stats.split_intervals;
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const autocat::WorkloadEntry& entry : in.log.entries()) {
    if (out.size() >= limit) {
      break;
    }
    if (selective && (entry.profile.Find("price") == nullptr ||
                      entry.profile.Find("neighborhood") == nullptr)) {
      continue;
    }
    AUTOCAT_ASSIGN_OR_RETURN(std::string key,
                             CanonicalKey(entry.sql, in.schema, signature));
    if (seen.insert(std::move(key)).second) {
      out.push_back(entry.sql);
    }
  }
  return out;
}

void SetSequentialStream(Inputs* in) {
  in->stream.clear();
  for (uint32_t i = 0; i < in->sqls.size(); ++i) {
    in->stream.push_back(Event{i, false});
  }
}

// Stream of session traffic: Zipf-skewed refine/relax/pivot sessions from
// src/workloadgen, with seeded duplicate bursts. Sized to cover the whole
// open-loop schedule (warm-up, rate sweep and write phase) of a run of
// `stream_seconds` with margin, so that the stream, and the recorded
// fingerprints of the default seed, do not depend on the run length.
Status MakeSessionStream(const autocat::Geography& geo, uint64_t seed,
                         const Params& params, Inputs* in) {
  const double seconds = params.Num("stream_seconds");
  const std::vector<double> rates = params.NumList("rates");
  const double warmup_s = seconds * params.Num("warmup_frac");
  const double write_s = seconds * params.Num("write_frac");
  const double segment_s = (seconds - warmup_s - write_s) / rates.size();
  double expected = params.Num("ref_rate") * (warmup_s + write_s);
  for (double rate : rates) {
    expected += rate * segment_s;
  }
  const size_t dup_count = params.Size("dup_count");
  const double dup_prob = params.Num("dup_prob");
  const size_t arrivals = static_cast<size_t>(
      std::ceil(1.3 * expected / (1.0 + dup_prob * (dup_count - 1)))) + 64;

  autocat::SessionConfig sessions;
  sessions.num_sessions = params.Size("sessions");
  sessions.seed = autocat::SplitMixSeed(seed, kSessionStream);
  sessions.parallel = GenerationThreads();
  autocat::TrafficStream traffic(&geo, sessions, seed);
  autocat::PhaseSpec phase;
  phase.name = "session_mix";
  phase.requests = arrivals;
  phase.zipf_s = params.Num("zipf");
  AUTOCAT_RETURN_IF_ERROR(traffic.AddPhase(phase));

  autocat::Random rng(autocat::SplitMixSeed(seed, kRequestStream));
  std::map<std::string, uint32_t> ids;
  for (const autocat::TrafficEvent& event : traffic.events()) {
    const std::string& sql = traffic.Sql(event);
    auto [it, inserted] =
        ids.emplace(sql, static_cast<uint32_t>(in->sqls.size()));
    if (inserted) {
      in->sqls.push_back(sql);
    }
    in->stream.push_back(Event{it->second, false});
    if (rng.Bernoulli(dup_prob)) {
      for (size_t d = 1; d < dup_count; ++d) {
        in->stream.push_back(Event{it->second, true});
      }
    }
  }
  return Status::OK();
}

// Writes the price-sorted store through the streaming bulk loader and
// returns every listing's price.
Result<std::vector<int64_t>> WriteStore(const autocat::Geography& geo,
                                        uint64_t seed, size_t rows,
                                        Inputs* in) {
  autocat::HomesGeneratorConfig config;
  config.num_rows = rows;
  config.seed = autocat::SplitMixSeed(seed, kHomesStream);
  config.parallel = GenerationThreads();
  const autocat::HomesGenerator generator(&geo, config);
  autocat::StoreWriterOptions options;
  options.sort_columns = {"price"};
  const double start = NowS();
  AUTOCAT_ASSIGN_OR_RETURN(
      std::unique_ptr<autocat::StoreWriter> writer,
      autocat::StoreWriter::Create(in->store_path, options));
  AUTOCAT_RETURN_IF_ERROR(writer->BeginTable(kTableName, in->schema));
  AUTOCAT_ASSIGN_OR_RETURN(const size_t price, in->schema.ColumnIndex("price"));
  std::vector<int64_t> prices;
  AUTOCAT_RETURN_IF_ERROR(generator.StreamRows(
      [&writer, &prices, price](std::vector<Row> chunk) -> Status {
        for (Row& row : chunk) {
          prices.push_back(row[price].int64_value());
          AUTOCAT_RETURN_IF_ERROR(writer->Append(std::move(row)));
        }
        return Status::OK();
      }));
  AUTOCAT_RETURN_IF_ERROR(writer->FinishTable());
  AUTOCAT_RETURN_IF_ERROR(writer->Finish());
  in->store_load_s = NowS() - start;
  in->store_file_bytes = writer->stats().file_bytes;
  in->store_rows = writer->stats().rows;
  return prices;
}

// Selective price windows of similar size. The service snaps range ends
// outward to the price bucket grid, so each window starts and ends on it
// and spans as many buckets as it takes to cover between range_rows_min
// and range_rows_max listings. Windows start at stratified ranks above the
// range_rank_min quantile, where one bucket holds fewer listings than a
// window. The store is sorted by price, so zone maps prune every morsel
// outside the window; windows of similar size keep the cost of a window
// request, and so its median, steady across seeds.
std::vector<std::string> PriceRangeQueries(uint64_t seed, size_t count,
                                           std::vector<int64_t> prices,
                                           double bucket,
                                           const Params& params) {
  autocat::Random rng(autocat::SplitMixSeed(seed, kRequestStream));
  std::sort(prices.begin(), prices.end());
  const int64_t rows_min = static_cast<int64_t>(params.Size("range_rows_min"));
  const int64_t rows_max = static_cast<int64_t>(params.Size("range_rows_max"));
  const double first_rank =
      params.Num("range_rank_min") * static_cast<double>(prices.size());
  const double slice =
      (static_cast<double>(prices.size() - static_cast<size_t>(rows_max)) -
       first_rank) /
      static_cast<double>(count);
  std::vector<std::string> out;
  for (size_t i = 0; i < count; ++i) {
    const size_t start = static_cast<size_t>(
        first_rank + (i + rng.UniformReal(0, 1)) * slice);
    const double lo = bucket * std::floor(prices[start] / bucket);
    const size_t first = static_cast<size_t>(
        std::lower_bound(prices.begin(), prices.end(),
                         static_cast<int64_t>(lo)) -
        prices.begin());
    const size_t last = std::min(
        prices.size() - 1,
        first + static_cast<size_t>(rng.Uniform(rows_min, rows_max)) - 1);
    const double hi = bucket * std::ceil(prices[last] / bucket);
    char sql[160];
    std::snprintf(sql, sizeof(sql),
                  "SELECT * FROM ListProperty WHERE price BETWEEN %.0f AND "
                  "%.0f",
                  lo, hi);
    out.emplace_back(sql);
  }
  return out;
}

}  // namespace

Result<Table> Inputs::TableAt(size_t version) const {
  Table table = base;
  for (size_t b = 0; b < version && b < batches.size(); ++b) {
    AUTOCAT_RETURN_IF_ERROR(table.AppendRows(batches[b]));
  }
  return table;
}

Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed,
                          const Params& params,
                          const std::string& data_dir) {
  Inputs in;
  const autocat::Geography geo = autocat::Geography::UnitedStates();
  AUTOCAT_ASSIGN_OR_RETURN(in.schema,
                           autocat::HomesGenerator::ListPropertySchema());
  in.options.stats = autocat::DefaultStudyConfig().stats;
  in.options.cache.capacity_bytes =
      static_cast<size_t>(params.Num("cache_mb") * (1 << 20));

  autocat::WorkloadGeneratorConfig log_config;
  log_config.num_queries = params.Size("log_queries");
  log_config.seed = autocat::SplitMixSeed(seed, kLogStream);
  log_config.parallel = GenerationThreads();
  AUTOCAT_ASSIGN_OR_RETURN(
      in.log, autocat::WorkloadGenerator(&geo, log_config)
                  .Generate(in.schema, nullptr));

  if (workload == "cold_explore") {
    AUTOCAT_ASSIGN_OR_RETURN(
        in.base, GenerateHomes(geo, params.Size("rows"),
                               autocat::SplitMixSeed(seed, kHomesStream)));
    AUTOCAT_ASSIGN_OR_RETURN(in.sqls,
                             DistinctLogQueries(in, params.Size("requests"), false));
    SetSequentialStream(&in);
  } else if (workload == "session_mix") {
    AUTOCAT_ASSIGN_OR_RETURN(
        in.base, GenerateHomes(geo, params.Size("rows"),
                               autocat::SplitMixSeed(seed, kHomesStream)));
    const size_t refreshes = params.Size("refreshes");
    const size_t batch_rows = params.Size("refresh_rows");
    AUTOCAT_ASSIGN_OR_RETURN(
        Table listings,
        GenerateHomes(geo, refreshes * batch_rows,
                      autocat::SplitMixSeed(seed, kBatchStream)));
    for (size_t b = 0; b < refreshes; ++b) {
      std::vector<Row> batch;
      for (size_t r = b * batch_rows; r < (b + 1) * batch_rows; ++r) {
        batch.push_back(listings.row(r));
      }
      in.batches.push_back(std::move(batch));
    }
    AUTOCAT_RETURN_IF_ERROR(
        MakeSessionStream(geo, seed, params, &in));
  } else if (workload == "store_large") {
    in.store_path = data_dir + "/store_large-" + std::to_string(seed) +
                    ".store";
    AUTOCAT_ASSIGN_OR_RETURN(std::vector<int64_t> prices,
                             WriteStore(geo, seed, params.Size("rows"), &in));
    in.sqls = PriceRangeQueries(seed, params.Size("range_queries"),
                                std::move(prices),
                                in.options.stats.split_intervals.at("price"),
                                params);
    AUTOCAT_ASSIGN_OR_RETURN(
        const std::vector<std::string> logged,
        DistinctLogQueries(in, params.Size("log_requests"), true));
    in.sqls.insert(in.sqls.end(), logged.begin(), logged.end());
    // Passes over the pool, each in a fresh seeded order: every query
    // recurs about once per pass, after the small cache has evicted most
    // of what it held, so it usually misses again.
    autocat::Random rng(autocat::SplitMixSeed(seed, kRequestStream + 1));
    std::vector<uint32_t> order(in.sqls.size());
    for (uint32_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    while (in.stream.size() < params.Size("requests")) {
      rng.Shuffle(order);
      for (uint32_t sql : order) {
        in.stream.push_back(Event{sql, false});
      }
    }
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  return in;
}

}  // namespace perfbench
