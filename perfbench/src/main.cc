// Serving benchmark for CategorizationService: one seeded workload per
// invocation, measured from outside the library.
//
//   perfbench --workload=cold_explore --seed=7 --seconds=25 --trace=0
//             --out_dir=DIR --data_dir=DIR [--golden=FILE] <workload params>
//
// --trace=0 times the workload untraced and reports the end-to-end metrics.
// --trace=1 runs a shorter untraced load, then replays the same requests
// one at a time through the library's public functions with a span around
// each call (the per-layer metrics) and through Handle, on a fresh
// service. Both modes check every response against the public-function
// replay, and against the recorded fingerprints for the default seed. The
// last line of standard output is the JSON result.
//
// perfbench/run.py builds this binary and supplies the parameters from
// perfbench/workloads.json; run that instead of calling this directly.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sys/prctl.h>

#include "bench.h"
#include "common/thread_pool.h"
#include "inputs.h"
#include "mirror.h"
#include "serve/service.h"
#include "store/store.h"

namespace perfbench {
namespace {

using autocat::CachedCategorization;
using autocat::CategorizationService;
using autocat::Result;
using autocat::Status;

/// Set-ups per end-to-end run; setup_s is their median.
constexpr size_t kSetupReps = 9;
/// The traced run's untraced load lasts this share of --seconds.
constexpr double kTraceLoadFrac = 0.35;
/// The open loop's closed-loop hit phase lasts this share of --seconds;
/// its client moves to the next core every kHitWindowS.
constexpr double kHitPhaseFrac = 0.1;
constexpr double kHitWindowS = 0.1;

// ---------------------------------------------------------------------------
// Per-request records and the output check.

struct Record {
  uint32_t sql = 0;
  bool ok = false;
  bool hit = false;
  uint64_t key_hash = 0;
  Fingerprint fp;
  size_t payload_bytes = 0;
  /// The table versions the response may reflect: a request that overlaps
  /// a refresh may have read either side of it.
  uint32_t version_lo = 0;
  uint32_t version_hi = 0;
  /// Time inside Handle.
  double service_ms = 0;
  /// From when the request was due: the scheduled send time of the open
  /// loop, the previous answer of the closed loop.
  double latency_ms = 0;
  /// Time from when the request was due until a client thread sent it.
  double wait_ms = 0;
  /// Open-loop rate segment (-1 = warm-up); 0 for closed loops.
  int segment = 0;
};

// Fingerprints are memoized per live payload: a cache hit shares the cold
// response's payload object, so only new payloads pay for TreeToJson.
class FingerprintMemo {
 public:
  Fingerprint Of(const std::shared_ptr<const CachedCategorization>& payload) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = memo_.find(payload.get());
      if (it != memo_.end() && !it->second.first.expired()) {
        return it->second.second;
      }
    }
    const Fingerprint fp = FingerprintOf(*payload);
    const std::lock_guard<std::mutex> lock(mu_);
    memo_[payload.get()] = {payload, fp};
    return fp;
  }

 private:
  std::mutex mu_;
  std::map<const CachedCategorization*,
           std::pair<std::weak_ptr<const CachedCategorization>, Fingerprint>>
      memo_;
};

void Fill(const Result<autocat::ServeResponse>& response,
          FingerprintMemo* memo, Record* record) {
  record->ok = response.ok();
  if (!response.ok()) {
    return;
  }
  record->hit = response.value().cache_hit;
  record->key_hash = autocat::SignatureHash(response.value().signature);
  record->fp = memo->Of(response.value().payload);
  record->payload_bytes = response.value().payload->approx_bytes();
}

using VersionKey = std::pair<uint32_t, uint64_t>;  // (table version, key)
using FingerprintMap = std::map<VersionKey, Fingerprint>;

// Opens the benchmark's table version `version` for a fresh database or
// mirror: a copy of the in-memory version, or the mapped store table.
Result<autocat::Table> LoadTable(const Inputs& in, size_t version,
                                 Tracer* tracer) {
  if (in.store_path.empty()) {
    return in.TableAt(version);
  }
  Result<autocat::SegmentStore> store = Status::Internal("unopened");
  {
    const SpanScope span(tracer, "store.open", 0);
    store = autocat::SegmentStore::Open(in.store_path);
  }
  AUTOCAT_RETURN_IF_ERROR(store.status());
  const SpanScope span(tracer, "store.open_table", 0);
  return store.value().OpenTable(kTableName);
}

// Reference fingerprints from the public-function replay, cache off, for
// every (version, sql) item; four threads per version.
Status ReferenceFingerprints(
    const Inputs& in,
    const std::map<uint32_t, std::vector<uint32_t>>& sqls_by_version,
    FingerprintMap* out) {
  for (const auto& [version, sqls] : sqls_by_version) {
    Mirror mirror(&in.log, in.options, nullptr);
    AUTOCAT_ASSIGN_OR_RETURN(autocat::Table table,
                             LoadTable(in, version, nullptr));
    mirror.SetTable(std::move(table));
    AUTOCAT_RETURN_IF_ERROR(mirror.Prepare());
    std::vector<Served> served(sqls.size());
    autocat::ParallelOptions parallel;
    parallel.threads = 4;
    AUTOCAT_RETURN_IF_ERROR(autocat::ParallelFor(
        parallel, 0, sqls.size(), 1,
        [&](size_t begin, size_t end) -> Status {
          for (size_t i = begin; i < end; ++i) {
            AUTOCAT_ASSIGN_OR_RETURN(
                served[i], mirror.Serve(in.sqls[sqls[i]], -1, false, nullptr));
          }
          return Status::OK();
        }));
    for (const Served& s : served) {
      (*out)[{version, s.key_hash}] = FingerprintOf(*s.payload);
    }
  }
  return Status::OK();
}

Result<FingerprintMap> LoadGolden(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("no golden fingerprints at " + path);
  }
  FingerprintMap golden;
  std::string line;
  while (std::getline(file, line)) {
    unsigned version = 0;
    unsigned long long key = 0;
    unsigned long long rows = 0;
    unsigned long long tree = 0;
    if (std::sscanf(line.c_str(), "%u %llx %llu %llx", &version, &key, &rows,
                    &tree) != 4) {
      return Status::ParseError("bad golden line: " + line);
    }
    golden[{version, key}] = Fingerprint{rows, tree};
  }
  return golden;
}

Status WriteGolden(const Inputs& in, const std::string& path) {
  std::set<uint32_t> used;
  for (const Event& event : in.stream) {
    used.insert(event.sql);
  }
  std::map<uint32_t, std::vector<uint32_t>> items;
  for (uint32_t v = 0; v < in.num_versions(); ++v) {
    items[v].assign(used.begin(), used.end());
  }
  FingerprintMap reference;
  AUTOCAT_RETURN_IF_ERROR(ReferenceFingerprints(in, items, &reference));
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot write " + path);
  }
  for (const auto& [key, fp] : reference) {
    std::fprintf(file, "%u %016" PRIx64 " %" PRIu64 " %016" PRIx64 "\n",
                 key.first, key.second, fp.rows, fp.tree);
  }
  std::fclose(file);
  std::printf("# wrote %zu golden fingerprints to %s\n", reference.size(),
              path.c_str());
  return Status::OK();
}

struct CheckResult {
  size_t checked = 0;
  size_t hits_checked = 0;
  size_t golden_checked = 0;
  std::vector<std::string> failures;
};

bool MatchesSome(const FingerprintMap& map, const Record& r, bool* found) {
  *found = false;
  for (uint32_t v = r.version_lo; v <= r.version_hi; ++v) {
    const auto it = map.find({v, r.key_hash});
    if (it != map.end()) {
      *found = true;
      if (it->second == r.fp) {
        return true;
      }
    }
  }
  return false;
}

// Every answered request against the reference replay of its table
// version(s), and against the recorded fingerprints when given.
CheckResult CheckRecords(const Inputs& in, const std::vector<Record>& records,
                         const FingerprintMap* golden) {
  CheckResult result;
  std::map<VersionKey, uint32_t> representative;
  for (const Record& r : records) {
    if (r.ok) {
      for (uint32_t v = r.version_lo; v <= r.version_hi; ++v) {
        representative.emplace(VersionKey{v, r.key_hash}, r.sql);
      }
    }
  }
  std::map<uint32_t, std::vector<uint32_t>> items;
  for (const auto& [key, sql] : representative) {
    items[key.first].push_back(sql);
  }
  FingerprintMap reference;
  if (Status s = ReferenceFingerprints(in, items, &reference); !s.ok()) {
    result.failures.push_back("reference replay: " + s.ToString());
    return result;
  }
  for (const Record& r : records) {
    if (!r.ok) {
      continue;
    }
    ++result.checked;
    result.hits_checked += r.hit ? 1 : 0;
    bool found = false;
    if (!MatchesSome(reference, r, &found)) {
      result.failures.push_back("response to '" + in.sqls[r.sql] +
                                "' differs from the reference replay");
    }
    if (golden != nullptr) {
      const bool match = MatchesSome(*golden, r, &found);
      result.golden_checked += found ? 1 : 0;
      if (!match) {
        result.failures.push_back(
            std::string(found ? "differs from" : "is missing in") +
            " the recorded fingerprints: '" + in.sqls[r.sql] + "'");
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Service set-up and the load loops.

// Reads a memory field of /proc/self/status, such as "VmRSS:" (resident
// now) or "VmHWM:" (peak resident since the last ResetPeakRss), in MiB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return 0;
}

// Returns freed heap to the system first, so the peak does not depend on
// how much of input generation's memory the allocator kept. Returns the
// resident set right after, which is what the held inputs take: the peak
// the run reports is above it.
double ResetPeakRss() {
  malloc_trim(0);
  {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
  }
  return StatusMb("VmRSS:");
}

struct SetUp {
  std::unique_ptr<CategorizationService> service;
  double seconds = 0;
  Record first;
};

// From table attach and service construction until the first request is
// answered (which pays the lazy columnar-shadow and WorkloadStats builds).
// Copying the generated inputs happens before the clock starts.
Result<SetUp> SetUpService(const Inputs& in, FingerprintMemo* memo,
                           Tracer* tracer) {
  autocat::Table table;
  if (in.store_path.empty()) {
    AUTOCAT_ASSIGN_OR_RETURN(table, in.TableAt(0));
  }
  autocat::Workload log = in.log;
  SetUp setup;
  const double start = NowS();
  if (!in.store_path.empty()) {
    AUTOCAT_ASSIGN_OR_RETURN(table, LoadTable(in, 0, tracer));
  }
  autocat::Database db;
  AUTOCAT_RETURN_IF_ERROR(db.RegisterTable(kTableName, std::move(table)));
  setup.service = std::make_unique<CategorizationService>(
      std::move(db), std::move(log), in.options);
  autocat::ServeRequest request;
  request.sql = in.sqls[in.stream.front().sql];
  Result<autocat::ServeResponse> response = Status::Internal("unsent");
  {
    const SpanScope span(tracer, "serve.handle", 0);
    response = setup.service->Handle(request);
  }
  setup.seconds = NowS() - start;
  AUTOCAT_RETURN_IF_ERROR(response.status());
  setup.first.sql = in.stream.front().sql;
  Fill(response, memo, &setup.first);
  return setup;
}

struct LoadResult {
  std::vector<Record> records;  ///< Stream positions 1..n, in order.
  double elapsed_s = 0;         ///< Measured wall time, checks excluded.
  std::vector<double> late_ms;  ///< How late the client sent each request.
  std::vector<double> refresh_ms;
  /// Stream position before which each refresh took effect, for replays.
  std::vector<size_t> refresh_at;
  std::vector<size_t> segment_backlog;
  autocat::ServiceMetricsSnapshot snapshot;
};

// Closed loop, one client: the next request is sent when the previous one
// is answered, from the next core. The time spent fingerprinting and
// moving is excluded from elapsed_s.
LoadResult RunClosedLoop(CategorizationService* service, const Inputs& in,
                         double seconds, FingerprintMemo* memo) {
  LoadResult load;
  CoreRotation cores;
  cores.Next();
  const double begin = NowS();
  double check_s = 0;
  for (size_t i = 1; i < in.stream.size() && NowS() - begin < seconds; ++i) {
    Record record;
    record.sql = in.stream[i].sql;
    autocat::ServeRequest request;
    request.sql = in.sqls[record.sql];
    const double ready = NowS();
    const double start = NowS();
    const Result<autocat::ServeResponse> response = service->Handle(request);
    const double end = NowS();
    record.service_ms = 1e3 * (end - start);
    record.latency_ms = 1e3 * (end - ready);
    record.wait_ms = 1e3 * (start - ready);
    Fill(response, memo, &record);
    load.late_ms.push_back(record.wait_ms);
    load.records.push_back(record);
    cores.Next();
    check_s += NowS() - end;
  }
  load.elapsed_s = NowS() - begin - check_s;
  load.snapshot = service->SnapshotMetrics();
  return load;
}

// The open-loop schedule: a warm-up at the reference rate, a sweep of one
// segment per offered rate with no writes, then a write phase at the
// reference rate with evenly spaced listing refreshes (segment index
// rates.size()). Arrivals are evenly paced at the segment's rate, so tail
// latency comes from the service and not from arrival bursts; a
// duplicate burst shares its first request's time.
struct Slot {
  size_t position = 0;  ///< Stream position.
  double due_s = 0;     ///< Offset from the schedule start.
  int segment = 0;
};
struct Schedule {
  std::vector<Slot> slots;
  std::vector<double> refresh_due_s;
  std::vector<double> rates;
  double measured_from_s = 0;
  double write_from_s = 0;
  bool exhausted = false;
  int write_segment() const { return static_cast<int>(rates.size()); }
};

Schedule MakeSchedule(const Inputs& in, const Params& params,
                      double seconds) {
  Schedule schedule;
  schedule.rates = params.NumList("rates");
  const double ref_rate = params.Num("ref_rate");
  const double warmup_s = seconds * params.Num("warmup_frac");
  const double write_s = seconds * params.Num("write_frac");
  const double segment_s =
      (seconds - warmup_s - write_s) / schedule.rates.size();
  const double burst = 1.0 + params.Num("dup_prob") *
                                 (params.Num("dup_count") - 1);
  size_t position = 1;
  double t = 0;
  const auto fill = [&](double rate, double end, int segment) {
    while (position < in.stream.size()) {
      t += burst / rate;
      if (t >= end) {
        t = end;
        return;
      }
      schedule.slots.push_back({position++, t, segment});
      while (position < in.stream.size() &&
             in.stream[position].with_previous) {
        schedule.slots.push_back({position++, t, segment});
      }
    }
    schedule.exhausted = true;
  };
  fill(ref_rate, warmup_s, -1);
  schedule.measured_from_s = warmup_s;
  for (size_t s = 0; s < schedule.rates.size(); ++s) {
    fill(schedule.rates[s], warmup_s + (s + 1) * segment_s,
         static_cast<int>(s));
  }
  const double write_start = t;
  schedule.write_from_s = write_start;
  for (size_t k = 0; k < in.batches.size(); ++k) {
    schedule.refresh_due_s.push_back(write_start +
                                     (k + 0.5) * write_s / in.batches.size());
  }
  fill(ref_rate, write_start + write_s, schedule.write_segment());
  return schedule;
}

void SleepUntil(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t))));
}

// Open loop: `workers` client threads take the schedule's requests in
// order; each sleeps until its request is due (with the timer slack cut
// to a microsecond, so a send is late by the wake-up alone) and sends it
// through Handle. When every client is busy, the next request goes out
// late and its latency, which runs from the scheduled time, shows the
// wait. A refresher thread applies the refreshes (PutTable of the next
// table version) at their due times beside the reads. It copies each
// version from the inputs when the write phase starts or the previous
// refresh ends, outside refresh_ms, so at most one pending copy exists.
Result<LoadResult> RunOpenLoop(CategorizationService* service,
                               const Inputs& in, const Schedule& schedule,
                               size_t workers, FingerprintMemo* memo) {
  LoadResult load;
  for (double due_s : schedule.refresh_due_s) {
    // Replays apply the refresh before the first request due after it.
    const auto next = std::lower_bound(
        schedule.slots.begin(), schedule.slots.end(), due_s,
        [](const Slot& slot, double due) { return slot.due_s < due; });
    load.refresh_at.push_back(
        next == schedule.slots.end() ? in.stream.size() : next->position);
  }

  load.records.resize(schedule.slots.size());
  load.refresh_ms.resize(schedule.refresh_due_s.size());
  std::vector<double> late_ms(schedule.slots.size(), -1);
  std::atomic<size_t> next_slot{0};
  std::atomic<uint32_t> refreshes_started{0};
  std::atomic<uint32_t> refreshes_done{0};
  Status refresh_status;
  const double origin = NowS() + 0.01;
  const auto refresh = [&]() {
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    if (!schedule.refresh_due_s.empty()) {
      SleepUntil(origin + schedule.write_from_s);
    }
    for (size_t k = 0; k < schedule.refresh_due_s.size(); ++k) {
      Result<autocat::Table> table = in.TableAt(k + 1);
      if (!table.ok()) {
        refresh_status = table.status();
        return;
      }
      SleepUntil(origin + schedule.refresh_due_s[k]);
      refreshes_started.fetch_add(1);
      const double start = NowS();
      service->PutTable(kTableName, std::move(table).value());
      load.refresh_ms[k] = 1e3 * (NowS() - start);
      refreshes_done.fetch_add(1);
    }
  };
  const auto work = [&]() {
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    for (;;) {
      const size_t i = next_slot.fetch_add(1);
      if (i >= schedule.slots.size()) {
        return;
      }
      const double due = origin + schedule.slots[i].due_s;
      const bool waited = NowS() < due;
      if (waited) {
        SleepUntil(due);
      }
      Record& record = load.records[i];
      record.sql = in.stream[schedule.slots[i].position].sql;
      record.segment = schedule.slots[i].segment;
      autocat::ServeRequest request;
      request.sql = in.sqls[record.sql];
      record.version_lo = refreshes_done.load();
      const double start = NowS();
      const Result<autocat::ServeResponse> response =
          service->Handle(request);
      const double end = NowS();
      record.version_hi = refreshes_started.load();
      record.service_ms = 1e3 * (end - start);
      record.wait_ms = 1e3 * (start - due);
      // A request that found a client idle counts from its actual send:
      // the client's own wake-up delay is reported as generator lateness,
      // not charged to the service. One that waited for a busy client
      // counts from its due time, so the queueing shows.
      record.latency_ms = 1e3 * (end - (waited ? start : due));
      if (waited) {
        late_ms[i] = record.wait_ms;
      }
      Fill(response, memo, &record);
    }
  };
  // The clients are threads of their own, not tasks of the library's
  // shared pool: they sleep until each request is due and must not take
  // pool slots from the service they load.
  std::vector<std::thread> threads;
  threads.emplace_back(refresh);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back(work);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  AUTOCAT_RETURN_IF_ERROR(refresh_status);
  for (double late : late_ms) {
    if (late >= 0) {
      load.late_ms.push_back(late);
    }
  }
  // Requests due by each rate segment's end and not yet answered then.
  for (size_t s = 0; s < schedule.rates.size(); ++s) {
    double end = 0;
    for (const Slot& slot : schedule.slots) {
      if (slot.segment == static_cast<int>(s)) {
        end = slot.due_s;
      }
    }
    size_t backlog = 0;
    for (size_t i = 0; i < load.records.size(); ++i) {
      const double due = schedule.slots[i].due_s;
      backlog += due <= end && due + load.records[i].latency_ms / 1e3 > end;
    }
    load.segment_backlog.push_back(backlog);
  }
  load.snapshot = service->SnapshotMetrics();
  return load;
}

// The open loop's closed-loop hit phase, after its schedule: one client
// sends, back to back, every distinct query answered after the last
// refresh, each in turn and cycling. Every answer is cached for the
// current table version, so this times the hit path alone. Weighing the
// queries equally, not by their Zipf popularity, keeps a few hot sessions
// of one seed from deciding the rate, and one client keeps it from
// depending on how many cores the machine has free. The client moves to
// the next core every kHitWindowS (a move per request would cost more than
// a hit), so the rate is that of the cores alike. An untimed first pass
// records each query's payload; a timed response that is not a hit on that
// same payload is kept for the output check.
struct HitPhase {
  size_t attempted = 0;
  size_t failed = 0;
  size_t answered = 0;  ///< In the timed part.
  double elapsed_s = 0;
  /// Distinct queries the client cycles through.
  size_t queries = 0;
  /// The untimed pass and every unexpected timed response.
  std::vector<Record> records;
};

Result<HitPhase> RunHitPhase(CategorizationService* service,
                             const Inputs& in, const LoadResult& load,
                             double seconds, FingerprintMemo* memo) {
  const uint32_t version = static_cast<uint32_t>(load.refresh_ms.size());
  std::set<uint32_t> distinct;
  for (const Record& r : load.records) {
    if (r.ok && r.version_lo == version) {
      distinct.insert(r.sql);
    }
  }
  const std::vector<uint32_t> sqls(distinct.begin(), distinct.end());
  if (sqls.empty()) {
    return Status::Internal("no request was answered after the last refresh");
  }
  HitPhase phase;
  phase.queries = sqls.size();
  std::vector<std::shared_ptr<const CachedCategorization>> expected;
  const auto send = [&](uint32_t sql) {
    autocat::ServeRequest request;
    request.sql = in.sqls[sql];
    return service->Handle(request);
  };
  const auto record_of = [&](uint32_t sql,
                             const Result<autocat::ServeResponse>& response) {
    Record record;
    record.sql = sql;
    record.version_lo = record.version_hi = version;
    Fill(response, memo, &record);
    return record;
  };
  for (uint32_t sql : sqls) {
    const Result<autocat::ServeResponse> response = send(sql);
    phase.records.push_back(record_of(sql, response));
    expected.push_back(response.ok() ? response.value().payload : nullptr);
  }

  phase.attempted = sqls.size();
  size_t i = 0;
  CoreRotation cores;
  for (size_t w = 0; w < static_cast<size_t>(seconds / kHitWindowS); ++w) {
    cores.Next();
    const double begin = NowS();
    double now = begin;
    for (; now - begin < kHitWindowS; now = NowS()) {
      const Result<autocat::ServeResponse> response = send(sqls[i]);
      phase.answered += response.ok() ? 1 : 0;
      if (!response.ok() || !response.value().cache_hit ||
          response.value().payload != expected[i]) {
        phase.records.push_back(record_of(sqls[i], response));
      }
      ++phase.attempted;
      i = (i + 1) % sqls.size();
    }
    phase.elapsed_s += now - begin;
  }
  for (const Record& r : phase.records) {
    phase.failed += r.ok ? 0 : 1;
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
  /// In the result line, not only printed.
  bool gated = true;
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 size_t attempted, size_t failed) {
  for (const Metric& m : metrics) {
    std::printf("# %-28s %14.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.gated) {
      continue;
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + FormatDouble(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::string Samples(size_t n) { return "n=" + std::to_string(n); }

std::vector<double> ServiceTimes(const std::vector<Record>& records,
                                 bool (*keep)(const Record&)) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (keep(r)) {
      out.push_back(r.service_ms);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The two run modes.

struct Run {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  Params params;
  const Inputs* in = nullptr;
  const FingerprintMap* golden = nullptr;
  std::string out_dir;
};

bool IsOpenLoop(const Run& run) { return run.workload == "session_mix"; }

Result<LoadResult> RunLoad(const Run& run, CategorizationService* service,
                           double seconds, FingerprintMemo* memo,
                           Schedule* schedule) {
  if (!IsOpenLoop(run)) {
    return RunClosedLoop(service, *run.in, seconds, memo);
  }
  *schedule = MakeSchedule(*run.in, run.params, seconds);
  return RunOpenLoop(service, *run.in, *schedule,
                     run.params.Size("workers"), memo);
}

std::vector<std::string> WorkloadChecks(const Run& run,
                                        const std::vector<Record>& records) {
  std::vector<std::string> failures;
  if (run.workload == "cold_explore") {
    for (const Record& r : records) {
      if (r.ok && r.hit) {
        failures.push_back("cold_explore served a cache hit");
        break;
      }
    }
  }
  return failures;
}

int Finish(const std::vector<Metric>& metrics, CheckResult check,
           const std::vector<std::string>& extra_failures, size_t attempted,
           size_t failed) {
  check.failures.insert(check.failures.end(), extra_failures.begin(),
                        extra_failures.end());
  std::printf("# output check: %zu responses against the reference replay "
              "(%zu hits), %zu against recorded fingerprints\n",
              check.checked, check.hits_checked, check.golden_checked);
  for (size_t i = 0; i < check.failures.size() && i < 10; ++i) {
    std::printf("# CHECK FAILED: %s\n", check.failures[i].c_str());
  }
  const bool correct = check.failures.empty();
  PrintResult(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

int RunEndToEnd(const Run& run) {
  const Inputs& in = *run.in;
  FingerprintMemo memo;
  const double inputs_rss_mb = ResetPeakRss();
  std::vector<double> setup_s;
  SetUp setup;
  {
    CoreRotation cores;  // Each set-up on the next core.
    for (size_t r = 0; r < kSetupReps; ++r) {
      cores.Next();
      setup = SetUp();  // Tear the previous service down first.
      Result<SetUp> made = SetUpService(in, &memo, nullptr);
      if (!made.ok()) {
        std::fprintf(stderr, "setup: %s\n", made.status().ToString().c_str());
        return 1;
      }
      setup = std::move(made).value();
      setup_s.push_back(setup.seconds);
    }
  }
  Schedule schedule;
  Result<LoadResult> loaded = RunLoad(
      run, setup.service.get(),
      IsOpenLoop(run) ? run.seconds * (1 - kHitPhaseFrac) : run.seconds,
      &memo, &schedule);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  LoadResult& load = loaded.value();
  HitPhase hit_phase;
  if (IsOpenLoop(run)) {
    Result<HitPhase> phase = RunHitPhase(setup.service.get(), in, load,
                                         run.seconds * kHitPhaseFrac, &memo);
    if (!phase.ok()) {
      std::fprintf(stderr, "hit phase: %s\n",
                   phase.status().ToString().c_str());
      return 1;
    }
    hit_phase = std::move(phase).value();
  }
  const double peak_rss_mb = StatusMb("VmHWM:") - inputs_rss_mb;

  // Service times come from every closed-loop request and from the open
  // loop's warm-up and rate sweep. The open loop's write phase is reported
  // on its own: each refresh stalls every client for a few hundred
  // milliseconds, which would otherwise decide the tail percentiles by
  // itself. The open loop's answered rate is the schedule's offered rate,
  // so its throughput is that of the closed-loop hit phase.
  const int write_segment = IsOpenLoop(run) ? schedule.write_segment() : -2;
  std::vector<Record> measured;
  const size_t attempted = load.records.size() + hit_phase.attempted;
  size_t failed = hit_phase.failed;
  for (const Record& r : load.records) {
    failed += r.ok ? 0 : 1;
    if (r.segment != write_segment) {
      measured.push_back(r);
    }
  }
  const std::vector<double> cold =
      ServiceTimes(measured, [](const Record& r) { return r.ok && !r.hit; });
  const std::vector<double> hit =
      ServiceTimes(measured, [](const Record& r) { return r.ok && r.hit; });

  // Gated metrics are in the result line and BENCHMARK.json; every
  // workload has them, and their run-to-run spread fits their bounds. The
  // rest are printed by name with their unit for reading.
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", Median(setup_s), "s",
                     "median of " + std::to_string(kSetupReps) + " set-ups"});
  if (IsOpenLoop(run)) {
    metrics.push_back({"throughput_rps",
                       hit_phase.answered / hit_phase.elapsed_s, "req/s",
                       Samples(hit_phase.answered) +
                           " hit-phase answers, 1 client over " +
                           std::to_string(hit_phase.queries) +
                           " cached queries"});
  } else {
    metrics.push_back({"throughput_rps",
                       (load.records.size() - failed) / load.elapsed_s,
                       "req/s",
                       Samples(load.records.size() - failed) + " answered"});
  }
  metrics.push_back(
      {"cold_p50_ms", Percentile(cold, 50), "ms", Samples(cold.size())});
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB",
                     "VmHWM from set-up, above the " +
                         std::to_string(static_cast<int>(inputs_rss_mb)) +
                         " MiB the inputs hold"});
  metrics.push_back({"cold_p99_ms", Percentile(cold, 99), "ms",
                     Samples(cold.size()), false});
  metrics.push_back(
      {"hit_p50_ms", Percentile(hit, 50), "ms", Samples(hit.size()), false});
  metrics.push_back(
      {"hit_p99_ms", Percentile(hit, 99), "ms", Samples(hit.size()), false});
  metrics.push_back({"hit_ratio",
                     static_cast<double>(hit.size()) /
                         std::max<size_t>(1, hit.size() + cold.size()),
                     "ratio", "", false});
  metrics.push_back({"failed_frac",
                     attempted == 0 ? 0.0
                                    : static_cast<double>(failed) / attempted,
                     "ratio", Samples(attempted) + " attempted", false});
  if (IsOpenLoop(run)) {
    // all_*: every request of a rate segment, timed from its scheduled
    // send; a failed request counts as missing every limit.
    const double limit_ms = run.params.Num("latency_limit_ms");
    double max_ok = 0;
    for (size_t s = 0; s < schedule.rates.size(); ++s) {
      std::vector<double> seg;
      for (const Record& r : measured) {
        if (r.segment == static_cast<int>(s)) {
          seg.push_back(r.ok ? r.latency_ms : 1e12);
        }
      }
      const double rate = schedule.rates[s];
      const double p99 = Percentile(seg, 99);
      const bool ok = !seg.empty() && p99 <= limit_ms &&
                      load.segment_backlog[s] <= rate * limit_ms / 1e3;
      if (ok) {
        max_ok = std::max(max_ok, rate);
      }
      const std::string note =
          Samples(seg.size()) + " at " + FormatDouble(rate) +
          " req/s, backlog at end " +
          std::to_string(load.segment_backlog[s]) +
          (ok ? "" : ", over the limit");
      if (rate == run.params.Num("ref_rate")) {
        metrics.push_back(
            {"all_p50_ms", Percentile(seg, 50), "ms", note, false});
        metrics.push_back({"all_p99_ms", p99, "ms", note, false});
      } else {
        metrics.push_back({"rate_" + FormatDouble(rate) + "_p99_ms", p99,
                           "ms", note, false});
      }
    }
    metrics.push_back({"max_rate_ok_rps", max_ok, "req/s",
                       "p99 limit " + FormatDouble(limit_ms) + " ms", false});
    metrics.push_back({"refresh_ms", Median(load.refresh_ms), "ms",
                       Samples(load.refresh_ms.size()), false});
    std::vector<double> writes;
    for (const Record& r : load.records) {
      if (r.segment == write_segment) {
        writes.push_back(r.ok ? r.latency_ms : 1e12);
      }
    }
    metrics.push_back({"write_phase_p99_ms", Percentile(writes, 99), "ms",
                       Samples(writes.size()) +
                           " at the reference rate with refreshes",
                       false});
    metrics.push_back({"generator.late_p99_ms", Percentile(load.late_ms, 99),
                       "ms", "", false});
  }
  metrics.push_back({"stream.exhausted",
                     static_cast<double>(schedule.exhausted ||
                                         load.records.size() + 1 >=
                                             in.stream.size()),
                     "bool", "1 = the run used every generated request",
                     false});

  std::vector<Record> all_records = load.records;
  all_records.push_back(setup.first);
  all_records.insert(all_records.end(), hit_phase.records.begin(),
                     hit_phase.records.end());
  std::vector<std::string> failures = WorkloadChecks(run, all_records);
  if (IsOpenLoop(run) &&
      Percentile(load.late_ms, 99) > run.params.Num("latency_limit_ms")) {
    failures.push_back("invalid run: the load generator fell behind");
  }
  setup = SetUp();  // Free the service before the reference replay.
  return Finish(metrics, CheckRecords(in, all_records, run.golden), failures,
                attempted, failed);
}

// The largest, over table versions, of the summed payload sizes of the
// distinct signatures the requests asked for: what a cache would need to
// hold every answer.
double WorkingSetMb(const std::vector<Record>& records) {
  std::map<VersionKey, size_t> payloads;
  for (const Record& r : records) {
    if (r.ok) {
      payloads[{r.version_lo, r.key_hash}] = r.payload_bytes;
    }
  }
  std::map<uint32_t, double> by_version;
  double largest = 0;
  for (const auto& [key, bytes] : payloads) {
    largest = std::max(largest, by_version[key.first] += bytes);
  }
  return largest / double(1 << 20);
}

// Aggregated spans of one name: calls, total and self time.
struct SpanTotals {
  size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

std::map<std::string, SpanTotals> Aggregate(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_s[static_cast<size_t>(span.parent)] += span.duration_s();
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_s += spans[i].duration_s();
    t.self_s += spans[i].duration_s() - child_s[i];
  }
  return totals;
}

Status WriteTrace(const std::string& path, const std::vector<Span>& spans,
                  const std::map<std::string, SpanTotals>& totals) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot write " + path);
  }
  std::fprintf(file, "{\"layers\": {");
  bool first = true;
  for (const auto& [name, t] : totals) {
    std::fprintf(file,
                 "%s\n  \"%s\": {\"calls\": %zu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(), t.count, 1e3 * t.total_s,
                 1e3 * t.self_s);
    first = false;
  }
  std::fprintf(file, "},\n\"spans\": [");
  const double origin = spans.empty() ? 0 : spans.front().start_s;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(file,
                 "%s\n  {\"name\": \"%s\", \"request\": %lld, \"parent\": %d, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",", spans[i].name,
                 static_cast<long long>(spans[i].request), spans[i].parent,
                 1e6 * (spans[i].start_s - origin),
                 1e6 * (spans[i].end_s - origin));
  }
  std::fprintf(file, "\n]}\n");
  std::fclose(file);
  return Status::OK();
}

// Sequential replay of stream positions [1, n) through Handle on a fresh
// service (refreshes applied at the same positions as in the load), with
// the public-function mirror interleaved when `mirror` is set.
struct Replay {
  std::vector<Record> records;
  std::vector<double> handle_ms;
  size_t mirror_hits = 0;
  double cache_peak_mb = 0;
  std::vector<std::string> failures;
  autocat::ServiceMetricsSnapshot snapshot;
};

Result<Replay> ReplaySequential(const Inputs& in, size_t n,
                                const std::vector<size_t>& refresh_at,
                                Tracer* tracer, Mirror* mirror,
                                ColdCounters* counters) {
  FingerprintMemo memo;
  AUTOCAT_ASSIGN_OR_RETURN(SetUp setup, SetUpService(in, &memo, tracer));
  Replay replay;
  replay.records.push_back(setup.first);
  const auto mirror_serve = [&](size_t position) -> Result<Served> {
    return mirror->Serve(in.sqls[in.stream[position].sql],
                         static_cast<int64_t>(position), true, counters);
  };
  if (mirror != nullptr) {
    AUTOCAT_ASSIGN_OR_RETURN(autocat::Table table, LoadTable(in, 0, tracer));
    mirror->SetTable(std::move(table));
    AUTOCAT_RETURN_IF_ERROR(mirror_serve(0).status());
  }
  size_t refreshes = 0;
  CoreRotation cores;  // As the closed loop, so their times compare.
  for (size_t position = 1; position < n && position < in.stream.size();
       ++position) {
    cores.Next();
    while (refreshes < refresh_at.size() && refresh_at[refreshes] <= position) {
      ++refreshes;
      AUTOCAT_ASSIGN_OR_RETURN(autocat::Table table,
                               in.TableAt(refreshes));
      if (mirror != nullptr) {
        mirror->SetTable(table);
      }
      const SpanScope span(tracer, "serve.put_table", -1);
      setup.service->PutTable(kTableName, std::move(table));
    }
    Record record;
    record.sql = in.stream[position].sql;
    record.version_lo = record.version_hi = static_cast<uint32_t>(refreshes);
    autocat::ServeRequest request;
    request.sql = in.sqls[record.sql];
    // Alternate which side runs first so neither always finds the other's
    // data in the CPU caches.
    Result<Served> mirrored = Status::Internal("not mirrored");
    if (mirror != nullptr && position % 2 == 1) {
      mirrored = mirror_serve(position);
    }
    Result<autocat::ServeResponse> response = Status::Internal("unsent");
    double start = 0;
    double end = 0;
    {
      const SpanScope span(tracer, "serve.handle",
                           static_cast<int64_t>(position));
      start = NowS();
      response = setup.service->Handle(request);
      end = NowS();
    }
    if (mirror != nullptr && position % 2 == 0) {
      mirrored = mirror_serve(position);
    }
    record.service_ms = record.latency_ms = 1e3 * (end - start);
    replay.handle_ms.push_back(record.service_ms);
    Fill(response, &memo, &record);
    replay.records.push_back(record);
    if (mirror == nullptr) {
      continue;
    }
    if (!mirrored.ok()) {
      replay.failures.push_back("replay of '" + request.sql +
                                "': " + mirrored.status().ToString());
      continue;
    }
    replay.mirror_hits += mirrored.value().hit ? 1 : 0;
    if (!record.ok || !(FingerprintOf(*mirrored.value().payload) == record.fp) ||
        mirrored.value().hit != record.hit) {
      replay.failures.push_back("Handle and the public-function replay "
                                "disagree on '" + request.sql + "'");
    }
    replay.cache_peak_mb =
        std::max(replay.cache_peak_mb,
                 mirror->cache().Stats().bytes / double(1 << 20));
  }
  replay.snapshot = setup.service->SnapshotMetrics();
  return replay;
}

int RunTraced(const Run& run) {
  const Inputs& in = *run.in;
  // 1. A shorter untraced load: the client-side and serving-layer counters
  //    (admission, coalescing, client wait, generator lateness) and the
  //    requests the replays below repeat.
  FingerprintMemo memo;
  Result<SetUp> setup = SetUpService(in, &memo, nullptr);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  Schedule schedule;
  Result<LoadResult> loaded =
      RunLoad(run, setup.value().service.get(),
              run.seconds * kTraceLoadFrac, &memo,
              &schedule);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const LoadResult& load = loaded.value();
  setup = Status::Internal("released");
  const size_t n = load.records.size() + 1;

  // 2. The untraced baseline for the trace overhead: the closed loop
  //    already is a sequential replay; the open loop gets one.
  std::vector<double> baseline_ms;
  for (const Record& r : load.records) {
    baseline_ms.push_back(r.service_ms);
  }
  if (IsOpenLoop(run)) {
    Result<Replay> plain =
        ReplaySequential(in, n, load.refresh_at, nullptr, nullptr, nullptr);
    if (!plain.ok()) {
      std::fprintf(stderr, "replay: %s\n", plain.status().ToString().c_str());
      return 1;
    }
    baseline_ms = plain.value().handle_ms;
  }

  // 3. The traced replay.
  Tracer tracer;
  ColdCounters counters;
  Mirror mirror(&in.log, in.options, &tracer);
  Result<Replay> traced =
      ReplaySequential(in, n, load.refresh_at, &tracer, &mirror, &counters);
  if (!traced.ok()) {
    std::fprintf(stderr, "traced replay: %s\n",
                 traced.status().ToString().c_str());
    return 1;
  }
  const Replay& replay = traced.value();
  const std::map<std::string, SpanTotals> totals = Aggregate(tracer.spans());
  const auto mean_of = [&](const char* name, double scale) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : scale * it->second.total_s / it->second.count;
  };
  // Handle time beyond the replayed layers, per replayed request (the
  // set-up request, which also builds the mirror's stats, is left out).
  double handle_s = 0;
  double replay_s = 0;
  size_t replayed = 0;
  for (const Span& span : tracer.spans()) {
    if (span.parent >= 0 || span.request <= 0) {
      continue;
    }
    if (std::strcmp(span.name, "serve.handle") == 0) {
      handle_s += span.duration_s();
      ++replayed;
    } else if (std::strcmp(span.name, "replay") == 0) {
      replay_s += span.duration_s();
    }
  }
  double baseline_sum = 0;
  for (double ms : baseline_ms) {
    baseline_sum += ms;
  }
  const double cold = std::max<double>(1, counters.cold);
  const double morsels = std::max<double>(1, counters.morsels);
  std::set<uint64_t> distinct;
  for (const Record& r : replay.records) {
    distinct.insert(r.key_hash);
  }
  const autocat::ServiceMetricsSnapshot& s = load.snapshot;
  const uint64_t misses =
      s.by_outcome[static_cast<size_t>(autocat::ServeOutcome::kMiss)];
  std::vector<double> wait_ms;
  for (const Record& r : load.records) {
    wait_ms.push_back(r.wait_ms);
  }

  std::vector<Metric> metrics = {
      {"categorize.ms", mean_of("core.categorize", 1e3), "ms",
       "mean per cold request"},
      {"categorize.rows_in", counters.rows_out / cold, "rows",
       "mean result rows categorized"},
      {"categorize.nodes", counters.tree_nodes / cold, "count",
       "mean tree nodes"},
      {"pipeline.filter_ms", counters.filter_ms / cold, "ms", ""},
      {"pipeline.gather_ms", counters.gather_ms / cold, "ms", ""},
      {"pipeline.attr_index_ms", counters.attr_index_ms / cold, "ms", ""},
      {"pipeline.rows_examined_per_out",
       counters.rows_examined / std::max<double>(1, counters.rows_out),
       "ratio", "rows of unpruned morsels per result row"},
      {"kernels.compile_us", mean_of("kernels.compile", 1e6), "us", ""},
      {"kernels.pruned_frac", counters.morsels_pruned / morsels, "ratio",
       Samples(counters.morsels) + " morsels"},
      {"kernels.all_pass_frac", counters.morsels_all_pass / morsels, "ratio",
       ""},
      {"kernels.simd_frac", counters.morsels_simd / morsels, "ratio", ""},
      {"columnar.build_ms", Median(counters.columnar_first_ms),
       "ms", "first ColumnarFor after each table load"},
      {"columnar.builds", static_cast<double>(counters.columnar_builds),
       "count", ""},
      {"stats.build_ms", mean_of("stats.build", 1e3), "ms", ""},
      {"stats.builds", static_cast<double>(counters.stats_builds), "count",
       ""},
      {"sql.parse_us", mean_of("sql.parse", 1e6), "us", ""},
      {"signature.canonicalize_us", mean_of("signature.canonicalize", 1e6),
       "us", ""},
      {"signature.distinct_ratio",
       distinct.size() / std::max<double>(1, replay.records.size()), "ratio",
       ""},
      {"cache.get_us", mean_of("cache.get", 1e6), "us", ""},
      {"cache.hit_ratio",
       replay.mirror_hits / std::max<double>(1, replayed), "ratio", ""},
      {"cache.evictions", static_cast<double>(replay.snapshot.cache.evictions),
       "count", ""},
      {"cache.invalidations",
       static_cast<double>(replay.snapshot.cache.invalidations), "count", ""},
      {"cache.oversized", static_cast<double>(replay.snapshot.cache.oversized),
       "count", ""},
      {"cache.peak_mb", replay.cache_peak_mb, "MiB",
       "capacity " + FormatDouble(in.options.cache.capacity_bytes /
                                  double(1 << 20)) + " MiB"},
      {"cache.working_set_mb", WorkingSetMb(replay.records), "MiB",
       "payloads of the distinct signatures of one table version"},
      {"coalesce.followers", static_cast<double>(s.coalesced_hits), "count",
       "from the untraced load"},
      {"coalesce.executed_ratio",
       misses == 0 ? 1.0
                   : static_cast<double>(misses - s.coalesced_hits) / misses,
       "ratio", "cold executions per cold-shaped request"},
      {"admission.queue_high_water",
       static_cast<double>(s.queue_depth_high_water), "count", ""},
      {"admission.rejected",
       static_cast<double>(
           s.by_outcome[static_cast<size_t>(autocat::ServeOutcome::kOverloaded)]),
       "count", ""},
      {"client.wait_p99_ms", Percentile(wait_ms, 99), "ms", ""},
      {"generator.late_p99_ms", Percentile(load.late_ms, 99), "ms", ""},
      {"service.overhead_us",
       replayed == 0 ? 0 : 1e6 * (handle_s - replay_s) / replayed, "us",
       "Handle minus the replayed layers, per request"},
      {"trace.overhead_frac",
       baseline_sum <= 0 ? 0 : 1e3 * handle_s / baseline_sum - 1, "ratio",
       "traced Handle time over the untraced run's"},
  };
  // The store layer exists only in store_large; elsewhere it reads 0.
  metrics.push_back({"store.open_ms", mean_of("store.open", 1e3), "ms", ""});
  metrics.push_back(
      {"store.open_table_ms", mean_of("store.open_table", 1e3), "ms", ""});
  metrics.push_back(
      {"store.region_mb", in.store_file_bytes / double(1 << 20), "MiB", ""});
  metrics.push_back({"store.load_s", in.store_load_s, "s",
                     "StoreWriter bulk load, before timing"});
  metrics.push_back(
      {"store.bytes_per_row",
       in.store_file_bytes / std::max<double>(1, in.store_rows), "bytes",
       ""});
  if (totals.count("serve.put_table") > 0) {
    metrics.push_back({"serve.put_table_ms", mean_of("serve.put_table", 1e3),
                       "ms", "", false});
  }
  std::printf("# accounting over %zu replayed requests: Handle %.4f ms = "
              "replayed layers %.4f ms + service overhead %.4f ms\n",
              replayed, 1e3 * handle_s / std::max<size_t>(1, replayed),
              1e3 * replay_s / std::max<size_t>(1, replayed),
              1e3 * (handle_s - replay_s) / std::max<size_t>(1, replayed));
  for (const auto& [name, t] : totals) {
    std::printf("#   span %-24s calls %7zu  total %10.3f ms  self %10.3f ms\n",
                name.c_str(), t.count, 1e3 * t.total_s, 1e3 * t.self_s);
  }
  const std::string trace_path = run.out_dir + "/trace-" + run.workload +
                                 "-" + std::to_string(run.seed) + ".json";
  if (Status w = WriteTrace(trace_path, tracer.spans(), totals); !w.ok()) {
    std::fprintf(stderr, "%s\n", w.ToString().c_str());
    return 1;
  }
  std::printf("# spans written to %s\n", trace_path.c_str());

  std::vector<Record> all_records = load.records;
  all_records.insert(all_records.end(), replay.records.begin(),
                     replay.records.end());
  std::vector<std::string> failures = WorkloadChecks(run, all_records);
  failures.insert(failures.end(), replay.failures.begin(),
                  replay.failures.end());
  size_t failed = 0;
  for (const Record& r : all_records) {
    failed += r.ok ? 0 : 1;
  }
  return Finish(metrics, CheckRecords(in, all_records, run.golden), failures,
                all_records.size(), failed);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Params flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "perfbench: expected --name=value, got '%s'\n",
                   arg.c_str());
      return 2;
    }
    flags.Set(arg.substr(2, eq - 2), arg.substr(eq + 1));
  }
  Run run;
  run.workload = flags.Str("workload");
  run.seed = flags.Size("seed");
  run.seconds = flags.Num("seconds");
  run.params = flags;
  run.out_dir = flags.Str("out_dir");

  const double gen_start = NowS();
  autocat::Result<Inputs> inputs =
      MakeInputs(run.workload, run.seed, run.params, flags.Str("data_dir"));
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  run.in = &inputs.value();
  std::printf("# %s seed %llu: %zu requests over %zu distinct queries, "
              "inputs generated in %.2f s\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              run.in->stream.size(), run.in->sqls.size(), NowS() - gen_start);

  if (flags.Has("record_golden")) {
    const autocat::Status s = WriteGolden(*run.in, flags.Str("record_golden"));
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }
  FingerprintMap golden;
  if (flags.Has("golden")) {
    autocat::Result<FingerprintMap> loaded = LoadGolden(flags.Str("golden"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    golden = std::move(loaded).value();
    run.golden = &golden;
  }
  const int code = flags.Num("trace") != 0 ? RunTraced(run) : RunEndToEnd(run);
  if (!run.in->store_path.empty()) {
    std::remove(run.in->store_path.c_str());
  }
  return code;
}
