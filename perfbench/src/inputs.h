// Seeded input generation for the three benchmark workloads. Everything
// the service later receives — the homes table, the refresh batches, the
// query log, the request stream and the store file — is generated here,
// before any timing starts, from the workload seed alone.
#ifndef AUTOCAT_PERFBENCH_SRC_INPUTS_H_
#define AUTOCAT_PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/result.h"
#include "serve/service.h"
#include "storage/table.h"
#include "workload/workload.h"

namespace perfbench {

inline constexpr char kTableName[] = "ListProperty";

/// One request of the stream. `with_previous` marks a duplicate sent at
/// the same instant as the request before it (a burst that coalescing
/// should collapse onto one cold execution).
struct Event {
  uint32_t sql = 0;
  bool with_previous = false;
};

struct Inputs {
  autocat::Schema schema;
  /// The paper-style query log the service preprocesses into WorkloadStats.
  autocat::Workload log;
  /// Production defaults; only sizes (cache capacity) are set, plus the
  /// paper's split-point grid, which is a property of the data.
  autocat::ServiceOptions options;

  /// In-memory workloads: version 0 of the table and the listing batches
  /// each refresh appends (version k = base + batches[0..k)).
  autocat::Table base;
  std::vector<std::vector<autocat::Row>> batches;

  /// Store workload: the segment store written for this seed.
  std::string store_path;
  double store_load_s = 0;
  uint64_t store_file_bytes = 0;
  uint64_t store_rows = 0;

  /// Distinct SQL texts and the request stream over them.
  std::vector<std::string> sqls;
  std::vector<Event> stream;

  size_t num_versions() const { return batches.size() + 1; }
  /// A fresh copy of table version `version`.
  autocat::Result<autocat::Table> TableAt(size_t version) const;
};

/// Generates the inputs of `workload` for `seed`; `data_dir` receives the
/// store file.
autocat::Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed,
                                   const Params& params,
                                   const std::string& data_dir);

}  // namespace perfbench

#endif  // AUTOCAT_PERFBENCH_SRC_INPUTS_H_
