#ifndef AUTOCAT_WORKLOAD_COUNTS_H_
#define AUTOCAT_WORKLOAD_COUNTS_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/value.h"
#include "sql/selection.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "workload/workload.h"

namespace autocat {

/// Configuration of the workload-preprocessing phase (Section 5).
struct WorkloadStatsOptions {
  /// Split-point separation interval per numeric attribute (lowercase
  /// name). The paper uses 5000 for price, 100 for square footage and 5
  /// for year-built.
  std::map<std::string, double> split_intervals;
  /// Interval used for numeric attributes not listed above.
  double default_split_interval = 1.0;
};

/// One potential split point with its workload counts (Figure 5(b)):
/// `start` ranges begin here, `end` ranges end here; goodness score is
/// SUM(start, end).
struct SplitPoint {
  double v = 0;
  size_t start = 0;
  size_t end = 0;
  size_t goodness() const { return start + end; }
};

/// The preprocessed workload statistics of Section 4.2 / Section 5: the
/// AttributeUsageCounts table, one OccurrenceCounts table per categorical
/// attribute, and one SplitPoints table per numeric attribute, with the
/// indexed lookups the categorizer needs at query time.
///
/// Numeric range endpoints are snapped outward to the attribute's
/// split-point grid (floor for lows, ceil for highs); unbounded ends are
/// kept as ±infinity. Range-overlap counts are answered exactly from
/// prefix sums over the grid in O(log #points).
class WorkloadStats {
 public:
  /// Scans `workload` once and builds all count structures. The scan is
  /// spread over `parallel.threads` threads in fixed-size entry chunks;
  /// each chunk accumulates into a private shard and shards are merged in
  /// chunk order, so every count table (and the order of stored raw
  /// conditions) is identical at any thread count. Must not be called
  /// from inside a ParallelFor region.
  static Result<WorkloadStats> Build(const Workload& workload,
                                     const Schema& schema,
                                     const WorkloadStatsOptions& options,
                                     const ParallelOptions& parallel = {});

  /// Total number of (usable) workload queries: the `N` of Section 4.2.
  size_t num_queries() const { return num_queries_; }

  /// NAttr(A): number of queries with a selection condition on `attribute`.
  size_t AttrUsageCount(std::string_view attribute) const;

  /// NAttr(A)/N, or 0 when the workload is empty.
  double AttrUsageFraction(std::string_view attribute) const;

  /// occ(v): number of queries whose condition on `attribute` contains
  /// value `v` (IN-list membership; for numeric attributes, range
  /// containment counts too).
  size_t OccurrenceCount(std::string_view attribute, const Value& v) const;

  /// All (value, occ) pairs of a categorical attribute, sorted by
  /// descending occurrence count (ties broken by value order) — the order
  /// the categorical partitioner presents single-value categories in.
  std::vector<std::pair<Value, size_t>> OccurrenceCountsSorted(
      std::string_view attribute) const;

  /// NOverlap for a numeric label: number of queries whose condition on
  /// `attribute` admits some value in the closed interval [a, b].
  size_t CountConditionsOverlappingInterval(std::string_view attribute,
                                            double a, double b) const;

  /// NOverlap for a categorical label: number of queries whose condition
  /// on `attribute` admits some value of `values`. O(1) per query for
  /// single-value labels (occurrence-count lookup).
  size_t CountConditionsOverlappingSet(std::string_view attribute,
                                       const std::set<Value>& values) const;

  /// Potential split points strictly inside (lo, hi) with nonzero
  /// goodness, in ascending value order.
  std::vector<SplitPoint> SplitPointsInRange(std::string_view attribute,
                                             double lo, double hi) const;

  /// The grid interval configured for `attribute`.
  double split_interval(std::string_view attribute) const;

  /// Exports the AttributeUsageCounts relation (Figure 4(a)):
  /// (attribute, nattr).
  Table AttributeUsageCountsTable(const Schema& schema) const;

  /// Exports the OccurrenceCounts relation of one categorical attribute
  /// (Figure 4(b)): (value, occ), descending occ.
  Result<Table> OccurrenceCountsTable(std::string_view attribute) const;

  /// Exports the SplitPoints relation of one numeric attribute
  /// (Figure 5(b)): (v, start, end, goodness), ascending v.
  Result<Table> SplitPointsTable(std::string_view attribute) const;

 private:
  // Per-numeric-attribute grid with prefix sums for overlap counting.
  struct NumericCounts {
    double interval = 1.0;
    std::vector<double> points;        // sorted, may include +/-inf
    std::vector<size_t> starts;        // ranges starting at points[i]
    std::vector<size_t> ends;          // ranges ending at points[i]
    std::vector<size_t> cum_starts;    // prefix sums (inclusive)
    std::vector<size_t> cum_ends;
    size_t total_ranges = 0;

    // Number of stored ranges intersecting the closed interval [a, b].
    size_t CountOverlapping(double a, double b) const;
  };

  // Every table is keyed by lowercase attribute name and compares
  // transparently, so lookups by a lowercase view build no key string
  // (see FindLowercase).
  template <typename T>
  using ByAttribute = std::map<std::string, T, std::less<>>;

  size_t num_queries_ = 0;
  ByAttribute<double> intervals_;
  double default_interval_ = 1.0;
  ByAttribute<size_t> attr_usage_;                   // NAttr
  ByAttribute<std::map<Value, size_t>> occurrence_;  // occ(v)
  ByAttribute<NumericCounts> numeric_;
  // Raw conditions per attribute, for exact answers on label shapes the
  // fast paths do not cover (multi-value labels).
  ByAttribute<std::vector<AttributeCondition>> raw_conditions_;
  // Value-set conditions on numeric attributes (rare), scanned by the
  // interval-overlap path on top of the grid counts.
  ByAttribute<std::vector<AttributeCondition>> numeric_set_conditions_;
};

}  // namespace autocat

#endif  // AUTOCAT_WORKLOAD_COUNTS_H_
