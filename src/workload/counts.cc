#include "workload/counts.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/check.h"
#include "common/string_util.h"

namespace autocat {

namespace {

double SnapDown(double x, double interval) {
  return std::floor(x / interval) * interval;
}

double SnapUp(double x, double interval) {
  return std::ceil(x / interval) * interval;
}

/// Entries scanned per ParallelFor chunk. Chunk boundaries are fixed, so
/// per-chunk shards merge to the same tables at any thread count.
constexpr size_t kCountGrain = 512;

/// Per-chunk count accumulators, mirroring the WorkloadStats members they
/// merge into. Condition vectors keep within-chunk input order.
struct CountShard {
  std::map<std::string, size_t> attr_usage;
  std::map<std::string, std::map<Value, size_t>> occurrence;
  std::map<std::string, std::vector<AttributeCondition>> raw_conditions;
  std::map<std::string, std::vector<AttributeCondition>> set_conditions;
  std::map<std::string, std::map<double, std::pair<size_t, size_t>>> grid;
};

}  // namespace

size_t WorkloadStats::NumericCounts::CountOverlapping(double a,
                                                      double b) const {
  if (total_ranges == 0 || a > b) {
    return 0;
  }
  // A stored range [s, e] overlaps the closed [a, b] iff e >= a and s <= b.
  // Count the complement: ranges entirely below a (e < a) plus ranges
  // entirely above b (s > b); the two events are disjoint since a <= b.
  const auto first_ge_a =
      std::lower_bound(points.begin(), points.end(), a);
  const size_t idx_a = static_cast<size_t>(first_ge_a - points.begin());
  const size_t ends_below = (idx_a == 0) ? 0 : cum_ends[idx_a - 1];

  const auto first_gt_b = std::upper_bound(points.begin(), points.end(), b);
  const size_t idx_b = static_cast<size_t>(first_gt_b - points.begin());
  const size_t starts_at_or_below = (idx_b == 0) ? 0 : cum_starts[idx_b - 1];
  const size_t starts_above = total_ranges - starts_at_or_below;

  return total_ranges - ends_below - starts_above;
}

Result<WorkloadStats> WorkloadStats::Build(
    const Workload& workload, const Schema& schema,
    const WorkloadStatsOptions& options, const ParallelOptions& parallel) {
  WorkloadStats stats;
  stats.num_queries_ = workload.size();
  stats.intervals_.insert(options.split_intervals.begin(),
                          options.split_intervals.end());
  stats.default_interval_ = options.default_split_interval;
  // Written so NaN fails: a NaN interval would snap bounds to NaN keys,
  // which break the ordering of the split-point maps.
  const auto valid = [](double interval) {
    return interval > 0 && std::isfinite(interval);
  };
  if (!valid(options.default_split_interval)) {
    return Status::InvalidArgument(
        "split interval must be positive and finite");
  }
  for (const auto& [attr, interval] : options.split_intervals) {
    if (!valid(interval)) {
      return Status::InvalidArgument("split interval for '" + attr +
                                     "' must be positive and finite");
    }
    if (ToLower(attr) != attr) {
      return Status::InvalidArgument(
          "split-interval keys must be lowercase: '" + attr + "'");
    }
  }

  const std::vector<WorkloadEntry>& entries = workload.entries();
  const size_t num_chunks =
      entries.empty() ? 0 : (entries.size() + kCountGrain - 1) / kCountGrain;
  std::vector<CountShard> shards(num_chunks);
  AUTOCAT_RETURN_IF_ERROR(ParallelFor(
      parallel, 0, entries.size(), kCountGrain,
      [&entries, &schema, &stats, &shards](size_t lo, size_t hi) -> Status {
        CountShard& shard = shards[lo / kCountGrain];
        for (size_t i = lo; i < hi; ++i) {
          for (const auto& [attr, cond] : entries[i].profile.conditions()) {
            ++shard.attr_usage[attr];
            shard.raw_conditions[attr].push_back(cond);

            const auto col = schema.ColumnIndex(attr);
            const bool numeric_attr =
                col.ok() &&
                schema.column(col.value()).kind == ColumnKind::kNumeric;

            if (cond.is_value_set()) {
              for (const Value& v : cond.values) {
                ++shard.occurrence[attr][v];
              }
              if (numeric_attr) {
                shard.set_conditions[attr].push_back(cond);
              }
              continue;
            }
            if (!numeric_attr) {
              return Status::InvalidArgument(
                  "range condition on non-numeric attribute '" + attr + "'");
            }
            // split_interval only reads intervals_/default_interval_, which
            // are fixed before the scan starts.
            const double interval = stats.split_interval(attr);
            double lo_v = cond.range.lo;
            double hi_v = cond.range.hi;
            if (std::isfinite(lo_v)) {
              lo_v = SnapDown(lo_v, interval);
            }
            if (std::isfinite(hi_v)) {
              hi_v = SnapUp(hi_v, interval);
            }
            auto& [starts, ends] = shard.grid[attr][lo_v];
            ++starts;
            (void)ends;
            auto& [starts2, ends2] = shard.grid[attr][hi_v];
            ++ends2;
            (void)starts2;
          }
        }
        return Status::OK();
      }));

  // Merge shards in chunk (= input) order: counts are sums, condition
  // vectors concatenate, so the result matches a sequential scan exactly.
  std::map<std::string, std::map<double, std::pair<size_t, size_t>>>
      grid_accum;
  for (CountShard& shard : shards) {
    for (const auto& [attr, n] : shard.attr_usage) {
      stats.attr_usage_[attr] += n;
    }
    for (const auto& [attr, occ] : shard.occurrence) {
      auto& into = stats.occurrence_[attr];
      for (const auto& [v, n] : occ) {
        into[v] += n;
      }
    }
    for (auto& [attr, conds] : shard.raw_conditions) {
      auto& into = stats.raw_conditions_[attr];
      std::move(conds.begin(), conds.end(), std::back_inserter(into));
    }
    for (auto& [attr, conds] : shard.set_conditions) {
      auto& into = stats.numeric_set_conditions_[attr];
      std::move(conds.begin(), conds.end(), std::back_inserter(into));
    }
    for (const auto& [attr, grid] : shard.grid) {
      auto& into = grid_accum[attr];
      for (const auto& [point, start_end] : grid) {
        auto& [starts, ends] = into[point];
        starts += start_end.first;
        ends += start_end.second;
      }
    }
  }

  for (auto& [attr, grid] : grid_accum) {
    NumericCounts counts;
    counts.interval = stats.split_interval(attr);
    counts.points.reserve(grid.size());
    counts.starts.reserve(grid.size());
    counts.ends.reserve(grid.size());
    size_t cum_start = 0;
    size_t cum_end = 0;
    for (const auto& [point, start_end] : grid) {
      counts.points.push_back(point);
      counts.starts.push_back(start_end.first);
      counts.ends.push_back(start_end.second);
      cum_start += start_end.first;
      cum_end += start_end.second;
      counts.cum_starts.push_back(cum_start);
      counts.cum_ends.push_back(cum_end);
    }
    counts.total_ranges = cum_start;
    AUTOCAT_CHECK(cum_start == cum_end);
    stats.numeric_[attr] = std::move(counts);
  }
  return stats;
}

size_t WorkloadStats::AttrUsageCount(std::string_view attribute) const {
  const auto it = FindLowercase(attr_usage_, attribute);
  return it == attr_usage_.end() ? 0 : it->second;
}

double WorkloadStats::AttrUsageFraction(std::string_view attribute) const {
  if (num_queries_ == 0) {
    return 0;
  }
  return static_cast<double>(AttrUsageCount(attribute)) /
         static_cast<double>(num_queries_);
}

size_t WorkloadStats::OccurrenceCount(std::string_view attribute,
                                      const Value& v) const {
  size_t count = 0;
  const auto occ_it = FindLowercase(occurrence_, attribute);
  if (occ_it != occurrence_.end()) {
    const auto val_it = occ_it->second.find(v);
    if (val_it != occ_it->second.end()) {
      count = val_it->second;
    }
  }
  // For numeric attributes, range conditions containing v also count as
  // occurrences of v.
  if (v.is_numeric()) {
    const auto num_it = FindLowercase(numeric_, attribute);
    if (num_it != numeric_.end()) {
      const double x = v.AsDouble();
      count += num_it->second.CountOverlapping(x, x);
    }
  }
  return count;
}

std::vector<std::pair<Value, size_t>> WorkloadStats::OccurrenceCountsSorted(
    std::string_view attribute) const {
  std::vector<std::pair<Value, size_t>> out;
  const auto it = FindLowercase(occurrence_, attribute);
  if (it == occurrence_.end()) {
    return out;
  }
  out.assign(it->second.begin(), it->second.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second != b.second) {
                       return a.second > b.second;
                     }
                     return a.first < b.first;
                   });
  return out;
}

size_t WorkloadStats::CountConditionsOverlappingInterval(
    std::string_view attribute, double a, double b) const {
  size_t count = 0;
  const auto num_it = FindLowercase(numeric_, attribute);
  if (num_it != numeric_.end()) {
    count += num_it->second.CountOverlapping(a, b);
  }
  const auto set_it = FindLowercase(numeric_set_conditions_, attribute);
  if (set_it != numeric_set_conditions_.end()) {
    for (const AttributeCondition& cond : set_it->second) {
      if (cond.OverlapsClosedInterval(a, b)) {
        ++count;
      }
    }
  }
  return count;
}

size_t WorkloadStats::CountConditionsOverlappingSet(
    std::string_view attribute, const std::set<Value>& values) const {
  if (values.empty()) {
    return 0;
  }
  if (values.size() == 1) {
    return OccurrenceCount(attribute, *values.begin());
  }
  const auto it = FindLowercase(raw_conditions_, attribute);
  if (it == raw_conditions_.end()) {
    return 0;
  }
  size_t count = 0;
  for (const AttributeCondition& cond : it->second) {
    if (cond.OverlapsValueSet(values)) {
      ++count;
    }
  }
  return count;
}

std::vector<SplitPoint> WorkloadStats::SplitPointsInRange(
    std::string_view attribute, double lo, double hi) const {
  std::vector<SplitPoint> out;
  const auto it = FindLowercase(numeric_, attribute);
  if (it == numeric_.end()) {
    return out;
  }
  const NumericCounts& counts = it->second;
  const auto begin =
      std::upper_bound(counts.points.begin(), counts.points.end(), lo);
  for (auto p = begin; p != counts.points.end() && *p < hi; ++p) {
    if (!std::isfinite(*p)) {
      continue;
    }
    const size_t i = static_cast<size_t>(p - counts.points.begin());
    if (counts.starts[i] + counts.ends[i] == 0) {
      continue;
    }
    out.push_back(SplitPoint{*p, counts.starts[i], counts.ends[i]});
  }
  return out;
}

double WorkloadStats::split_interval(std::string_view attribute) const {
  const auto it = FindLowercase(intervals_, attribute);
  return it == intervals_.end() ? default_interval_ : it->second;
}

Table WorkloadStats::AttributeUsageCountsTable(const Schema& schema) const {
  auto table_schema = Schema::Create({
      ColumnDef("attribute", ValueType::kString, ColumnKind::kCategorical),
      ColumnDef("nattr", ValueType::kInt64, ColumnKind::kNumeric),
  });
  AUTOCAT_CHECK(table_schema.ok());
  Table table(std::move(table_schema).value());
  std::vector<std::pair<std::string, size_t>> rows;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const std::string& name = schema.column(c).name;
    rows.emplace_back(name, AttrUsageCount(name));
  }
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  for (const auto& [name, count] : rows) {
    AUTOCAT_CHECK(
        table
            .AppendRow({Value(name), Value(static_cast<int64_t>(count))})
            .ok());
  }
  return table;
}

Result<Table> WorkloadStats::OccurrenceCountsTable(
    std::string_view attribute) const {
  const auto sorted = OccurrenceCountsSorted(attribute);
  AUTOCAT_ASSIGN_OR_RETURN(
      Schema table_schema,
      Schema::Create({
          ColumnDef("value", ValueType::kString, ColumnKind::kCategorical),
          ColumnDef("occ", ValueType::kInt64, ColumnKind::kNumeric),
      }));
  Table table(std::move(table_schema));
  for (const auto& [v, count] : sorted) {
    AUTOCAT_RETURN_IF_ERROR(table.AppendRow(
        {Value(v.ToString()), Value(static_cast<int64_t>(count))}));
  }
  return table;
}

Result<Table> WorkloadStats::SplitPointsTable(
    std::string_view attribute) const {
  const auto it = FindLowercase(numeric_, attribute);
  if (it == numeric_.end()) {
    return Status::NotFound("no split points recorded for attribute '" +
                            std::string(attribute) + "'");
  }
  AUTOCAT_ASSIGN_OR_RETURN(
      Schema table_schema,
      Schema::Create({
          ColumnDef("v", ValueType::kDouble, ColumnKind::kNumeric),
          ColumnDef("startv", ValueType::kInt64, ColumnKind::kNumeric),
          ColumnDef("endv", ValueType::kInt64, ColumnKind::kNumeric),
          ColumnDef("goodness", ValueType::kInt64, ColumnKind::kNumeric),
      }));
  Table table(std::move(table_schema));
  const NumericCounts& counts = it->second;
  for (size_t i = 0; i < counts.points.size(); ++i) {
    if (!std::isfinite(counts.points[i])) {
      continue;
    }
    AUTOCAT_RETURN_IF_ERROR(table.AppendRow(
        {Value(counts.points[i]),
         Value(static_cast<int64_t>(counts.starts[i])),
         Value(static_cast<int64_t>(counts.ends[i])),
         Value(static_cast<int64_t>(counts.starts[i] + counts.ends[i]))}));
  }
  return table;
}

}  // namespace autocat
