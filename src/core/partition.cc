#include "core/partition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>

#include "common/check.h"
#include "core/categorizer.h"

namespace autocat {

namespace {

// Shared across both Validate* sweeps: non-empty pairwise-disjoint tuple
// sets and one shared label attribute.
Status ValidateCommonPartitionShape(
    const std::vector<PartitionCategory>& parts) {
  std::unordered_set<size_t> seen;
  for (size_t i = 0; i < parts.size(); ++i) {
    const PartitionCategory& part = parts[i];
    if (part.label.attribute().empty()) {
      return Status::Internal("partition category " + std::to_string(i) +
                              " has no attribute");
    }
    if (part.label.attribute() != parts.front().label.attribute()) {
      return Status::Internal("partition categories disagree on attribute");
    }
    if (part.tuples.empty()) {
      return Status::Internal("partition category " + std::to_string(i) +
                              " is empty");
    }
    for (size_t idx : part.tuples) {
      if (!seen.insert(idx).second) {
        return Status::Internal("tuple " + std::to_string(idx) +
                                " placed in two partition categories");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateNumericPartition(const std::vector<PartitionCategory>& parts) {
  if (parts.empty()) {
    return Status::OK();
  }
  AUTOCAT_RETURN_IF_ERROR(ValidateCommonPartitionShape(parts));
  for (size_t i = 0; i < parts.size(); ++i) {
    const CategoryLabel& label = parts[i].label;
    if (!label.is_numeric()) {
      return Status::Internal("partition category " + std::to_string(i) +
                              " is not a numeric bucket");
    }
    const bool degenerate_point = label.lo() == label.hi() &&
                                  label.hi_inclusive() && parts.size() == 1;
    if (!(label.lo() < label.hi() || degenerate_point)) {
      return Status::Internal("bucket " + std::to_string(i) +
                              " has inverted bounds [" +
                              std::to_string(label.lo()) + ", " +
                              std::to_string(label.hi()) + ")");
    }
    if (label.hi_inclusive() && i + 1 != parts.size()) {
      return Status::Internal("only the final bucket may be closed");
    }
    if (i > 0 && label.lo() < parts[i - 1].label.hi()) {
      return Status::Internal("buckets " + std::to_string(i - 1) + " and " +
                              std::to_string(i) + " overlap");
    }
  }
  return Status::OK();
}

Status ValidateCategoricalPartition(
    const std::vector<PartitionCategory>& parts) {
  if (parts.empty()) {
    return Status::OK();
  }
  AUTOCAT_RETURN_IF_ERROR(ValidateCommonPartitionShape(parts));
  std::set<Value> seen_values;
  for (size_t i = 0; i < parts.size(); ++i) {
    const CategoryLabel& label = parts[i].label;
    if (!label.is_categorical() || label.values().empty()) {
      return Status::Internal("partition category " + std::to_string(i) +
                              " is not a non-empty value set");
    }
    for (const Value& v : label.values()) {
      if (!seen_values.insert(v).second) {
        return Status::Internal("value " + v.ToString() +
                                " labels two partition categories");
      }
    }
  }
  return Status::OK();
}

Result<AttributeOrder> AttributeOrder::Build(const Table& table, size_t col,
                                             const std::vector<size_t>* rows,
                                             const AttributeIndexEntry* entry) {
  if (table.has_rows()) {
    return Status::InvalidArgument(
        "a categorization order reads a column-backed table, not a "
        "builder");
  }
  if (table.num_rows() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "too many rows for a categorization order");
  }
  AttributeOrder order;
  order.table_ = &table;
  order.column_ =
      &table.columnar_backing()->column(table.backing_column(col));
  order.numeric_ = table.schema().column(col).kind == ColumnKind::kNumeric;
  if (rows != nullptr) {
    const std::vector<uint32_t> positions(rows->begin(), rows->end());
    order.entries_ = SortedKeys(table, col, &positions);
  } else if (entry != nullptr && entry->has_sorted_keys) {
    order.entries_ = entry->sorted_keys;
  } else {
    order.entries_ = SortedKeys(table, col, nullptr);
  }
  // Re-key densely, giving each key the value of its lowest row.
  uint32_t last = 0;
  for (size_t i = 0; i < order.entries_.size(); ++i) {
    KeyOrderEntry& e = order.entries_[i];
    if (i == 0 || e.first != last) {
      last = e.first;
      if (order.numeric_) {
        order.key_numbers_.push_back(order.cell(e.second).AsDouble());
      } else {
        order.key_values_.push_back(order.cell(e.second));
      }
    }
    e.first = static_cast<uint32_t>(order.num_keys() - 1);
  }
  order.offsets_ = {0, order.entries_.size()};
  return order;
}

std::span<const KeyOrderEntry> AttributeOrder::run(size_t run) const {
  return std::span<const KeyOrderEntry>(entries_).subspan(
      offsets_[run], offsets_[run + 1] - offsets_[run]);
}

Value AttributeOrder::cell(uint32_t row) const {
  return column_->CellValue(table_->backing_row(row));
}

void AttributeOrder::Distribute(const std::vector<int32_t>& slot_of_row,
                                size_t num_runs) {
  AUTOCAT_CHECK_LE(num_runs,
                   static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  // A stable scatter by the slot of each entry's row; entries whose row
  // has a negative slot are dropped.
  offsets_.assign(num_runs + 1, 0);
  for (const KeyOrderEntry& e : entries_) {
    const int32_t slot = slot_of_row[e.second];
    if (slot >= 0) {
      ++offsets_[static_cast<size_t>(slot) + 1];
    }
  }
  for (size_t r = 0; r < num_runs; ++r) {
    offsets_[r + 1] += offsets_[r];
  }
  std::vector<KeyOrderEntry> narrowed(offsets_.back());
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const KeyOrderEntry& e : entries_) {
    const int32_t slot = slot_of_row[e.second];
    if (slot >= 0) {
      narrowed[cursor[static_cast<size_t>(slot)]++] = e;
    }
  }
  entries_ = std::move(narrowed);
}

namespace {

// Resolves [vmin, vmax] from the query's condition when it bounds that
// side, otherwise from the data (a non-empty run): the cells of its first
// and last rows, so a -0.0 bound stays -0.0.
void ResolveRange(const AttributeOrder& order,
                  std::span<const KeyOrderEntry> run,
                  const NumericRange* query_range, double* vmin,
                  double* vmax) {
  const double data_min = order.cell(run.front().second).AsDouble();
  const double data_max = order.cell(run.back().second).AsDouble();
  *vmin = data_min;
  *vmax = data_max;
  if (query_range != nullptr) {
    if (std::isfinite(query_range->lo)) {
      *vmin = query_range->lo;
    }
    if (std::isfinite(query_range->hi)) {
      *vmax = query_range->hi;
    }
  }
  // Guard against a malformed condition narrower than the data.
  if (*vmin > data_min) *vmin = data_min;
  if (*vmax < data_max) *vmax = data_max;
}

// Number of run entries with value < x.
size_t RankBelow(const AttributeOrder& order,
                 std::span<const KeyOrderEntry> run, double x) {
  return static_cast<size_t>(
      std::lower_bound(run.begin(), run.end(), x,
                       [&order](const KeyOrderEntry& e, double v) {
                         return order.key_number(e.first) < v;
                       }) -
      run.begin());
}

// Number of run entries with value <= x.
size_t RankAtOrBelow(const AttributeOrder& order,
                     std::span<const KeyOrderEntry> run, double x) {
  return static_cast<size_t>(
      std::upper_bound(run.begin(), run.end(), x,
                       [&order](double v, const KeyOrderEntry& e) {
                         return v < order.key_number(e.first);
                       }) -
      run.begin());
}

}  // namespace

std::vector<NumericBucket> PlanNumericBuckets(
    const std::string& attribute, const WorkloadStats& stats,
    const CategorizerOptions& options, const NumericRange* query_range,
    const AttributeOrder& order, std::span<const KeyOrderEntry> run) {
  std::vector<NumericBucket> out;
  if (run.empty()) {
    return out;
  }
  double vmin = 0;
  double vmax = 0;
  ResolveRange(order, run, query_range, &vmin, &vmax);
  if (vmin == vmax) {
    // Degenerate single-point domain: one closed bucket (no split point
    // lies strictly inside it).
    out.push_back(NumericBucket{vmin, vmax, true, 0, run.size()});
    return out;
  }

  // Derive the bucket count m. The paper leaves m to the system designer
  // (or to the goodness metric); high-goodness boundaries are exactly the
  // ones users' conditions start/end at, so finer beats coarser until the
  // label overhead kicks in. Aim past the M-tuple leaf target (so a level
  // discriminates rather than merely halving), capped at max_buckets.
  size_t m = options.num_buckets;
  if (m == 0) {
    const size_t budget = std::max<size_t>(1, options.max_tuples_per_category);
    const size_t needed =
        2 * ((run.size() + budget - 1) / budget);  // 2 * ceil(n / M)
    m = std::clamp<size_t>(needed, 2, std::max<size_t>(2, options.max_buckets));
  }

  // Candidate split points in decreasing goodness (ties: ascending value).
  std::vector<SplitPoint> candidates =
      stats.SplitPointsInRange(attribute, vmin, vmax);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const SplitPoint& a, const SplitPoint& b) {
                     if (a.goodness() != b.goodness()) {
                       return a.goodness() > b.goodness();
                     }
                     return a.v < b.v;
                   });

  // In goodness-driven auto mode, only candidates comparable to the best
  // one qualify; the bucket count then follows from the data.
  const bool auto_mode = options.num_buckets == 0 && options.auto_numeric_buckets;
  const size_t goodness_floor =
      (auto_mode && !candidates.empty())
          ? static_cast<size_t>(options.goodness_fraction *
                                static_cast<double>(
                                    candidates.front().goodness()))
          : 0;
  if (auto_mode) {
    m = std::max<size_t>(2, options.max_buckets);
  }

  // Greedily select up to (m - 1) necessary split points, each with its
  // rank (the entries below it). vmin has rank 0 (it is at most the data
  // minimum) and the closed end at vmax takes every entry, so a bucket's
  // count is a rank difference.
  std::map<double, size_t> chosen;
  const size_t min_bucket = options.min_bucket_tuples;
  for (const SplitPoint& cand : candidates) {
    if (chosen.size() + 1 >= m) {
      break;
    }
    if (auto_mode && cand.goodness() < goodness_floor) {
      break;  // candidates are sorted by decreasing goodness
    }
    if (chosen.count(cand.v) > 0 || cand.v <= vmin || cand.v >= vmax) {
      continue;
    }
    // Neighboring boundaries after a hypothetical insertion.
    const auto next = chosen.upper_bound(cand.v);
    const size_t hi_rank = next == chosen.end() ? run.size() : next->second;
    const size_t lo_rank = next == chosen.begin() ? 0 : std::prev(next)->second;
    const size_t rank = RankBelow(order, run, cand.v);
    if (rank - lo_rank < min_bucket || hi_rank - rank < min_bucket) {
      continue;  // unnecessary split point: a bucket would be too small
    }
    chosen.emplace(cand.v, rank);
  }

  double lo = vmin;
  size_t lo_rank = 0;
  for (const auto& [v, rank] : chosen) {
    if (rank > lo_rank) {
      out.push_back(NumericBucket{lo, v, false, lo_rank, rank - lo_rank});
    }
    lo = v;
    lo_rank = rank;
  }
  if (run.size() > lo_rank) {
    out.push_back(
        NumericBucket{lo, vmax, true, lo_rank, run.size() - lo_rank});
  }
  return out;
}

namespace {

// Equi-width partitions past this many buckets are not cut (see
// EquiWidthBuckets): the boundary walk stays bounded on any input.
constexpr size_t kMaxEquiWidthBuckets = size_t{1} << 20;

}  // namespace

std::vector<NumericBucket> EquiWidthBuckets(
    double width, const NumericRange* query_range, const AttributeOrder& order,
    std::span<const KeyOrderEntry> run) {
  std::vector<NumericBucket> out;
  if (run.empty()) {
    return out;
  }
  double vmin = 0;
  double vmax = 0;
  ResolveRange(order, run, query_range, &vmin, &vmax);

  // A range the width cannot cut becomes one closed bucket
  // [first boundary, vmax] holding every value: an unbounded one (an
  // infinite cell), one whose steps stop advancing (b + width == b near
  // int64-extreme cells), or one needing more than
  // kMaxEquiWidthBuckets buckets.
  std::vector<double> boundaries = {std::floor(vmin / width) * width};
  bool cut = std::isfinite(vmax - boundaries.front());
  while (cut && boundaries.back() < vmax) {
    const double next = boundaries.back() + width;
    cut = next != boundaries.back() &&
          boundaries.size() <= kMaxEquiWidthBuckets;
    boundaries.push_back(next);
  }
  if (!cut) {
    boundaries = {boundaries.front(), vmax};
  }
  if (boundaries.size() < 2) {
    boundaries.push_back(boundaries.front() + width);
  }
  for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
    const bool last = (b + 2 == boundaries.size());
    const size_t begin = RankBelow(order, run, boundaries[b]);
    const size_t end = last ? RankAtOrBelow(order, run, boundaries[b + 1])
                            : RankBelow(order, run, boundaries[b + 1]);
    if (end > begin) {  // drop empty buckets
      out.push_back(NumericBucket{boundaries[b], boundaries[b + 1], last,
                                  begin, end - begin});
    }
  }
  return out;
}

std::vector<PartitionCategory> SliceBuckets(
    const std::string& attribute, const std::vector<NumericBucket>& buckets,
    std::span<const KeyOrderEntry> run) {
  std::vector<PartitionCategory> out;
  out.reserve(buckets.size());
  for (const NumericBucket& bucket : buckets) {
    PartitionCategory category;
    category.label =
        CategoryLabel::Numeric(attribute, bucket.lo, bucket.hi, bucket.closed);
    category.tuples.reserve(bucket.count);
    for (const auto& [key, row] : run.subspan(bucket.begin, bucket.count)) {
      (void)key;
      category.tuples.push_back(row);
    }
    out.push_back(std::move(category));
  }
  AUTOCAT_DCHECK(ValidateNumericPartition(out).ok());
  return out;
}

std::vector<KeyGroup> GroupKeys(std::span<const KeyOrderEntry> run) {
  std::vector<KeyGroup> out;
  for (size_t i = 0; i < run.size(); ++i) {
    if (i == 0 || run[i].first != run[i - 1].first) {
      out.push_back(KeyGroup{run[i].first, i, 0});
    }
    ++out.back().count;
  }
  return out;
}

void SortGroupsByOccurrence(const std::vector<size_t>& occ_of_key,
                            std::vector<KeyGroup>* groups) {
  // Decreasing occurrence count; key order (ascending value) breaks ties.
  std::stable_sort(groups->begin(), groups->end(),
                   [&occ_of_key](const KeyGroup& a, const KeyGroup& b) {
                     return occ_of_key[a.key] > occ_of_key[b.key];
                   });
}

std::vector<PartitionCategory> PartitionKeyGroups(
    const std::string& attribute, const AttributeOrder& order,
    std::span<const KeyOrderEntry> run, const std::vector<KeyGroup>& groups,
    const std::vector<size_t>& parent_tuples,
    std::vector<uint32_t>* group_of_row) {
  constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();
  for (const size_t t : parent_tuples) {
    (*group_of_row)[t] = kNoGroup;
  }
  std::vector<PartitionCategory> out(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const KeyGroup& group = groups[g];
    out[g].tuples.reserve(group.count);
    for (const KeyOrderEntry& e : run.subspan(group.begin, group.count)) {
      (*group_of_row)[e.second] = static_cast<uint32_t>(g);
    }
  }
  // The parent's own order: a numeric parent lists its tuples in (value,
  // row) order, and the ONE-scenario explorer reads tuples in list order.
  for (const size_t t : parent_tuples) {
    const uint32_t g = (*group_of_row)[t];
    if (g != kNoGroup) {
      out[g].tuples.push_back(t);
    }
  }
  for (PartitionCategory& category : out) {
    category.label = CategoryLabel::Categorical(
        attribute,
        {order.cell(static_cast<uint32_t>(category.tuples.front()))});
  }
  AUTOCAT_DCHECK(ValidateCategoricalPartition(out).ok());
  return out;
}

namespace {

// The one-run order of `attribute` over `tuples`; kInvalidArgument unless
// the column is declared `kind`.
Result<AttributeOrder> NodeOrder(const Table& table,
                                 const std::vector<size_t>& tuples,
                                 const std::string& attribute,
                                 ColumnKind kind) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                           table.schema().ColumnIndex(attribute));
  if (table.schema().column(col).kind != kind) {
    return Status::InvalidArgument(
        "attribute '" + attribute + "' is not " +
        (kind == ColumnKind::kNumeric ? "numeric" : "categorical"));
  }
  return AttributeOrder::Build(table, col, &tuples, nullptr);
}

}  // namespace

const Table& ColumnBacked(const Table& result, std::optional<Table>* copy) {
  if (!result.has_rows()) {
    return result;
  }
  copy->emplace(Table::FromColumnar(
      result.schema(),
      std::make_shared<const ColumnarTable>(ColumnarTable::Build(result))));
  return **copy;
}

Result<std::vector<PartitionCategory>> PartitionCategorical(
    const Table& table, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats) {
  AUTOCAT_ASSIGN_OR_RETURN(
      const AttributeOrder order,
      NodeOrder(table, tuples, attribute, ColumnKind::kCategorical));
  std::vector<size_t> occ_of_key(order.num_keys());
  for (uint32_t key = 0; key < order.num_keys(); ++key) {
    occ_of_key[key] = stats.OccurrenceCount(attribute, order.key_value(key));
  }
  std::vector<KeyGroup> groups = GroupKeys(order.run(0));
  SortGroupsByOccurrence(occ_of_key, &groups);
  std::vector<uint32_t> group_of_row(table.num_rows());
  return PartitionKeyGroups(attribute, order, order.run(0), groups, tuples,
                            &group_of_row);
}

Result<std::vector<PartitionCategory>> PartitionNumeric(
    const Table& table, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const CategorizerOptions& options, const NumericRange* query_range) {
  AUTOCAT_ASSIGN_OR_RETURN(
      const AttributeOrder order,
      NodeOrder(table, tuples, attribute, ColumnKind::kNumeric));
  return SliceBuckets(attribute,
                      PlanNumericBuckets(attribute, stats, options,
                                         query_range, order, order.run(0)),
                      order.run(0));
}

Result<std::vector<PartitionCategory>> PartitionCategoricalArbitrary(
    const Table& table, const std::vector<size_t>& tuples,
    const std::string& attribute, Random* rng) {
  AUTOCAT_ASSIGN_OR_RETURN(
      const AttributeOrder order,
      NodeOrder(table, tuples, attribute, ColumnKind::kCategorical));
  std::vector<uint32_t> group_of_row(table.num_rows());
  std::vector<PartitionCategory> out =
      PartitionKeyGroups(attribute, order, order.run(0),
                         GroupKeys(order.run(0)), tuples, &group_of_row);
  if (rng != nullptr) {
    rng->Shuffle(out);
  }
  return out;
}

Result<std::vector<PartitionCategory>> PartitionNumericEquiWidth(
    const Table& table, const std::vector<size_t>& tuples,
    const std::string& attribute, double width,
    const NumericRange* query_range) {
  if (!(width > 0 && std::isfinite(width))) {
    return Status::InvalidArgument("bucket width must be positive and finite");
  }
  AUTOCAT_ASSIGN_OR_RETURN(
      const AttributeOrder order,
      NodeOrder(table, tuples, attribute, ColumnKind::kNumeric));
  return SliceBuckets(
      attribute, EquiWidthBuckets(width, query_range, order, order.run(0)),
      order.run(0));
}

}  // namespace autocat
