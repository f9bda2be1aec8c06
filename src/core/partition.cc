#include "core/partition.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_set>

#include "common/check.h"

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

namespace {

// Distinct-value groups over `tuples` in ascending value order, NULL cells
// dropped — the shape both categorical partitioners consume.
using ValueGroups = std::vector<std::pair<Value, std::vector<size_t>>>;

// A dictionary-encoded string column groups by code — the dictionary is
// sorted, so ascending code order *is* ascending value order and the
// generic Value-map walk at the bottom is reproduced without Value
// comparisons.
ValueGroups GroupsOf(const TableView& view, const std::vector<size_t>& tuples,
                     size_t col) {
  const ColumnarTable::Column* cc =
      view.columnar() == nullptr
          ? nullptr
          : &view.columnar()->column(view.base_column(col));
  if (cc != nullptr && cc->type == ValueType::kString) {
    std::vector<std::vector<size_t>> buckets(cc->dict.size());
    std::vector<uint32_t> touched;
    for (size_t idx : tuples) {
      const uint32_t row = view.base_row(idx);
      if (cc->IsNull(row)) {
        continue;
      }
      const uint32_t code = cc->codes[row];
      if (buckets[code].empty()) {
        touched.push_back(code);
      }
      buckets[code].push_back(idx);
    }
    std::sort(touched.begin(), touched.end());
    ValueGroups out;
    out.reserve(touched.size());
    for (uint32_t code : touched) {
      out.emplace_back(Value(cc->dict[code]), std::move(buckets[code]));
    }
    return out;
  }
  if (cc != nullptr && cc->type == ValueType::kInt64) {
    // int64 column: int64 order equals Value order among int64 cells, so
    // grouping by the raw value reproduces the Value-map walk (and reads
    // mapped segments without synthesizing cells).
    std::map<int64_t, std::vector<size_t>> groups;
    for (size_t idx : tuples) {
      const uint32_t row = view.base_row(idx);
      if (!cc->IsNull(row)) {
        groups[cc->i64[row]].push_back(idx);
      }
    }
    ValueGroups out;
    out.reserve(groups.size());
    for (auto& [value, group] : groups) {
      out.emplace_back(Value(value), std::move(group));
    }
    return out;
  }
  std::map<Value, std::vector<size_t>> groups;
  if (cc != nullptr && cc->type == ValueType::kDouble) {
    // Double column: wrap the raw bits in a Value so ordering
    // (including any NaN handling) matches the generic walk exactly.
    for (size_t idx : tuples) {
      const uint32_t row = view.base_row(idx);
      if (!cc->IsNull(row)) {
        groups[Value(cc->f64[row])].push_back(idx);
      }
    }
  } else {
    for (size_t idx : tuples) {
      const Value& v = view.ValueAt(idx, col);
      if (!v.is_null()) {
        groups[v].push_back(idx);
      }
    }
  }
  ValueGroups out;
  out.reserve(groups.size());
  for (auto& [value, group] : groups) {
    out.emplace_back(value, std::move(group));
  }
  return out;
}

// The index entry usable for (`tuples`, `col`), or nullptr: entries
// answer only for the identity tuple set over the indexed rows (the tree
// root's tset; see storage/attr_index.h).
const AttributeIndexEntry* RootIndexEntry(const ResultAttributeIndex* index,
                                          size_t col,
                                          const std::vector<size_t>& tuples) {
  if (index == nullptr) {
    return nullptr;
  }
  const AttributeIndexEntry* entry = index->entry(col);
  if (entry == nullptr || !IsIdentityTupleSet(tuples, index->num_rows)) {
    return nullptr;
  }
  return entry;
}

// A copy of the index entry's groups in the GroupsOf shape (the copies
// become the partition's tuple vectors; the entry stays reusable).
ValueGroups GroupsFromIndex(const AttributeIndexEntry& entry) {
  ValueGroups out;
  out.reserve(entry.groups.size());
  for (const auto& [value, group] : entry.groups) {
    out.emplace_back(value, group);
  }
  return out;
}

// Distinct-value counts in ascending value order, NULL cells dropped —
// the groups' sizes without the groups. Branch structure mirrors
// GroupsOf so the counted (and ordered) values are identical.
using ValueCounts = std::vector<std::pair<Value, size_t>>;

ValueCounts CountsOf(const TableView& view, const std::vector<size_t>& tuples,
                     size_t col) {
  const ColumnarTable::Column* cc =
      view.columnar() == nullptr
          ? nullptr
          : &view.columnar()->column(view.base_column(col));
  if (cc != nullptr && cc->type == ValueType::kString) {
    std::vector<size_t> per_code(cc->dict.size(), 0);
    std::vector<uint32_t> touched;
    for (size_t idx : tuples) {
      const uint32_t row = view.base_row(idx);
      if (cc->IsNull(row)) {
        continue;
      }
      const uint32_t code = cc->codes[row];
      if (per_code[code] == 0) {
        touched.push_back(code);
      }
      ++per_code[code];
    }
    std::sort(touched.begin(), touched.end());
    ValueCounts out;
    out.reserve(touched.size());
    for (uint32_t code : touched) {
      out.emplace_back(Value(cc->dict[code]), per_code[code]);
    }
    return out;
  }
  if (cc != nullptr && cc->type == ValueType::kInt64) {
    std::map<int64_t, size_t> counts;
    for (size_t idx : tuples) {
      const uint32_t row = view.base_row(idx);
      if (!cc->IsNull(row)) {
        ++counts[cc->i64[row]];
      }
    }
    ValueCounts out;
    out.reserve(counts.size());
    for (const auto& [value, count] : counts) {
      out.emplace_back(Value(value), count);
    }
    return out;
  }
  std::map<Value, size_t> counts;
  if (cc != nullptr && cc->type == ValueType::kDouble) {
    for (size_t idx : tuples) {
      const uint32_t row = view.base_row(idx);
      if (!cc->IsNull(row)) {
        ++counts[Value(cc->f64[row])];
      }
    }
  } else {
    for (size_t idx : tuples) {
      const Value& v = view.ValueAt(idx, col);
      if (!v.is_null()) {
        ++counts[v];
      }
    }
  }
  return ValueCounts(counts.begin(), counts.end());
}

// Section 5.1.2 presentation order over pre-grouped values.
std::vector<PartitionCategory> CostCategoricalFromGroups(
    const std::string& attribute, const WorkloadStats& stats,
    ValueGroups groups) {
  struct Entry {
    Value value;
    size_t occ;
    std::vector<size_t> tuples;
  };
  std::vector<Entry> entries;
  entries.reserve(groups.size());
  for (auto& [value, group] : groups) {
    entries.push_back(Entry{value, stats.OccurrenceCount(attribute, value),
                            std::move(group)});
  }
  // Decreasing occurrence count; group order (ascending value) breaks ties.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.occ > b.occ;
                   });
  std::vector<PartitionCategory> out;
  out.reserve(entries.size());
  for (Entry& e : entries) {
    out.push_back(PartitionCategory{
        CategoryLabel::Categorical(attribute, {e.value}),
        std::move(e.tuples)});
  }
  AUTOCAT_DCHECK(ValidateCategoricalPartition(out).ok());
  return out;
}

// The counts in the CountsOf shape taken straight from the index entry's
// groups (ascending value order, as CountsOf produces).
ValueCounts CountsFromIndex(const AttributeIndexEntry& entry) {
  ValueCounts out;
  out.reserve(entry.groups.size());
  for (const auto& [value, group] : entry.groups) {
    out.emplace_back(value, group.size());
  }
  return out;
}

// Summary twin of CostCategoricalFromGroups: identical Entry ordering
// (stable sort on decreasing occ over ascending-value input), labels
// built the same way, sizes instead of tuple vectors.
std::vector<PartitionSummary> CostCategoricalSummaryFromCounts(
    const std::string& attribute, const WorkloadStats& stats,
    ValueCounts counts) {
  struct Entry {
    Value value;
    size_t occ;
    size_t count;
  };
  std::vector<Entry> entries;
  entries.reserve(counts.size());
  for (auto& [value, count] : counts) {
    entries.push_back(
        Entry{value, stats.OccurrenceCount(attribute, value), count});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.occ > b.occ;
                   });
  std::vector<PartitionSummary> out;
  out.reserve(entries.size());
  for (Entry& e : entries) {
    out.push_back(PartitionSummary{
        CategoryLabel::Categorical(attribute, {e.value}), e.count});
  }
  return out;
}

// Section 6.1 'No cost' order over pre-grouped values.
std::vector<PartitionCategory> ArbitraryCategoricalFromGroups(
    const std::string& attribute, Random* rng, ValueGroups groups) {
  std::vector<PartitionCategory> out;
  out.reserve(groups.size());
  for (auto& [value, group] : groups) {
    out.push_back(PartitionCategory{
        CategoryLabel::Categorical(attribute, {value}), std::move(group)});
  }
  if (rng != nullptr) {
    rng->Shuffle(out);
  }
  AUTOCAT_DCHECK(ValidateCategoricalPartition(out).ok());
  return out;
}

}  // namespace

Result<std::vector<PartitionCategory>> PartitionCategorical(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const ResultAttributeIndex* index) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                           view.schema().ColumnIndex(attribute));
  if (const AttributeIndexEntry* entry = RootIndexEntry(index, col, tuples);
      entry != nullptr && entry->has_groups) {
    return CostCategoricalFromGroups(attribute, stats,
                                     GroupsFromIndex(*entry));
  }
  return CostCategoricalFromGroups(attribute, stats,
                                   GroupsOf(view, tuples, col));
}

Result<std::vector<PartitionSummary>> SummarizePartitionCategorical(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const ResultAttributeIndex* index) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                           view.schema().ColumnIndex(attribute));
  if (const AttributeIndexEntry* entry = RootIndexEntry(index, col, tuples);
      entry != nullptr && entry->has_groups) {
    return CostCategoricalSummaryFromCounts(attribute, stats,
                                            CountsFromIndex(*entry));
  }
  return CostCategoricalSummaryFromCounts(attribute, stats,
                                          CountsOf(view, tuples, col));
}

namespace {

// Shared bucket-materialization for both numeric partitioners: given
// ascending boundaries b0 < b1 < ... < bk, produce buckets [b_i, b_{i+1})
// (last bucket closed) over the value-sorted tuples, dropping empties.
std::vector<PartitionCategory> MaterializeBuckets(
    const std::string& attribute,
    const std::vector<std::pair<double, size_t>>& sorted_values,
    const std::vector<double>& boundaries) {
  std::vector<PartitionCategory> out;
  if (boundaries.size() < 2) {
    return out;
  }
  for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
    const double lo = boundaries[b];
    const double hi = boundaries[b + 1];
    const bool last = (b + 2 == boundaries.size());
    const auto begin = std::lower_bound(
        sorted_values.begin(), sorted_values.end(), lo,
        [](const auto& pair, double x) { return pair.first < x; });
    const auto end =
        last ? std::upper_bound(sorted_values.begin(), sorted_values.end(),
                                hi,
                                [](double x, const auto& pair) {
                                  return x < pair.first;
                                })
             : std::lower_bound(sorted_values.begin(), sorted_values.end(),
                                hi, [](const auto& pair, double x) {
                                  return pair.first < x;
                                });
    if (begin == end) {
      continue;  // drop empty bucket
    }
    PartitionCategory category;
    category.label = CategoryLabel::Numeric(attribute, lo, hi, last);
    category.tuples.reserve(static_cast<size_t>(end - begin));
    for (auto it = begin; it != end; ++it) {
      category.tuples.push_back(it->second);
    }
    out.push_back(std::move(category));
  }
  return out;
}

// The (value, index) pairs of the non-NULL, non-NaN cells of `col` among
// `tuples`, sorted. A NaN cell joins no numeric bucket, as NULL does not
// (and as CategoryLabel::Matches answers); it would also break
// std::sort's strict weak order. Reads the typed arrays (and the null
// bitmap) directly when the view has a columnar shadow; falls back to the
// generic cell walk otherwise. Extracted doubles are identical to
// AsDouble().
Result<std::vector<std::pair<double, size_t>>> SortedNumericValues(
    const TableView& view, const std::vector<size_t>& tuples, size_t col,
    const std::string& attribute) {
  if (view.schema().column(col).kind != ColumnKind::kNumeric) {
    return Status::InvalidArgument("attribute '" + attribute +
                                   "' is not numeric");
  }
  std::vector<std::pair<double, size_t>> values;
  values.reserve(tuples.size());
  const ColumnarTable::Column* cc =
      view.columnar() == nullptr
          ? nullptr
          : &view.columnar()->column(view.base_column(col));
  if (cc != nullptr && cc->type == ValueType::kInt64) {
    for (size_t idx : tuples) {
      const uint32_t row = view.base_row(idx);
      if (!cc->IsNull(row)) {
        values.emplace_back(static_cast<double>(cc->i64[row]), idx);
      }
    }
  } else if (cc != nullptr && cc->type == ValueType::kDouble) {
    for (size_t idx : tuples) {
      const uint32_t row = view.base_row(idx);
      if (!cc->IsNull(row) && !std::isnan(cc->f64[row])) {
        values.emplace_back(cc->f64[row], idx);
      }
    }
  } else {
    for (size_t idx : tuples) {
      const Value& v = view.ValueAt(idx, col);
      if (v.is_null()) {
        continue;
      }
      const double x = v.AsDouble();
      if (!std::isnan(x)) {
        values.emplace_back(x, idx);
      }
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

// Resolves [vmin, vmax] from the query's condition when it bounds that
// side, otherwise from the data.
void ResolveRange(const std::vector<std::pair<double, size_t>>& values,
                  const NumericRange* query_range, double* vmin,
                  double* vmax) {
  const double data_min = values.front().first;
  const double data_max = values.back().first;
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

// Number of tuples with value in [lo, hi), or [lo, hi] when closed.
size_t CountInRange(const std::vector<std::pair<double, size_t>>& values,
                    double lo, double hi, bool closed) {
  const auto begin = std::lower_bound(
      values.begin(), values.end(), lo,
      [](const auto& pair, double x) { return pair.first < x; });
  const auto end =
      closed ? std::upper_bound(values.begin(), values.end(), hi,
                                [](double x, const auto& pair) {
                                  return x < pair.first;
                                })
             : std::lower_bound(values.begin(), values.end(), hi,
                                [](const auto& pair, double x) {
                                  return pair.first < x;
                                });
  return static_cast<size_t>(end - begin);
}

// The boundary-planning half of Section 5.1.3 — range resolution, bucket
// count, split-point selection — shared by the partition and summary
// flavors so both pick identical buckets. Requires non-empty `values`.
struct NumericBucketPlan {
  std::vector<double> boundaries;  // ascending; meaningless when degenerate
  bool degenerate = false;         // vmin == vmax: one closed point bucket
  double vmin = 0;
  double vmax = 0;
};

NumericBucketPlan PlanNumericBuckets(
    const std::string& attribute, const WorkloadStats& stats,
    const NumericPartitionOptions& options, const NumericRange* query_range,
    const std::vector<std::pair<double, size_t>>& values) {
  NumericBucketPlan plan;
  double vmin = 0;
  double vmax = 0;
  ResolveRange(values, query_range, &vmin, &vmax);

  // Derive the bucket count m. The paper leaves m to the system designer
  // (or to the goodness metric); high-goodness boundaries are exactly the
  // ones users' conditions start/end at, so finer beats coarser until the
  // label overhead kicks in. Aim past the M-tuple leaf target (so a level
  // discriminates rather than merely halving), capped at max_buckets.
  size_t m = options.num_buckets;
  if (m == 0) {
    const size_t budget = std::max<size_t>(1, options.max_tuples_per_category);
    const size_t needed =
        2 * ((values.size() + budget - 1) / budget);  // 2 * ceil(n / M)
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
  const bool auto_mode = options.num_buckets == 0 && options.auto_buckets;
  const size_t goodness_floor =
      (auto_mode && !candidates.empty())
          ? static_cast<size_t>(options.goodness_fraction *
                                static_cast<double>(
                                    candidates.front().goodness()))
          : 0;
  if (auto_mode) {
    m = std::max<size_t>(2, options.max_buckets);
  }

  // Greedily select up to (m - 1) necessary split points.
  std::set<double> chosen;
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
    const double hi_neighbor = (next == chosen.end()) ? vmax : *next;
    const double lo_neighbor =
        (next == chosen.begin()) ? vmin : *std::prev(next);
    const bool hi_is_max = (next == chosen.end());
    const size_t below =
        CountInRange(values, lo_neighbor, cand.v, /*closed=*/false);
    const size_t above =
        CountInRange(values, cand.v, hi_neighbor, /*closed=*/hi_is_max);
    if (below < min_bucket || above < min_bucket) {
      continue;  // unnecessary split point: a bucket would be too small
    }
    chosen.insert(cand.v);
  }

  plan.boundaries.push_back(vmin);
  plan.boundaries.insert(plan.boundaries.end(), chosen.begin(),
                         chosen.end());
  plan.boundaries.push_back(vmax);
  plan.degenerate = (vmin == vmax);
  plan.vmin = vmin;
  plan.vmax = vmax;
  return plan;
}

// Section 5.1.3 over pre-sorted (value, index) pairs, scanned or taken
// from the attribute index.
std::vector<PartitionCategory> PartitionNumericCore(
    const std::string& attribute, const WorkloadStats& stats,
    const NumericPartitionOptions& options, const NumericRange* query_range,
    const std::vector<std::pair<double, size_t>>& values) {
  if (values.empty()) {
    return std::vector<PartitionCategory>{};
  }
  const NumericBucketPlan plan =
      PlanNumericBuckets(attribute, stats, options, query_range, values);
  if (plan.degenerate) {
    // Degenerate single-point domain: one closed bucket.
    std::vector<PartitionCategory> out;
    PartitionCategory category;
    category.label =
        CategoryLabel::Numeric(attribute, plan.vmin, plan.vmax, true);
    for (const auto& [value, idx] : values) {
      (void)value;
      category.tuples.push_back(idx);
    }
    out.push_back(std::move(category));
    AUTOCAT_DCHECK(ValidateNumericPartition(out).ok());
    return out;
  }
  std::vector<PartitionCategory> out =
      MaterializeBuckets(attribute, values, plan.boundaries);
  AUTOCAT_DCHECK(ValidateNumericPartition(out).ok());
  return out;
}

// Summary twin of PartitionNumericCore: the same plan, with per-bucket
// counts taken by the same binary searches MaterializeBuckets slices
// with (empties dropped identically).
std::vector<PartitionSummary> SummarizeNumericCore(
    const std::string& attribute, const WorkloadStats& stats,
    const NumericPartitionOptions& options, const NumericRange* query_range,
    const std::vector<std::pair<double, size_t>>& values) {
  if (values.empty()) {
    return std::vector<PartitionSummary>{};
  }
  const NumericBucketPlan plan =
      PlanNumericBuckets(attribute, stats, options, query_range, values);
  std::vector<PartitionSummary> out;
  if (plan.degenerate) {
    out.push_back(PartitionSummary{
        CategoryLabel::Numeric(attribute, plan.vmin, plan.vmax, true),
        values.size()});
    return out;
  }
  for (size_t b = 0; b + 1 < plan.boundaries.size(); ++b) {
    const double lo = plan.boundaries[b];
    const double hi = plan.boundaries[b + 1];
    const bool last = (b + 2 == plan.boundaries.size());
    const size_t count = CountInRange(values, lo, hi, /*closed=*/last);
    if (count == 0) {
      continue;  // drop empty bucket
    }
    out.push_back(PartitionSummary{
        CategoryLabel::Numeric(attribute, lo, hi, last), count});
  }
  return out;
}

// Equi-width partitions past this many buckets are not cut (see
// EquiWidthCore): the boundary walk stays bounded on any input.
constexpr size_t kMaxEquiWidthBuckets = size_t{1} << 20;

// Section 6.1 equi-width buckets over pre-sorted (value, index) pairs.
std::vector<PartitionCategory> EquiWidthCore(
    const std::string& attribute, double width,
    const NumericRange* query_range,
    const std::vector<std::pair<double, size_t>>& values) {
  if (values.empty()) {
    return std::vector<PartitionCategory>{};
  }
  double vmin = 0;
  double vmax = 0;
  ResolveRange(values, query_range, &vmin, &vmax);

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
  std::vector<PartitionCategory> out =
      MaterializeBuckets(attribute, values, boundaries);
  AUTOCAT_DCHECK(ValidateNumericPartition(out).ok());
  return out;
}

}  // namespace

Result<std::vector<PartitionCategory>> PartitionNumeric(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const NumericPartitionOptions& options, const NumericRange* query_range,
    const ResultAttributeIndex* index) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                           view.schema().ColumnIndex(attribute));
  if (const AttributeIndexEntry* entry = RootIndexEntry(index, col, tuples);
      entry != nullptr && entry->has_sorted_values) {
    return PartitionNumericCore(attribute, stats, options, query_range,
                                entry->sorted_values);
  }
  AUTOCAT_ASSIGN_OR_RETURN(
      const auto values, SortedNumericValues(view, tuples, col, attribute));
  return PartitionNumericCore(attribute, stats, options, query_range,
                              values);
}

Result<std::vector<PartitionSummary>> SummarizePartitionNumeric(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const NumericPartitionOptions& options, const NumericRange* query_range,
    const ResultAttributeIndex* index) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                           view.schema().ColumnIndex(attribute));
  if (const AttributeIndexEntry* entry = RootIndexEntry(index, col, tuples);
      entry != nullptr && entry->has_sorted_values) {
    return SummarizeNumericCore(attribute, stats, options, query_range,
                                entry->sorted_values);
  }
  AUTOCAT_ASSIGN_OR_RETURN(
      const auto values, SortedNumericValues(view, tuples, col, attribute));
  return SummarizeNumericCore(attribute, stats, options, query_range,
                              values);
}

Result<std::vector<PartitionCategory>> PartitionCategoricalArbitrary(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, Random* rng) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                           view.schema().ColumnIndex(attribute));
  return ArbitraryCategoricalFromGroups(attribute, rng,
                                        GroupsOf(view, tuples, col));
}

Result<std::vector<PartitionCategory>> PartitionNumericEquiWidth(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, double width,
    const NumericRange* query_range) {
  if (!(width > 0 && std::isfinite(width))) {
    return Status::InvalidArgument("bucket width must be positive and finite");
  }
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                           view.schema().ColumnIndex(attribute));
  AUTOCAT_ASSIGN_OR_RETURN(
      const auto values, SortedNumericValues(view, tuples, col, attribute));
  return EquiWidthCore(attribute, width, query_range, values);
}

}  // namespace autocat
