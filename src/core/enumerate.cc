#include "core/enumerate.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/cost_model.h"
#include "core/partition.h"
#include "core/probability.h"

namespace autocat {

namespace {

// Builds a 1-level tree from ordered partition categories.
CategoryTree OneLevelTree(const Table& result,
                          std::vector<PartitionCategory> parts) {
  CategoryTree tree(&result);
  if (!parts.empty()) {
    tree.AppendLevelAttribute(parts.front().label.attribute());
  }
  for (PartitionCategory& part : parts) {
    tree.AddChild(tree.root(), std::move(part.label),
                  std::move(part.tuples));
  }
  AUTOCAT_DCHECK(tree.Validate().ok());
  return tree;
}

// Assigns the root's tuples into buckets defined by ascending
// `boundaries`, dropping empty buckets. Small-instance (O(n * buckets))
// implementation; enumeration only runs on tiny inputs.
std::vector<PartitionCategory> BucketsFromBoundaries(
    const Table& result, size_t col, const std::string& attribute,
    const std::vector<double>& boundaries) {
  std::vector<PartitionCategory> parts;
  for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
    const bool last = (b + 2 == boundaries.size());
    PartitionCategory part;
    part.label = CategoryLabel::Numeric(attribute, boundaries[b],
                                        boundaries[b + 1], last);
    for (size_t r = 0; r < result.num_rows(); ++r) {
      if (part.label.Matches(result.ValueAt(r, col))) {
        part.tuples.push_back(r);
      }
    }
    if (!part.tuples.empty()) {
      parts.push_back(std::move(part));
    }
  }
  return parts;
}

void ConsiderCandidate(const CostModel& model, CategoryTree tree,
                       std::vector<std::string> order,
                       std::optional<EnumerationResult>* best) {
  const double cost = model.CostAll(tree);
  if (!best->has_value() || cost < (*best)->cost) {
    best->emplace(EnumerationResult{std::move(tree), cost,
                                    std::move(order)});
  }
}

}  // namespace

Result<EnumerationResult> EnumerateBestOneLevel(
    const Table& result, const std::vector<std::string>& candidates,
    const WorkloadStats* stats, const CategorizerOptions& options,
    const SelectionProfile* query) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate attributes to enumerate");
  }
  ProbabilityEstimator estimator(stats, &result.schema());
  CostModel model(&estimator, options.cost_params);

  std::vector<size_t> all_rows(result.num_rows());
  for (size_t i = 0; i < all_rows.size(); ++i) {
    all_rows[i] = i;
  }
  const TableView view = TableView::All(result, nullptr);

  // Scores each candidate independently (masks in ascending order, local
  // strict-minimum) into its own slot, then reduces the slots in candidate
  // order below. That reduction is exactly the sequential earliest-wins
  // scan, so the winning tree is identical at any thread count.
  const auto evaluate = [&](const std::string& attr,
                            std::optional<EnumerationResult>* best)
      -> Status {
    AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                             result.schema().ColumnIndex(attr));
    if (result.schema().column(col).kind == ColumnKind::kCategorical) {
      AUTOCAT_ASSIGN_OR_RETURN(
          auto parts, PartitionCategorical(view, all_rows, attr, *stats));
      ConsiderCandidate(model, OneLevelTree(result, std::move(parts)),
                        {attr}, best);
      return Status::OK();
    }
    // Numeric: enumerate every subset of the candidate split points.
    AUTOCAT_ASSIGN_OR_RETURN(const auto min_max, result.MinMax(col));
    double vmin = min_max.first.AsDouble();
    double vmax = min_max.second.AsDouble();
    if (query != nullptr) {
      const AttributeCondition* cond = query->Find(attr);
      if (cond != nullptr && cond->is_range()) {
        if (std::isfinite(cond->range.lo)) vmin = std::min(vmin, cond->range.lo);
        if (std::isfinite(cond->range.hi)) vmax = std::max(vmax, cond->range.hi);
      }
    }
    const std::vector<SplitPoint> points =
        stats->SplitPointsInRange(attr, vmin, vmax);
    if (points.size() > 16) {
      return Status::InvalidArgument(
          "attribute '" + attr + "' has " + std::to_string(points.size()) +
          " candidate split points; enumeration is capped at 16");
    }
    const size_t max_splits =
        options.max_buckets > 0 ? options.max_buckets - 1 : points.size();
    for (uint32_t mask = 0; mask < (1u << points.size()); ++mask) {
      const size_t bits = static_cast<size_t>(__builtin_popcount(mask));
      if (bits > max_splits) {
        continue;
      }
      std::vector<double> boundaries;
      boundaries.push_back(vmin);
      for (size_t i = 0; i < points.size(); ++i) {
        if (mask & (1u << i)) {
          boundaries.push_back(points[i].v);
        }
      }
      boundaries.push_back(vmax);
      if (vmin == vmax) {
        boundaries = {vmin, vmax};
      }
      auto parts = BucketsFromBoundaries(result, col, attr, boundaries);
      if (parts.empty()) {
        continue;
      }
      ConsiderCandidate(model, OneLevelTree(result, std::move(parts)),
                        {attr}, best);
    }
    return Status::OK();
  };

  std::vector<std::optional<EnumerationResult>> per_candidate(
      candidates.size());
  AUTOCAT_RETURN_IF_ERROR(ParallelFor(
      options.parallel, 0, candidates.size(), /*grain=*/1,
      [&](size_t lo, size_t hi) -> Status {
        for (size_t i = lo; i < hi; ++i) {
          AUTOCAT_RETURN_IF_ERROR(
              evaluate(candidates[i], &per_candidate[i]));
        }
        return Status::OK();
      }));

  std::optional<EnumerationResult> best;
  for (std::optional<EnumerationResult>& candidate_best : per_candidate) {
    if (candidate_best.has_value() &&
        (!best.has_value() || candidate_best->cost < best->cost)) {
      best = std::move(candidate_best);
    }
  }
  if (!best.has_value()) {
    return Status::NotFound("no candidate produced a non-empty tree");
  }
  return std::move(*best);
}

namespace {

void EnumerateOrders(const std::vector<std::string>& candidates,
                     std::vector<bool>& used,
                     std::vector<std::string>& current,
                     std::vector<std::vector<std::string>>& out) {
  if (!current.empty()) {
    out.push_back(current);
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (used[i]) {
      continue;
    }
    used[i] = true;
    current.push_back(candidates[i]);
    EnumerateOrders(candidates, used, current, out);
    current.pop_back();
    used[i] = false;
  }
}

}  // namespace

Result<EnumerationResult> EnumerateBestAttributeOrder(
    const Table& result, const std::vector<std::string>& candidates,
    const WorkloadStats* stats, const CategorizerOptions& options,
    const SelectionProfile* query) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate attributes to enumerate");
  }
  if (candidates.size() > 6) {
    return Status::InvalidArgument(
        "attribute-order enumeration is capped at 6 attributes");
  }
  ProbabilityEstimator estimator(stats, &result.schema());
  CostModel model(&estimator, options.cost_params);

  std::vector<std::vector<std::string>> orders;
  std::vector<bool> used(candidates.size(), false);
  std::vector<std::string> current;
  EnumerateOrders(candidates, used, current, orders);

  // Each chunk of orders keeps a local strict-minimum best; chunks are
  // reduced in chunk (= order) sequence, so ties resolve to the earliest
  // order exactly as the sequential scan does.
  constexpr size_t kOrderGrain = 16;
  const size_t num_chunks =
      orders.empty() ? 0 : (orders.size() + kOrderGrain - 1) / kOrderGrain;
  std::vector<std::optional<EnumerationResult>> per_chunk(num_chunks);
  AUTOCAT_RETURN_IF_ERROR(ParallelFor(
      options.parallel, 0, orders.size(), kOrderGrain,
      [&](size_t lo, size_t hi) -> Status {
        std::optional<EnumerationResult>& best = per_chunk[lo / kOrderGrain];
        for (size_t i = lo; i < hi; ++i) {
          AUTOCAT_ASSIGN_OR_RETURN(
              CategoryTree tree,
              CategorizeWithFixedAttributeOrder(result, orders[i], stats,
                                                options, query));
          ConsiderCandidate(model, std::move(tree), orders[i], &best);
        }
        return Status::OK();
      }));

  std::optional<EnumerationResult> best;
  for (std::optional<EnumerationResult>& chunk_best : per_chunk) {
    if (chunk_best.has_value() &&
        (!best.has_value() || chunk_best->cost < best->cost)) {
      best = std::move(chunk_best);
    }
  }
  if (!best.has_value()) {
    return Status::NotFound("no attribute order produced a tree");
  }
  return std::move(*best);
}

}  // namespace autocat
