#include "core/ranking.h"

#include <algorithm>

#include "common/check.h"

namespace autocat {

Result<double> TupleScore(const Table& table, size_t row,
                          const std::vector<std::string>& attributes,
                          const WorkloadStats& stats) {
  if (row >= table.num_rows()) {
    return Status::OutOfRange("row index out of range");
  }
  double score = 0;
  for (const std::string& attr : attributes) {
    AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                             table.schema().ColumnIndex(attr));
    const Value v = table.CellValue(row, col);
    if (v.is_null()) {
      continue;
    }
    const size_t nattr = stats.AttrUsageCount(attr);
    if (nattr == 0) {
      continue;
    }
    score += static_cast<double>(stats.OccurrenceCount(attr, v)) /
             static_cast<double>(nattr);
  }
  return score;
}

Result<std::vector<size_t>> RankTuples(
    const Table& table, const std::vector<size_t>& tuples,
    const std::vector<std::string>& attributes,
    const WorkloadStats& stats) {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(tuples.size());
  for (size_t position = 0; position < tuples.size(); ++position) {
    AUTOCAT_ASSIGN_OR_RETURN(
        const double score,
        TupleScore(table, tuples[position], attributes, stats));
    scored.emplace_back(score, position);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<size_t> out;
  out.reserve(tuples.size());
  for (const auto& [score, position] : scored) {
    (void)score;
    out.push_back(tuples[position]);
  }
  return out;
}

Status ApplyLeafRanking(CategoryTree& tree,
                        const std::vector<std::string>& attributes,
                        const WorkloadStats& stats) {
  const std::vector<std::string>& attrs =
      attributes.empty() ? tree.level_attributes() : attributes;
  if (attrs.empty()) {
    return Status::OK();  // nothing to rank by
  }
  for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
    CategoryNode& node = tree.mutable_node(id);
    AUTOCAT_ASSIGN_OR_RETURN(
        node.tuples, RankTuples(tree.result(), node.tuples, attrs, stats));
  }
  // Reordering tsets must not break the structural invariants.
  AUTOCAT_DCHECK(tree.Validate().ok());
  return Status::OK();
}

}  // namespace autocat
