#include "explore/exploration.h"

#include "common/check.h"

namespace autocat {

std::string_view ScenarioToString(Scenario scenario) {
  switch (scenario) {
    case Scenario::kAll:
      return "ALL";
    case Scenario::kOne:
      return "ONE";
  }
  return "unknown";
}

SimulatedExplorer::SimulatedExplorer(Options options)
    : options_(options) {
  if (options_.decision_noise > 0) {
    AUTOCAT_CHECK(options_.rng != nullptr);
  }
}

bool SimulatedExplorer::MaybeFlip(bool decision) const {
  if (options_.decision_noise > 0 &&
      options_.rng->Bernoulli(options_.decision_noise)) {
    return !decision;
  }
  return decision;
}

void SimulatedExplorer::Record(ExplorationEvent::Kind kind, NodeId node,
                               size_t tuples_examined,
                               size_t relevant_found) const {
  if (options_.trace == nullptr) {
    return;
  }
  ExplorationEvent event;
  event.kind = kind;
  event.node = node;
  event.tuples_examined = tuples_examined;
  event.relevant_found = relevant_found;
  options_.trace->push_back(event);
}

void SimulatedExplorer::ExamineTuples(const CategoryTree& tree, NodeId id,
                                      const SelectionProfile& interest,
                                      ExplorationResult* result) const {
  const CategoryNode& node = tree.node(id);
  const Table& table = tree.result();
  Row scratch;
  if (options_.scenario == Scenario::kAll) {
    // Figure 2: examine every tuple in tset(C).
    result->tuples_examined += node.tuples.size();
    for (size_t idx : node.tuples) {
      if (interest.MatchesRow(table.RowRef(idx, &scratch),
                              table.schema())) {
        ++result->relevant_found;
      }
    }
    return;
  }
  // Figure 3: examine from the beginning until the first relevant tuple.
  for (size_t idx : node.tuples) {
    ++result->tuples_examined;
    if (interest.MatchesRow(table.RowRef(idx, &scratch),
                            table.schema())) {
      ++result->relevant_found;
      result->found_any = true;
      return;
    }
  }
}

void SimulatedExplorer::ExploreNode(const CategoryTree& tree, NodeId id,
                                    const SelectionProfile& interest,
                                    ExplorationResult* result) const {
  const CategoryNode& node = tree.node(id);
  ++result->categories_explored;

  bool show_tuples = true;
  if (!node.is_leaf()) {
    const auto sa = tree.SubcategorizingAttribute(id);
    AUTOCAT_CHECK(sa.ok());
    // Section 4.2's presumption: SHOWCAT iff the user has a selection
    // condition on the subcategorizing attribute.
    show_tuples = MaybeFlip(!interest.Constrains(sa.value()));
  }
  if (show_tuples) {
    const size_t tuples_before = result->tuples_examined;
    const size_t relevant_before = result->relevant_found;
    ExamineTuples(tree, id, interest, result);
    Record(ExplorationEvent::Kind::kShowTuples, id,
           result->tuples_examined - tuples_before,
           result->relevant_found - relevant_before);
    return;
  }
  Record(ExplorationEvent::Kind::kShowCat, id);

  // Option SHOWCAT: walk the subcategory labels in presentation order.
  for (NodeId child_id : node.children) {
    ++result->labels_examined;
    Record(ExplorationEvent::Kind::kExamineLabel, child_id);
    const CategoryNode& child = tree.node(child_id);
    const AttributeCondition* cond =
        interest.Find(child.label.attribute());
    // A label on an unconstrained attribute cannot be ruled out.
    const bool overlaps =
        (cond == nullptr) || child.label.OverlapsCondition(*cond);
    if (!MaybeFlip(overlaps)) {
      Record(ExplorationEvent::Kind::kIgnore, child_id);
      continue;
    }
    ExploreNode(tree, child_id, interest, result);
    if (options_.scenario == Scenario::kOne && result->found_any) {
      // Figure 3: once a drill-down finds a relevant tuple the user stops
      // examining the remaining labels of C.
      return;
    }
  }
}

ExplorationResult SimulatedExplorer::Explore(
    const CategoryTree& tree, const SelectionProfile& interest) const {
  ExplorationResult result;
  ExploreNode(tree, tree.root(), interest, &result);
  result.items_examined =
      options_.label_cost * static_cast<double>(result.labels_examined) +
      static_cast<double>(result.tuples_examined);
  return result;
}

}  // namespace autocat
