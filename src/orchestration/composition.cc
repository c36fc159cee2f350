#include "orchestration/composition.h"

namespace taureau::orchestration {

Composition Composition::Task(std::string function_name) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kTask;
  node->name = std::move(function_name);
  return Composition(std::move(node));
}

Composition Composition::Sequence(std::vector<Composition> steps) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kSequence;
  node->children.reserve(steps.size());
  for (auto& s : steps) node->children.push_back(s.root());
  return Composition(std::move(node));
}

Composition Composition::Parallel(std::vector<Composition> branches,
                                  Aggregator aggregate) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kParallel;
  node->children.reserve(branches.size());
  for (auto& b : branches) node->children.push_back(b.root());
  node->aggregate = std::move(aggregate);
  return Composition(std::move(node));
}

Composition Composition::Choice(Predicate pred, Composition then_branch,
                                Composition else_branch) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kChoice;
  node->predicate = std::move(pred);
  node->children = {then_branch.root(), else_branch.root()};
  return Composition(std::move(node));
}

Composition Composition::Named(std::string composition_name) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNamed;
  node->name = std::move(composition_name);
  return Composition(std::move(node));
}

Composition Composition::Retry(Composition child, chaos::RetryPolicy policy) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kRetry;
  node->retry_policy = policy;
  node->children = {child.root()};
  return Composition(std::move(node));
}

Composition Composition::Map(Composition item, char delimiter) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kMap;
  node->map_delimiter = delimiter;
  node->children = {item.root()};
  return Composition(std::move(node));
}

Composition Composition::WithDeadline(Composition child,
                                      SimDuration budget_us) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kDeadline;
  node->deadline_budget_us = budget_us < 0 ? 0 : budget_us;
  node->children = {child.root()};
  return Composition(std::move(node));
}

namespace {
size_t CountLeaves(const Composition::Node& node) {
  if (node.kind == Composition::Kind::kTask ||
      node.kind == Composition::Kind::kNamed) {
    return 1;
  }
  size_t n = 0;
  for (const auto& c : node.children) n += CountLeaves(*c);
  return n;
}
}  // namespace

size_t Composition::LeafCount() const { return CountLeaves(*root_); }

}  // namespace taureau::orchestration
