#include "src/crawler/optimal_selector.h"

#include <algorithm>
#include <string>

#include "src/util/logging.h"

namespace deepcrawl {

bool QueryHierarchy::ParseInterval(std::string_view text, uint32_t& lo,
                                   uint32_t& hi) {
  if (text.size() < 4 || text[0] != 'r') return false;
  size_t dash = text.find('-', 1);
  if (dash == std::string_view::npos || dash == 1 ||
      dash + 1 >= text.size()) {
    return false;
  }
  auto parse = [](std::string_view digits, uint32_t& out) {
    if (digits.empty() || digits.size() > 9) return false;
    uint64_t value = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    out = static_cast<uint32_t>(value);
    return true;
  };
  return parse(text.substr(1, dash - 1), lo) &&
         parse(text.substr(dash + 1), hi) && lo <= hi;
}

StatusOr<QueryHierarchy> QueryHierarchy::FromCatalog(
    const ValueCatalog& catalog, AttributeId rank_attribute) {
  QueryHierarchy hierarchy;
  if (rank_attribute == kInvalidAttributeId) return hierarchy;
  for (ValueId v = 0; v < catalog.size(); ++v) {
    if (catalog.attribute_of(v) != rank_attribute) continue;
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!ParseInterval(catalog.text_of(v), lo, hi)) continue;
    Node node;
    node.value = v;
    node.lo = lo;
    node.hi = hi;
    hierarchy.nodes_.push_back(std::move(node));
  }
  if (hierarchy.nodes_.empty()) return hierarchy;

  // Sort by (lo asc, width desc): an enclosing interval precedes every
  // interval it contains, so a stack of open ancestors finds each node's
  // tightest enclosing parent in one pass.
  std::sort(hierarchy.nodes_.begin(), hierarchy.nodes_.end(),
            [](const Node& a, const Node& b) {
              if (a.lo != b.lo) return a.lo < b.lo;
              if (a.hi != b.hi) return a.hi > b.hi;
              return a.value < b.value;
            });
  std::vector<uint32_t> open;  // indices of ancestors enclosing the cursor
  for (uint32_t i = 0; i < hierarchy.nodes_.size(); ++i) {
    Node& node = hierarchy.nodes_[i];
    while (!open.empty() && hierarchy.nodes_[open.back()].hi < node.lo) {
      open.pop_back();
    }
    if (!open.empty()) {
      const Node& top = hierarchy.nodes_[open.back()];
      if (top.lo == node.lo && top.hi == node.hi) {
        return Status::InvalidArgument(
            "rank hierarchy has two values for interval [" +
            std::to_string(node.lo) + ", " + std::to_string(node.hi) + "]");
      }
      if (node.hi > top.hi) {
        return Status::InvalidArgument(
            "rank hierarchy intervals overlap without nesting: [" +
            std::to_string(node.lo) + ", " + std::to_string(node.hi) +
            "] vs [" + std::to_string(top.lo) + ", " +
            std::to_string(top.hi) + "]");
      }
      node.parent = open.back();
      hierarchy.nodes_[open.back()].children.push_back(i);
    } else {
      node.parent = kNoNode;
      hierarchy.roots_.push_back(i);
    }
    open.push_back(i);
  }

  ValueId max_value = 0;
  for (const Node& node : hierarchy.nodes_) {
    max_value = std::max(max_value, node.value);
  }
  hierarchy.node_of_.assign(static_cast<size_t>(max_value) + 1, kNoNode);
  for (uint32_t i = 0; i < hierarchy.nodes_.size(); ++i) {
    hierarchy.node_of_[hierarchy.nodes_[i].value] = i;
  }
  return hierarchy;
}

RankOptimalSelector::RankOptimalSelector(const LocalStore& store,
                                         QueryHierarchy hierarchy,
                                         OptimalSelectorOptions options)
    : GreedyLinkSelector(store),
      hierarchy_(std::move(hierarchy)),
      options_(options),
      status_(hierarchy_.num_nodes(), NodeStatus::kUnvisited),
      has_count_(hierarchy_.num_nodes(), 0),
      count_(hierarchy_.num_nodes(), 0) {}

void RankOptimalSelector::OnValueDiscovered(ValueId v) {
  uint32_t node = hierarchy_.NodeOf(v);
  if (node == QueryHierarchy::kNoNode) {
    // Ordinary value: greedy frontier, drained after the descent.
    GreedyLinkSelector::OnValueDiscovered(v);
    return;
  }
  // Hierarchy values never enter the greedy frontier — the descent owns
  // them. A forest root seen for the first time starts its descent;
  // deeper nodes sighted on result pages stay kUnvisited until their
  // parent overflows (querying them earlier could not be charged against
  // the competitive bound).
  if (hierarchy_.node(node).parent == QueryHierarchy::kNoNode &&
      status_[node] == NodeStatus::kUnvisited) {
    status_[node] = NodeStatus::kQueued;
    descent_.push_back(node);
  }
}

bool RankOptimalSelector::Overflowed(const QueryOutcome& outcome) const {
  // Pages lost to faults or the abort policy: the retrieved prefix is
  // untrustworthy, so descend and re-cover from the children.
  if (outcome.degraded || outcome.aborted) return true;
  if (options_.result_limit == 0) return false;  // unlimited retrieval
  if (options_.mode == OptimalMode::kRank &&
      outcome.total_matches.has_value()) {
    return *outcome.total_matches > options_.result_limit;
  }
  // Count-free threshold test (also the kRank fallback when the server
  // does not report counts): a full window may hide more records.
  return outcome.records_returned >= options_.result_limit;
}

void RankOptimalSelector::OnQueryCompleted(const QueryOutcome& outcome) {
  uint32_t node = hierarchy_.NodeOf(outcome.value);
  if (node == QueryHierarchy::kNoNode) return;
  if (status_[node] != NodeStatus::kIssued) return;  // exactly-once guard
  status_[node] = NodeStatus::kResolved;
  ++resolved_;
  if (outcome.total_matches.has_value()) {
    has_count_[node] = 1;
    count_[node] = *outcome.total_matches;
  }
  if (!Overflowed(outcome)) return;
  ++overflowed_;
  const QueryHierarchy::Node& n = hierarchy_.node(node);
  // Right-before-left: retrieval is lowest-rank-first, so the records
  // this node DID return cover a prefix of its range — the right
  // children hold the unseen mass, and querying them first lets count
  // arithmetic prove left siblings redundant by the time they pop.
  for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
    if (status_[*it] != NodeStatus::kUnvisited) continue;
    status_[*it] = NodeStatus::kQueued;
    descent_.push_back(*it);
  }
}

bool RankOptimalSelector::TrySkip(uint32_t node_idx) {
  if (options_.mode != OptimalMode::kRank) return false;
  const QueryHierarchy::Node& node = hierarchy_.node(node_idx);
  if (node.parent == QueryHierarchy::kNoNode) return false;
  if (!has_count_[node.parent]) return false;
  uint64_t sibling_sum = 0;
  for (uint32_t sibling : hierarchy_.node(node.parent).children) {
    if (sibling == node_idx) continue;
    if (!has_count_[sibling]) return false;
    sibling_sum += count_[sibling];
  }
  uint64_t parent_count = count_[node.parent];
  if (sibling_sum > parent_count) return false;  // inconsistent counts
  uint64_t implied = parent_count - sibling_sum;
  if (implied != 0 && store().LocalFrequency(node.value) != implied) {
    return false;
  }
  has_count_[node_idx] = 1;
  count_[node_idx] = static_cast<uint32_t>(implied);
  return true;
}

ValueId RankOptimalSelector::SelectNext() {
  while (!descent_.empty()) {
    uint32_t node = descent_.front();
    descent_.pop_front();
    DEEPCRAWL_DCHECK(status_[node] == NodeStatus::kQueued)
        << "descent queue holds a non-queued node";
    if (TrySkip(node)) {
      status_[node] = NodeStatus::kSkipped;
      ++skipped_;
      continue;
    }
    status_[node] = NodeStatus::kIssued;
    ++descended_;
    return hierarchy_.node(node).value;
  }
  ValueId v = GreedyLinkSelector::SelectNext();
  if (v != kInvalidValueId) ++fallback_selects_;
  return v;
}

}  // namespace deepcrawl
