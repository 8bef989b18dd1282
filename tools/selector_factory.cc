#include "tools/selector_factory.h"

#include <utility>
#include <vector>

#include "src/crawler/adaptive_selector.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/optimal_selector.h"
#include "src/crawler/oracle_selector.h"
#include "src/crawler/term_weight_selector.h"
#include "src/domain/domain_selector.h"

namespace deepcrawl {

namespace {

constexpr SelectorInfo kRegistry[] = {
    {"bfs", "breadth-first baseline: Lto-query as a FIFO queue (§3.1)"},
    {"dfs", "depth-first baseline: Lto-query as a LIFO stack (§3.1)"},
    {"random", "uniform random pick from Lto-query (§3.1)"},
    {"greedy", "greedy link-based: highest local degree first (§3.2)"},
    {"mmmi",
     "greedy until saturation, then min-max mutual-information batches "
     "(§3.3)"},
    {"term-weight",
     "TF·IDF term weighting over harvested documents (textual sources; "
     "Gupta & Bhatia)"},
    {"adaptive",
     "meta-policy greedy → mmmi → term-weight, advancing when the "
     "harvest-rate EWMA decays; adaptive:a,b,... sets a custom chain"},
    {"opt-rank",
     "competitive rank-hierarchy descent, within 2×OPT (needs a rank "
     "attribute)"},
    {"opt-threshold", "threshold variant of the rank-hierarchy descent"},
    {"oracle",
     "true-harvest-rate oracle from the backend index (harness-only "
     "upper bound)"},
    {"domain", "scripted domain-table selection (needs --domain-input)"},
};

// Policies an adaptive chain may contain: frontier-driven (the shared
// event stream fully describes their candidate set) and built from the
// local store alone, without ground truth or a domain table.
bool ChainEligible(const std::string& policy) {
  return policy == "bfs" || policy == "dfs" || policy == "random" ||
         policy == "greedy" || policy == "mmmi" || policy == "term-weight";
}

StatusOr<std::unique_ptr<QuerySelector>> MakeAdaptive(
    const std::string& policy, const SelectorContext& context) {
  std::vector<std::string> chain;
  if (policy == "adaptive") {
    chain = {"greedy", "mmmi", "term-weight"};
  } else {
    std::string rest = policy.substr(std::string("adaptive:").size());
    size_t begin = 0;
    while (begin <= rest.size()) {
      size_t comma = rest.find(',', begin);
      size_t end = comma == std::string::npos ? rest.size() : comma;
      chain.push_back(rest.substr(begin, end - begin));
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
    if (chain.size() < 2) {
      return Status::InvalidArgument(
          "adaptive chain needs at least two policies "
          "(adaptive:a,b[,c...])");
    }
  }
  std::vector<std::unique_ptr<QuerySelector>> children;
  children.reserve(chain.size());
  for (const std::string& child : chain) {
    if (!ChainEligible(child)) {
      return Status::InvalidArgument(
          "adaptive chain policy '" + child +
          "' is not eligible (frontier-driven policies only: "
          "bfs|dfs|random|greedy|mmmi|term-weight)");
    }
    DEEPCRAWL_ASSIGN_OR_RETURN(std::unique_ptr<QuerySelector> selector,
                               MakeSelectorByName(child, context));
    children.push_back(std::move(selector));
  }
  std::unique_ptr<QuerySelector> selector =
      std::make_unique<AdaptiveSelector>(std::move(children));
  return selector;
}

}  // namespace

std::span<const SelectorInfo> RegisteredSelectors() { return kRegistry; }

std::string FormatSelectorList() {
  std::string out = "registered selectors:\n";
  for (const SelectorInfo& info : kRegistry) {
    out += "  ";
    out += info.name;
    size_t pad = 14;
    size_t len = std::string(info.name).size();
    for (size_t i = len; i < pad; ++i) out += ' ';
    out += info.description;
    out += '\n';
  }
  return out;
}

StatusOr<std::unique_ptr<QuerySelector>> MakeSelectorByName(
    const std::string& policy, const SelectorContext& context) {
  // Two user-defined conversions (unique_ptr<Derived> -> unique_ptr<
  // QuerySelector> -> StatusOr) don't chain implicitly, hence the named
  // base-typed pointer per branch.
  std::unique_ptr<QuerySelector> selector;
  if (policy == "bfs") {
    selector = std::make_unique<BfsSelector>();
    return selector;
  }
  if (policy == "dfs") {
    selector = std::make_unique<DfsSelector>();
    return selector;
  }
  if (policy == "random") {
    selector = std::make_unique<RandomSelector>(context.seed);
    return selector;
  }
  if (policy == "adaptive" || policy.rfind("adaptive:", 0) == 0) {
    return MakeAdaptive(policy, context);
  }
  if (context.store == nullptr) {
    return Status::InvalidArgument("selector context has no local store");
  }
  if (policy == "term-weight") {
    selector = std::make_unique<TermWeightSelector>(*context.store);
    return selector;
  }
  if (policy == "greedy") {
    selector = std::make_unique<GreedyLinkSelector>(*context.store);
    return selector;
  }
  if (policy == "mmmi") {
    selector = std::make_unique<MmmiSelector>(*context.store);
    return selector;
  }
  if (policy == "opt-rank" || policy == "opt-threshold") {
    if (context.target == nullptr) {
      return Status::InvalidArgument("policy '" + policy +
                                     "' needs the target table (for the "
                                     "rank hierarchy)");
    }
    // A target without the rank attribute yields an empty hierarchy and
    // the selector degrades to plain greedy — that is deliberate, so
    // opt-* can run on any workload for comparison.
    AttributeId rank_attr = kInvalidAttributeId;
    StatusOr<AttributeId> found =
        context.target->schema().FindAttribute(context.rank_attribute);
    if (found.ok()) rank_attr = found.value();
    DEEPCRAWL_ASSIGN_OR_RETURN(
        QueryHierarchy hierarchy,
        QueryHierarchy::FromCatalog(context.target->catalog(), rank_attr));
    OptimalSelectorOptions opts;
    opts.mode = policy == "opt-rank" ? OptimalMode::kRank
                                     : OptimalMode::kThreshold;
    opts.result_limit = context.result_limit;
    selector = std::make_unique<RankOptimalSelector>(
        *context.store, std::move(hierarchy), opts);
    return selector;
  }
  if (policy == "oracle") {
    if (context.oracle_index == nullptr) {
      return Status::InvalidArgument(
          "policy 'oracle' needs the backend's inverted index");
    }
    selector = std::make_unique<OracleSelector>(*context.store,
                                                *context.oracle_index,
                                                context.page_size,
                                                context.result_limit);
    return selector;
  }
  if (policy == "domain") {
    if (context.domain == nullptr) {
      return Status::InvalidArgument(
          "policy 'domain' needs a domain table (--domain-input=<tsv>)");
    }
    selector = std::make_unique<DomainSelector>(
        *context.store, *context.domain, context.page_size);
    return selector;
  }
  return Status::InvalidArgument("unknown policy '" + policy + "'\n" +
                                 FormatSelectorList());
}

}  // namespace deepcrawl
