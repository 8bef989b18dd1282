// Shared selector registry for the command-line front ends and benches:
// one place maps a `--policy` name to a constructed QuerySelector, so
// deepcrawl_crawl, deepcrawl_compare, and bench_optimal agree on names,
// construction parameters, and error messages. New selector families
// register here once and every tool picks them up.

#ifndef DEEPCRAWL_TOOLS_SELECTOR_FACTORY_H_
#define DEEPCRAWL_TOOLS_SELECTOR_FACTORY_H_

#include <memory>
#include <span>
#include <string>

#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"
#include "src/domain/domain_table.h"
#include "src/index/inverted_index.h"
#include "src/relation/table.h"
#include "src/util/status.h"

namespace deepcrawl {

// Everything a policy might need. `store` is always required; the rest
// is policy-specific and validated by MakeSelectorByName (a missing
// ingredient is a clean InvalidArgument, not a crash).
struct SelectorContext {
  const LocalStore* store = nullptr;
  // random
  uint64_t seed = 1;
  // oracle + domain cost model; mirrors ServerOptions.
  uint32_t page_size = 10;
  // oracle + opt-rank/opt-threshold overflow test; mirrors ServerOptions.
  uint32_t result_limit = 0;
  // opt-rank/opt-threshold: the hierarchy is parsed from this target's
  // catalog on the attribute named `rank_attribute` (no such attribute
  // or no interval values -> the selector degrades to plain greedy).
  const Table* target = nullptr;
  std::string rank_attribute = "range";
  // oracle
  const InvertedIndex* oracle_index = nullptr;
  // domain
  const DomainTable* domain = nullptr;
};

// Known policy names, for --help strings.
inline constexpr const char* kKnownPolicies =
    "bfs|dfs|random|greedy|mmmi|term-weight|adaptive[:a,b,...]|opt-rank|"
    "opt-threshold|oracle|domain";

// One registry row: a policy name plus the one-line description printed
// by --list-selectors and by unknown-policy errors.
struct SelectorInfo {
  const char* name;
  const char* description;
};

// Every registered selector, in presentation order.
std::span<const SelectorInfo> RegisteredSelectors();

// Multi-line "name — description" listing of RegisteredSelectors().
std::string FormatSelectorList();

StatusOr<std::unique_ptr<QuerySelector>> MakeSelectorByName(
    const std::string& policy, const SelectorContext& context);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_TOOLS_SELECTOR_FACTORY_H_
