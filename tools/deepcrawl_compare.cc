// deepcrawl_compare — run several query-selection policies against the
// same target and compare their coverage/cost curves (the shape of the
// paper's Figures 3-5, for your own data).
//
// Example:
//   deepcrawl_compare --workload=ebay --scale=0.1 ...
//       --policies=bfs,random,greedy,mmmi --max-rounds=2000 ...
//       --comparison-csv=curves.csv

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/trace_io.h"
#include "src/server/web_db_server.h"
#include "src/util/flags.h"
#include "src/util/table_printer.h"
#include "tools/selector_factory.h"
#include "tools/workload_setup.h"

namespace deepcrawl {
namespace {

struct Options {
  WorkloadFlagOptions workload;
  ServerFlagOptions server;
  std::string policies = "bfs,random,greedy,mmmi";
  std::string rank_attribute = "range";
  int64_t max_rounds = 0;
  double saturation = 0.85;
  int64_t seed = 1;
  std::string comparison_csv;
  bool help = false;
  bool list_selectors = false;
};

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::istringstream stream(text);
  std::string part;
  while (std::getline(stream, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

Status Run(const Options& options) {
  std::optional<AdversarialGroundTruth> adv;
  DEEPCRAWL_ASSIGN_OR_RETURN(Table target,
                             LoadTargetTable(options.workload, adv));
  std::cout << "target: " << target.num_records() << " records, "
            << target.num_distinct_values() << " distinct values\n";
  if (adv.has_value()) {
    std::cout << "adversarial: family=" << options.workload.adv_family
              << " opt=" << adv->opt_queries << " queries\n";
  }
  std::cout << "\n";

  ServerOptions server_options = BuildServerOptions(options.server, adv);
  WebDbServer server(target, server_options);

  // One deterministic seed value shared by every policy; adversarial
  // targets seed from the hierarchy root (matches every record) so no
  // policy luckily starts inside a decoy cluster.
  ValueId seed_value;
  if (adv.has_value()) {
    seed_value = adv->root_value;
  } else {
    seed_value = static_cast<ValueId>(
        (1 + 2654435761ull * static_cast<uint64_t>(options.seed)) %
        target.num_distinct_values());
    while (target.value_frequency(seed_value) == 0) {
      seed_value = static_cast<ValueId>((seed_value + 1) %
                                        target.num_distinct_values());
    }
  }

  std::vector<std::string> columns = {"policy", "records",  "coverage",
                                      "rounds", "queries", "stop"};
  if (adv.has_value()) {
    columns.insert(columns.begin() + 5, "cost/OPT");
  }
  TablePrinter table(columns);
  std::vector<CrawlTrace> traces;
  std::vector<NamedTrace> named;
  std::vector<std::string> names = SplitCommas(options.policies);
  traces.reserve(names.size());
  for (const std::string& name : names) {
    LocalStore store;
    SelectorContext selector_context;
    selector_context.store = &store;
    selector_context.seed = static_cast<uint64_t>(options.seed);
    selector_context.page_size = server_options.page_size;
    selector_context.result_limit = server_options.result_limit;
    selector_context.target = &target;
    selector_context.rank_attribute = options.rank_attribute;
    selector_context.oracle_index = &server.index();
    DEEPCRAWL_ASSIGN_OR_RETURN(std::unique_ptr<QuerySelector> selector,
                               MakeSelectorByName(name, selector_context));

    CrawlOptions crawl_options;
    crawl_options.max_rounds = static_cast<uint64_t>(options.max_rounds);
    if (adv.has_value()) {
      // Stop at full coverage: the competitive measure is queries to
      // harvest everything, not queries to drain the frontier.
      crawl_options.target_records = target.num_records();
    }
    if (options.saturation > 0.0) {
      crawl_options.saturation_records = static_cast<uint64_t>(
          options.saturation * static_cast<double>(target.num_records()));
    }
    CrawlEngine engine(server, *selector, store, crawl_options);
    engine.AddSeed(seed_value);
    DEEPCRAWL_ASSIGN_OR_RETURN(CrawlResult result, engine.Run());
    double coverage = static_cast<double>(result.records) /
                      static_cast<double>(target.num_records());
    std::vector<std::string> row = {name, std::to_string(result.records),
                                    TablePrinter::FormatPercent(coverage, 1),
                                    std::to_string(result.rounds),
                                    std::to_string(result.queries)};
    if (adv.has_value()) {
      // A generated instance without an exact OPT (opt_queries == 0)
      // has no meaningful ratio; "n/a" beats a misleading 0.00.
      if (adv->opt_queries == 0) {
        row.push_back("n/a");
      } else {
        double ratio = static_cast<double>(result.queries) /
                       static_cast<double>(adv->opt_queries);
        row.push_back(TablePrinter::FormatDouble(ratio, 2));
      }
    }
    row.push_back(std::string(StopReasonToString(result.stop_reason)));
    table.AddRow(row);
    traces.push_back(std::move(result.trace));
  }
  table.Print(std::cout);

  if (!options.comparison_csv.empty()) {
    for (size_t i = 0; i < names.size(); ++i) {
      named.push_back(NamedTrace{names[i], &traces[i]});
    }
    std::ofstream file(options.comparison_csv);
    if (!file) {
      return Status::NotFound("cannot create '" + options.comparison_csv +
                              "'");
    }
    DEEPCRAWL_RETURN_IF_ERROR(WriteComparisonCsv(named, file));
    std::cout << "\ncurves written to " << options.comparison_csv << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace deepcrawl

int main(int argc, char** argv) {
  using namespace deepcrawl;
  Options options;
  FlagParser parser;
  RegisterWorkloadFlags(parser, &options.workload);
  parser.AddString("policies", &options.policies,
                   "comma-separated subset of " +
                       std::string(kKnownPolicies) +
                       " (see --list-selectors)");
  parser.AddString("rank-attribute", &options.rank_attribute,
                   "interval attribute for opt-rank/opt-threshold");
  RegisterServerFlags(parser, &options.server);
  parser.AddInt64("max-rounds", &options.max_rounds, 0, INT64_MAX,
                  "round budget per policy (0 = unbounded)");
  parser.AddDouble("saturation", &options.saturation, 0.0, 1.0,
                   "coverage at which MMMI switches on (0 = never)");
  parser.AddInt64("seed", &options.seed, INT64_MIN, INT64_MAX,
                  "seed-value choice");
  parser.AddString("comparison-csv", &options.comparison_csv,
                   "write aligned per-policy coverage curves to this CSV");
  parser.AddBool("list-selectors", &options.list_selectors,
                 "print every registered selection policy and exit");
  parser.AddBool("help", &options.help, "print this help");

  Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.ToString() << "\n\nflags:\n"
              << parser.HelpText();
    return 2;
  }
  if (options.help) {
    std::cout << "deepcrawl_compare — compare query-selection policies "
                 "on one target\n\nflags:\n"
              << parser.HelpText();
    return 0;
  }
  if (options.list_selectors) {
    std::cout << FormatSelectorList();
    return 0;
  }
  Status status = Run(options);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
