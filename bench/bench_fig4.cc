// Figure 4 — "Effects of Mutual-Information-based Ordering" (eBay).
//
// Paper setup: the greedy link-based crawler crawls the eBay auction
// database; at 85% coverage the crawler switches to MMMI ordering
// (Min-Max Mutual Information, §3.3). The figure plots coverage 85%-100%
// against communication rounds: GL+MMMI reaches full coverage about
// 1,200 rounds (~10%) cheaper than plain GL by deprioritizing candidates
// correlated with already-issued queries.
//
// This harness reproduces the comparison on the regenerated eBay
// database at the paper's size (scale 1.0, about 20k records), averaged
// over several seeds (the effect is seed-noisy), reporting rounds at
// deep-coverage milestones.

#include <iostream>

#include "bench/bench_common.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/mmmi_selector.h"
#include "src/datagen/canned_workloads.h"
#include "src/util/table_printer.h"

namespace {
constexpr double kScale = 1.0;
constexpr int kNumSeeds = 6;
constexpr double kMilestones[] = {0.85, 0.90, 0.95, 0.99};
}  // namespace

int main() {
  using namespace deepcrawl;
  bench::PrintBanner(
      "Figure 4: effects of MMMI ordering on marginal content (eBay)",
      "eBay 20k records, k=10; switch GL -> MMMI at 85% coverage; MMMI "
      "saves ~1,200 rounds to full coverage",
      "regenerated eBay at scale " + TablePrinter::FormatDouble(kScale, 2) +
          ", crawl to 99% coverage, average of " +
          std::to_string(kNumSeeds) + " seeds");

  double rounds_gl[4] = {0, 0, 0, 0};
  double rounds_mmmi[4] = {0, 0, 0, 0};
  double total_gl = 0, total_mmmi = 0;

  for (int s = 0; s < kNumSeeds; ++s) {
    StatusOr<Table> generated = GenerateTable(EbayConfig(kScale, 20 + s));
    DEEPCRAWL_CHECK(generated.ok()) << generated.status().ToString();
    const Table& db = *generated;
    WebDbServer server(db, ServerOptions{});

    CrawlOptions options;
    options.target_records =
        static_cast<uint64_t>(0.99 * static_cast<double>(db.num_records()));
    options.saturation_records =
        static_cast<uint64_t>(0.85 * static_cast<double>(db.num_records()));

    auto accumulate = [&](QuerySelector& selector, LocalStore& store,
                          double* milestones, double& total) {
      CrawlResult result = bench::RunCrawl(
          server, selector, store, options,
          bench::SeedValue(db, static_cast<uint32_t>(s)));
      for (int m = 0; m < 4; ++m) {
        uint64_t target = static_cast<uint64_t>(
            kMilestones[m] * static_cast<double>(db.num_records()));
        milestones[m] += static_cast<double>(
            result.trace.RoundsToRecords(target).value_or(result.rounds));
      }
      total += static_cast<double>(result.rounds);
    };

    {
      LocalStore store;
      GreedyLinkSelector selector(store);
      accumulate(selector, store, rounds_gl, total_gl);
    }
    {
      LocalStore store;
      MmmiSelector selector(store);
      accumulate(selector, store, rounds_mmmi, total_mmmi);
    }
  }

  TablePrinter table({"policy", "rounds@85%", "@90%", "@95%", "@99%"});
  auto add_row = [&](const char* name, const double* milestones) {
    std::vector<std::string> row = {name};
    for (int m = 0; m < 4; ++m) {
      row.push_back(TablePrinter::FormatDouble(milestones[m] / kNumSeeds, 0));
    }
    table.AddRow(row);
  };
  add_row("greedy-link", rounds_gl);
  add_row("greedy-link+mmmi", rounds_mmmi);
  table.Print(std::cout);

  double saving = (total_gl - total_mmmi) / total_gl;
  std::cout << "\ntotal rounds to 99% coverage (sum over seeds): GL="
            << TablePrinter::FormatDouble(total_gl, 0)
            << "  GL+MMMI=" << TablePrinter::FormatDouble(total_mmmi, 0)
            << "  saving=" << TablePrinter::FormatPercent(saving, 1)
            << "\npaper: ~1,200 of ~12,000 rounds saved (~10%); shape "
               "reproduced when the saving is positive.\n";
  return 0;
}
