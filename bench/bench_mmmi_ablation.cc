// §3.3 ablation — MMMI ranking variants and the marginal-phase cost.
//
//  1. MMMI ranking. The paper's literal text sorts Lto-query ascending
//     by the max-PMI dependency s(q) alone (HR ∝ 1/s); it also says the
//     method "is used together with the greedy link-based approach".
//     This library defaults to the degree-discounted combination
//     degree * exp(-s). The ablation compares plain GL, literal MMMI,
//     the combination, and the weighted-mean PMI alternative the paper
//     floats instead of max().
//
//  2. MMMI scoring cost. This bench times the MARGINAL PHASE — the
//     crawl segment from the 85% saturation switch to the 99% target,
//     where every batch pays the scoring cost. With --json=<path> the
//     numbers land in BENCH_mmmi_ablation.json for the check.sh perf
//     pass.

#include <chrono>
#include <iostream>

#include "bench/bench_common.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/mmmi_selector.h"
#include "src/datagen/canned_workloads.h"
#include "src/util/table_printer.h"

namespace {
constexpr double kScale = 0.1;
constexpr int kNumSeeds = 5;

// The scoring-cost timing runs on a larger database than the
// round-count ablation: scoring cost grows with the pending set, so a
// small store hides it behind the fetch/ingest cost.
constexpr double kMarginalScale = 0.3;
constexpr int kMarginalSeeds = 3;
constexpr int kMarginalReps = 3;

// One staged crawl: greedy-link to the 85% saturation point (untimed),
// then MMMI batches to 99% (timed). Returns the marginal-phase
// wall-clock seconds and adds its rounds to *rounds_out.
double MarginalPhaseSeconds(const deepcrawl::Table& db,
                            deepcrawl::ValueId seed_value,
                            uint64_t* rounds_out) {
  using namespace deepcrawl;
  uint64_t n = db.num_records();
  WebDbServer server(db, ServerOptions{});
  LocalStore store;
  MmmiSelector selector(store);
  CrawlOptions options;
  options.saturation_records =
      static_cast<uint64_t>(0.85 * static_cast<double>(n));
  options.target_records = options.saturation_records;
  CrawlEngine engine(server, selector, store, options);
  engine.AddSeed(seed_value);
  StatusOr<CrawlResult> warm = engine.Run();
  DEEPCRAWL_CHECK(warm.ok()) << warm.status().ToString();

  uint64_t rounds_before = engine.rounds_used();
  engine.set_target_records(
      static_cast<uint64_t>(0.99 * static_cast<double>(n)));
  auto start = std::chrono::steady_clock::now();
  StatusOr<CrawlResult> marginal = engine.Run();
  double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  DEEPCRAWL_CHECK(marginal.ok()) << marginal.status().ToString();
  *rounds_out += engine.rounds_used() - rounds_before;
  return seconds;
}

// Sums the marginal phase over the seed sweep; best-of-kMarginalReps
// total.
double MarginalSweepSeconds(uint64_t* rounds_out) {
  using namespace deepcrawl;
  double best = 0.0;
  for (int rep = 0; rep < kMarginalReps; ++rep) {
    double total = 0.0;
    uint64_t rounds = 0;
    for (int s = 0; s < kMarginalSeeds; ++s) {
      StatusOr<Table> generated =
          GenerateTable(EbayConfig(kMarginalScale, 60 + s));
      DEEPCRAWL_CHECK(generated.ok());
      total += MarginalPhaseSeconds(
          *generated, bench::SeedValue(*generated, static_cast<uint32_t>(s)),
          &rounds);
    }
    if (rep == 0 || total < best) best = total;
    *rounds_out = rounds;  // identical across reps (deterministic crawl)
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepcrawl;
  std::string json_path = bench::JsonPathFromArgs(argc, argv);
  bench::PrintBanner(
      "Ablation (§3.3): MMMI ranking variants",
      "design choices not pinned down by the paper's text",
      "regenerated eBay at scale " + TablePrinter::FormatDouble(kScale, 2) +
          ", crawl to 99% coverage with GL->variant switch at 85%, sum "
          "over " + std::to_string(kNumSeeds) + " seeds");

  double total[4] = {0, 0, 0, 0};  // GL, pure, comb, weighted
  for (int s = 0; s < kNumSeeds; ++s) {
    StatusOr<Table> generated = GenerateTable(EbayConfig(kScale, 60 + s));
    DEEPCRAWL_CHECK(generated.ok());
    const Table& db = *generated;
    WebDbServer server(db, ServerOptions{});
    CrawlOptions options;
    options.target_records =
        static_cast<uint64_t>(0.99 * static_cast<double>(db.num_records()));
    options.saturation_records =
        static_cast<uint64_t>(0.85 * static_cast<double>(db.num_records()));
    ValueId seed_value = bench::SeedValue(db, static_cast<uint32_t>(s));

    {
      LocalStore store;
      GreedyLinkSelector selector(store);
      total[0] += static_cast<double>(
          bench::RunCrawl(server, selector, store, options, seed_value)
              .rounds);
    }
    const MmmiRanking rankings[3] = {MmmiRanking::kPureDependency,
                                     MmmiRanking::kDegreeDiscount,
                                     MmmiRanking::kWeightedDependency};
    for (int i = 0; i < 3; ++i) {
      LocalStore store;
      MmmiSelector selector(store, MmmiOptions{10, rankings[i]});
      total[i + 1] += static_cast<double>(
          bench::RunCrawl(server, selector, store, options, seed_value)
              .rounds);
    }
  }

  TablePrinter table({"variant", "total rounds to 99%", "vs greedy-link"});
  const char* names[4] = {"greedy-link",
                          "MMMI: literal 1/s ordering",
                          "MMMI: degree * exp(-s) (default)",
                          "MMMI: weighted-mean PMI variant"};
  for (int i = 0; i < 4; ++i) {
    table.AddRow({names[i], TablePrinter::FormatDouble(total[i], 0),
                  TablePrinter::FormatPercent(total[i] / total[0], 1)});
  }
  table.Print(std::cout);
  std::cout << "\nreading: both max()-based MMMI variants reproduce "
               "Figure 4's saving on this workload; the degree-"
               "discounted combination is the more robust default "
               "because the literal 1/s ordering ignores query "
               "productivity and can lose to plain greedy-link when "
               "value dependency is weak (see DESIGN.md). The weighted-"
               "mean PMI alternative the paper floats dilutes the "
               "signal and saves nothing — empirical support for the "
               "paper's max() choice (\"to avoid bad decisions\").\n";

  // --- marginal-phase scoring cost ---------------------------------
  uint64_t marginal_rounds = 0;
  double marginal_s = MarginalSweepSeconds(&marginal_rounds);
  double marginal_rps = static_cast<double>(marginal_rounds) / marginal_s;

  std::cout << "\nmarginal phase (85% -> 99%, eBay scale "
            << TablePrinter::FormatDouble(kMarginalScale, 2)
            << ", summed over " << kMarginalSeeds << " seeds): "
            << TablePrinter::FormatCount(marginal_rounds) << " rounds in "
            << TablePrinter::FormatDouble(marginal_s, 3) << " s = "
            << TablePrinter::FormatCount(static_cast<uint64_t>(marginal_rps))
            << " rounds/s\n";

  if (!json_path.empty()) {
    bench::BenchJson json("mmmi_ablation");
    json.Add("marginal_phase_rps", marginal_rps, "rounds/s",
             /*higher_is_better=*/true);
    json.Add("rounds_mmmi_default_total", total[2], "rounds",
             /*higher_is_better=*/false);
    json.WriteFile(json_path);
  }
  return 0;
}
