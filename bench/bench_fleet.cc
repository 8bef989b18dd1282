// Fleet scheduler ablation — marginal-harvest allocation vs round-robin
// and sequential draining, swept over background fault rates.
//
// The paper ranks queries within one database by marginal harvest rate;
// the fleet lifts the same economics to scheduling ROUNDS across
// databases (DESIGN.md §11). This harness measures what that buys: the
// communication rounds a heterogeneous 6-source fleet needs to reach
// 90% of its aggregate target, for each scheduler, at 0% / 10% / 30%
// transient-failure rates. Every scheduler pays the same total rounds
// (each must finish every source); they differ in when the records
// arrive. Marginal-harvest ranks sources by their last turn's new
// records per consumed round, so a failing source pays for its failed
// fetches in the rate itself. Measured (BENCH_fleet.json): it reaches
// 90% in fewer rounds than round-robin at every fault rate — 761 vs 818
// at 0%, 865 vs 913 at 10%, 1,239 vs 1,251 at 30%.
//
// Fixed seeds end to end: every cell is deterministic, so the committed
// BENCH_fleet.json baseline gates regressions exactly (tools/check.sh
// pass 4).

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/fleet/crawl_fleet.h"
#include "src/server/faulty_server.h"
#include "src/util/table_printer.h"

namespace {
constexpr uint32_t kSources = 6;
constexpr double kScale = 0.004;
constexpr double kCoverage = 0.90;
}  // namespace

int main(int argc, char** argv) {
  using namespace deepcrawl;
  bench::PrintBanner(
      "Fleet scheduler ablation: rounds to 90% aggregate coverage",
      "single-database crawls in the paper; the fleet schedules rounds "
      "across sources by each one's last-turn marginal harvest rate",
      "6 heterogeneous sources (ebay/acm/dblp/imdb cycle) at scale " +
          TablePrinter::FormatDouble(kScale, 3) +
          ", greedy-link selection per source, fault rates 0%/10%/30%");

  const SchedulerPolicy schedulers[] = {SchedulerPolicy::kMarginalHarvest,
                                        SchedulerPolicy::kRoundRobin,
                                        SchedulerPolicy::kSequential};
  const double fault_rates[] = {0.0, 0.10, 0.30};

  bench::BenchJson json("fleet");
  TablePrinter table({"scheduler", "fault rate", "rounds to 90%",
                      "total rounds", "coverage", "idle ticks"});
  for (SchedulerPolicy scheduler : schedulers) {
    for (double rate : fault_rates) {
      StatusOr<std::vector<FleetSourceSpec>> specs = MakeFleetSourceSpecs(
          kSources, kScale, kCoverage, FaultProfile::Transient(rate));
      DEEPCRAWL_CHECK(specs.ok()) << specs.status().ToString();
      uint64_t fleet_target = 0;
      for (const FleetSourceSpec& spec : *specs) {
        fleet_target += static_cast<uint64_t>(
            kCoverage * static_cast<double>(spec.table.num_records()));
      }

      FleetOptions options;
      options.seed = 7;
      options.scheduler = scheduler;
      options.turn_rounds = 16;
      options.retry.max_requeues = 8;
      CrawlFleet fleet(std::move(*specs), options);
      StatusOr<FleetResult> result = fleet.Run();
      DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();

      uint64_t aggregate_target = static_cast<uint64_t>(
          kCoverage * static_cast<double>(fleet_target));
      std::optional<uint64_t> to90 =
          result->merged.trace.RoundsToRecords(aggregate_target);
      DEEPCRAWL_CHECK(to90.has_value())
          << SchedulerPolicyToString(scheduler) << " at rate " << rate
          << " never reached 90% aggregate coverage";
      double coverage = static_cast<double>(result->merged.records) /
                        static_cast<double>(fleet_target);

      table.AddRow({SchedulerPolicyToString(scheduler),
                    TablePrinter::FormatPercent(rate, 0),
                    std::to_string(*to90),
                    std::to_string(result->merged.rounds),
                    TablePrinter::FormatPercent(coverage, 1),
                    std::to_string(result->idle_ticks)});

      std::string suffix = std::string("_fault") +
                           std::to_string(static_cast<int>(rate * 100));
      std::string prefix = SchedulerPolicyToString(scheduler);
      for (char& c : prefix) {
        if (c == '-') c = '_';
      }
      json.Add(prefix + "_rounds_to_90" + suffix,
               static_cast<double>(*to90), "rounds",
               /*higher_is_better=*/false);
      json.Add(prefix + "_total_rounds" + suffix,
               static_cast<double>(result->merged.rounds), "rounds",
               /*higher_is_better=*/false);
    }
  }
  table.Print(std::cout);
  std::cout << "\nreading: 'rounds to 90%' is aggregate — marginal-harvest "
               "front-loads the fattest healthy sources, so the fleet "
               "banks records early; sequential pays the full cost of "
               "whatever source happens to be first. Total rounds "
               "converge (every scheduler must finish every source); the "
               "win is in when the records arrive, which is what a "
               "budget-capped crawl keeps.\n";

  std::string json_path = bench::JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) json.WriteFile(json_path);
  return 0;
}
