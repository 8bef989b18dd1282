// Batched wave engine bench: what keeping `batch` drains in flight per
// wave costs in communication rounds, and what it saves in waves.
//
// The paper's cost model counts communication rounds. A wave of B
// fetches is planned from the previous wave's knowledge (the
// round-limited access model of Sheng et al., PAPERS.md), so a wider
// wave may spend more rounds than the serial crawl while needing far
// fewer sequential waves. Over a network, where the NetFetchExecutor
// pipelines each wave's fetches across its connections, the wave count
// is what bounds wall-clock: about one round trip per wave
// (bench_net measures the wire itself; DESIGN.md §8).

#include <cstdint>
#include <string>

#include "bench/bench_common.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/datagen/movie_domain.h"

namespace deepcrawl {
namespace bench {
namespace {

Table MakeTarget() {
  MovieDomainPairConfig config;
  config.universe_size = 4000;
  config.target_size = 1200;
  config.seed = 7;
  StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
  DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
  return std::move(pair->target);
}

struct BenchRun {
  uint64_t rounds = 0;
  uint64_t waves = 0;
  uint64_t records = 0;
  uint64_t queries = 0;
};

// Greedy-link crawl to 90% coverage at the given wave width.
BenchRun CrawlOnce(const Table& target, uint32_t batch) {
  WebDbServer server(target, ServerOptions());
  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlOptions options;
  options.target_records =
      static_cast<uint64_t>(0.9 * static_cast<double>(target.num_records()));
  CrawlEngine engine(server, selector, store, options,
                     EngineOptions{.batch = batch});
  engine.AddSeed(SeedValue(target, 0));
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return BenchRun{result->rounds, engine.waves_completed(), result->records,
                  result->queries};
}

void BatchSweep(const Table& target) {
  PrintBanner("Batched wave engine: rounds and waves vs batch",
              "n/a (the paper's crawler issues one query at a time)",
              "greedy-link to 90% coverage, movie target " +
                  std::to_string(target.num_records()) + " records");

  TablePrinter table({"batch", "rounds", "waves", "records", "queries",
                      "rounds/wave"});
  for (uint32_t batch : {1u, 2u, 4u, 8u, 16u}) {
    BenchRun run = CrawlOnce(target, batch);
    table.AddRow({std::to_string(batch),
                  TablePrinter::FormatCount(run.rounds),
                  TablePrinter::FormatCount(run.waves),
                  TablePrinter::FormatCount(run.records),
                  TablePrinter::FormatCount(run.queries),
                  TablePrinter::FormatDouble(
                      static_cast<double>(run.rounds) /
                          static_cast<double>(run.waves),
                      2)});
  }
  table.Print(std::cout);
  std::cout << "\nnote: batch=1 is the serial crawl order (one round per\n"
               "wave). Wider waves plan from staler knowledge and may pay\n"
               "extra rounds; pipelined over TCP, each wave costs about one\n"
               "round trip of wall-clock (DESIGN.md §8).\n";
}

// Fixed-configuration run for the check.sh perf pass: the round count
// of a batch-8 crawl (a determinism canary for the batched engine),
// written as BENCH_parallel.json.
void RunJsonSuite(const Table& target, const std::string& json_path) {
  BenchJson json("parallel");
  json.Add("crawl_rounds_batch8",
           static_cast<double>(CrawlOnce(target, 8).rounds), "rounds",
           /*higher_is_better=*/false);
  json.WriteFile(json_path);
}

}  // namespace
}  // namespace bench
}  // namespace deepcrawl

int main(int argc, char** argv) {
  deepcrawl::Table target = deepcrawl::bench::MakeTarget();
  std::string json_path = deepcrawl::bench::JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    deepcrawl::bench::RunJsonSuite(target, json_path);
    return 0;
  }
  deepcrawl::bench::BatchSweep(target);
  return 0;
}
