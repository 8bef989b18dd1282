// Engineering micro-benchmarks (google-benchmark): throughput of the
// core operations every experiment leans on — index probes, AVG
// construction, local-store ingestion, selector steps, coverage-set
// unions. No paper counterpart; used to keep the substrate honest.
//
// Two modes:
//   * default: the google-benchmark suite below (interactive tuning);
//   * --json=<path>: a fixed hand-timed regression suite that emits
//     BENCH_micro.json for tools/bench_compare.py — the check.sh perf
//     pass fails on >20% regression against the committed baseline.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/datagen/canned_workloads.h"
#include "src/domain/coverage_set.h"
#include "src/graph/attribute_value_graph.h"
#include "src/index/inverted_index.h"
#include "src/server/web_db_server.h"
#include "src/util/random.h"

namespace deepcrawl {
namespace {

const Table& SharedEbay() {
  static Table* table = [] {
    StatusOr<Table> generated = GenerateTable(EbayConfig(0.1, 5));
    DEEPCRAWL_CHECK(generated.ok());
    return new Table(std::move(*generated));
  }();
  return *table;
}

void BM_InvertedIndexBuild(benchmark::State& state) {
  const Table& table = SharedEbay();
  for (auto _ : state) {
    InvertedIndex index(table);
    benchmark::DoNotOptimize(index.total_postings());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(table.num_records()));
}
BENCHMARK(BM_InvertedIndexBuild);

void BM_IndexProbe(benchmark::State& state) {
  const Table& table = SharedEbay();
  InvertedIndex index(table);
  Pcg32 rng(7);
  uint64_t sink = 0;
  for (auto _ : state) {
    ValueId v = rng.NextBounded(
        static_cast<uint32_t>(table.num_distinct_values()));
    sink += index.MatchCount(v);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IndexProbe);

void BM_AvgBuild(benchmark::State& state) {
  const Table& table = SharedEbay();
  for (auto _ : state) {
    AttributeValueGraph graph = AttributeValueGraph::Build(table);
    benchmark::DoNotOptimize(graph.num_edges());
  }
}
BENCHMARK(BM_AvgBuild);

void BM_LocalStoreIngest(benchmark::State& state) {
  const Table& table = SharedEbay();
  for (auto _ : state) {
    LocalStore store;
    for (RecordId r = 0; r < table.num_records(); ++r) {
      store.AddRecord(r, table.record(r));
    }
    benchmark::DoNotOptimize(store.num_records());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(table.num_records()));
}
BENCHMARK(BM_LocalStoreIngest);

void BM_GreedyCrawlTo50Percent(benchmark::State& state) {
  const Table& table = SharedEbay();
  WebDbServer server(table, ServerOptions{});
  for (auto _ : state) {
    LocalStore store;
    GreedyLinkSelector selector(store);
    CrawlOptions options;
    options.target_records = table.num_records() / 2;
    server.ResetMeters();
    CrawlEngine engine(server, selector, store, options);
    engine.AddSeed(1);
    StatusOr<CrawlResult> result = engine.Run();
    DEEPCRAWL_CHECK(result.ok());
    benchmark::DoNotOptimize(result->rounds);
  }
}
BENCHMARK(BM_GreedyCrawlTo50Percent);

void BM_CoverageSetUnion(benchmark::State& state) {
  Pcg32 rng(3);
  std::vector<std::vector<uint32_t>> batches;
  for (int i = 0; i < 200; ++i) {
    std::vector<uint32_t> batch;
    for (int j = 0; j < 500; ++j) batch.push_back(rng.NextBounded(100000));
    std::sort(batch.begin(), batch.end());
    batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
    batches.push_back(std::move(batch));
  }
  for (auto _ : state) {
    CoverageSet set;
    for (const auto& batch : batches) set.Union(batch);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_CoverageSetUnion);

// --- --json regression suite (hand-timed, fixed configuration) -------

// Returns the hub-edge count: the entries of the store's edge hash.
uint64_t IngestOnce(const Table& table) {
  LocalStore store;
  for (RecordId r = 0; r < table.num_records(); ++r) {
    store.AddRecord(r, table.record(r));
  }
  return store.num_hub_edges();
}

struct CrawlLoopCounts {
  uint64_t records = 0;
  uint64_t log_bytes = 0;  // the engine's fetch log at the stop
};

CrawlLoopCounts CrawlLoopOnce(WebDbServer& server, const Table& table) {
  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlOptions options;
  options.target_records = table.num_records() / 2;
  server.ResetMeters();
  CrawlEngine engine(server, selector, store, options);
  engine.AddSeed(1);
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok());
  return CrawlLoopCounts{result->records, engine.log_bytes()};
}

int RunJsonSuite(const std::string& json_path) {
  const Table& table = SharedEbay();
  bench::BenchJson json("micro");

  // LocalStore ingest: the record-id map, CSR postings, the tail scans
  // and the hub–hub edge hash feeding the per-value degree counters.
  double ingest_s = bench::BestWallSeconds([&] { IngestOnce(table); });
  json.Add("ingest_exact_rps",
           static_cast<double>(table.num_records()) / ingest_s, "records/s",
           /*higher_is_better=*/true);
  // Deterministic: the edge hash holds only the edges between values
  // above LocalStore::kHubFrequency.
  json.Add("ingest_hub_edges", static_cast<double>(IngestOnce(table)),
           "count", /*higher_is_better=*/false);

  // End-to-end crawl loop: greedy-link to 50% coverage against the
  // in-process simulator — selector heap, frontier, store and server
  // all on the measured path. "ops" = records harvested.
  WebDbServer server(table, ServerOptions{});
  const CrawlLoopCounts counts = CrawlLoopOnce(server, table);
  double crawl_s =
      bench::BestWallSeconds([&] { CrawlLoopOnce(server, table); });
  json.Add("crawl_loop_rps", static_cast<double>(counts.records) / crawl_s,
           "records/s", /*higher_is_better=*/true);
  // Deterministic: the bytes of that crawl's fetch log (the LOG section
  // a checkpoint would copy).
  json.Add("engine_log_bytes", static_cast<double>(counts.log_bytes), "bytes",
           /*higher_is_better=*/false);

  json.WriteFile(json_path);
  return 0;
}

}  // namespace
}  // namespace deepcrawl

int main(int argc, char** argv) {
  std::string json_path = deepcrawl::bench::JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    return deepcrawl::RunJsonSuite(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
