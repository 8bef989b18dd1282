// Shared helpers for the experiment harnesses in bench/.
//
// Every binary in this directory regenerates one table or figure of the
// paper. Conventions:
//   * print a banner stating the paper artifact, the paper's original
//     configuration, and the scale this run uses;
//   * run the experiment deterministically (fixed seeds);
//   * print aligned text tables via TablePrinter.

// Machine-readable results: every bench accepts --json=<path> and then
// emits a BENCH_<name>.json of named metrics via BenchJson below;
// tools/bench_compare.py diffs such files against the committed
// baselines and tools/check.sh's perf pass fails the build on >20%
// regression. See README "Benchmarking".

#ifndef DEEPCRAWL_BENCH_BENCH_COMMON_H_
#define DEEPCRAWL_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"
#include "src/relation/table.h"
#include "src/server/query_interface.h"
#include "src/server/web_db_server.h"
#include "src/util/logging.h"
#include "src/util/table_printer.h"

namespace deepcrawl {
namespace bench {

inline void PrintBanner(const std::string& artifact,
                        const std::string& paper_setup,
                        const std::string& this_run) {
  std::cout << "\n=== " << artifact << " ===\n"
            << "paper setup: " << paper_setup << "\n"
            << "this run:    " << this_run << "\n\n";
}

// Runs one crawl of `server` (any QueryInterface — the bare simulator or
// a fault-injecting proxy) with `selector`, seeded with `seed_value`,
// and returns the result. Its rounds are the new engine's, so they are
// per-crawl. Aborts on crawl errors (bench fixtures are valid).
inline CrawlResult RunCrawl(QueryInterface& server, QuerySelector& selector,
                            LocalStore& store, const CrawlOptions& options,
                            ValueId seed_value,
                            const EngineOptions& engine_options = {},
                            const RetryPolicy* retry_policy = nullptr) {
  CrawlEngine engine(server, selector, store, options, engine_options,
                     /*abort_policy=*/nullptr, retry_policy);
  engine.AddSeed(seed_value);
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return std::move(*result);
}

// Deterministic seed value for run `i` of a table: spreads seeds across
// the value id space, skipping values with no matching records (the
// catalog may also hold domain-table entries the target never returns —
// a crawl seeded with one of those would die on its first query).
inline ValueId SeedValue(const Table& table, uint32_t i) {
  DEEPCRAWL_CHECK_GT(table.num_distinct_values(), 0u);
  DEEPCRAWL_CHECK_GT(table.num_records(), 0u);
  uint64_t n = table.num_distinct_values();
  ValueId v = static_cast<ValueId>((1 + 2654435761ull * (i + 1)) % n);
  while (table.value_frequency(v) == 0) {
    v = static_cast<ValueId>((static_cast<uint64_t>(v) + 1) % n);
  }
  return v;
}

// --- BENCH_*.json emission -------------------------------------------

// One named measurement. `higher_is_better` tells bench_compare.py which
// direction is a regression (throughput vs rounds/wall-clock).
struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool higher_is_better = true;
};

// Collects metrics and writes the flat JSON document the comparison
// tooling consumes:
//   { "bench": "<name>",
//     "metrics": [ {"name": ..., "value": ..., "unit": ...,
//                   "higher_is_better": ...}, ... ] }
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void Add(std::string name, double value, std::string unit,
           bool higher_is_better) {
    metrics_.push_back(BenchMetric{std::move(name), value, std::move(unit),
                                   higher_is_better});
  }

  std::string ToJson() const {
    std::ostringstream out;
    out << "{\n  \"bench\": \"" << bench_name_ << "\",\n  \"metrics\": [\n";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const BenchMetric& m = metrics_[i];
      out << "    {\"name\": \"" << m.name << "\", \"value\": " << m.value
          << ", \"unit\": \"" << m.unit << "\", \"higher_is_better\": "
          << (m.higher_is_better ? "true" : "false") << "}"
          << (i + 1 < metrics_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
  }

  // Writes the document; aborts on I/O failure (bench harness context).
  void WriteFile(const std::string& path) const {
    std::ofstream out(path);
    DEEPCRAWL_CHECK(out.good()) << "cannot open " << path;
    out << ToJson();
    DEEPCRAWL_CHECK(out.good()) << "write failed: " << path;
    std::cout << "json metrics written to: " << path << "\n";
  }

 private:
  std::string bench_name_;
  std::vector<BenchMetric> metrics_;
};

// Extracts the --json=<path> argument, if any (empty string = absent).
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    constexpr std::string_view kPrefix = "--json=";
    if (arg.substr(0, kPrefix.size()) == kPrefix) {
      return std::string(arg.substr(kPrefix.size()));
    }
  }
  return "";
}

// Best-of-N timing helper: runs `body` until both `min_reps` runs and
// `min_seconds` of total wall-clock have accumulated, and returns the
// fastest single-run time in seconds (the standard noise-resistant
// estimator for deterministic workloads).
template <typename Body>
double BestWallSeconds(Body&& body, int min_reps = 3,
                       double min_seconds = 0.3) {
  double best = 0.0;
  double total = 0.0;
  for (int rep = 0; rep < min_reps || total < min_seconds; ++rep) {
    auto start = std::chrono::steady_clock::now();
    body();
    double seconds = std::chrono::duration_cast<
                         std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (rep == 0 || seconds < best) best = seconds;
    total += seconds;
  }
  return best;
}

}  // namespace bench
}  // namespace deepcrawl

#endif  // DEEPCRAWL_BENCH_BENCH_COMMON_H_
