#include "src/estimate/size_estimator.h"

#include <algorithm>

#include "src/crawler/crawl_engine.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace deepcrawl {

StatusOr<double> CaptureRecaptureEstimate(std::span<const RecordId> a,
                                          std::span<const RecordId> b) {
  DEEPCRAWL_DCHECK(std::is_sorted(a.begin(), a.end()));
  DEEPCRAWL_DCHECK(std::is_sorted(b.begin(), b.end()));
  size_t overlap = 0;
  size_t j = 0;
  for (RecordId r : a) {
    while (j < b.size() && b[j] < r) ++j;
    if (j < b.size() && b[j] == r) {
      ++overlap;
      ++j;
    }
  }
  if (overlap == 0) {
    return Status::FailedPrecondition(
        "samples are disjoint; capture-recapture estimate undefined");
  }
  return static_cast<double>(a.size()) * static_cast<double>(b.size()) /
         static_cast<double>(overlap);
}

StatusOr<SizeEstimationReport> EstimateDatabaseSize(
    WebDbServer& server, const SelectorFactory& selector_factory,
    const SizeEstimationOptions& options) {
  if (options.num_crawls < 2) {
    return Status::InvalidArgument("need at least two crawls to overlap");
  }
  size_t num_values = server.table().num_distinct_values();
  if (num_values == 0) {
    return Status::FailedPrecondition("target database has no values");
  }

  Pcg32 rng(options.seed);
  SizeEstimationReport report;
  std::vector<std::vector<RecordId>> samples;
  samples.reserve(options.num_crawls);

  for (uint32_t i = 0; i < options.num_crawls; ++i) {
    LocalStore store;
    std::unique_ptr<QuerySelector> selector = selector_factory(store);
    DEEPCRAWL_CHECK(selector != nullptr) << "selector factory returned null";
    CrawlOptions crawl_options;
    crawl_options.max_rounds = options.rounds_per_crawl;
    CrawlEngine crawler(server, *selector, store, crawl_options);
    crawler.AddSeed(rng.NextBounded(static_cast<uint32_t>(num_values)));
    StatusOr<CrawlResult> result = crawler.Run();
    if (!result.ok()) return result.status();

    std::vector<RecordId> ids;
    ids.reserve(store.num_records());
    for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
      ids.push_back(store.OriginalRecordId(slot));
    }
    std::sort(ids.begin(), ids.end());
    report.crawl_sizes.push_back(ids.size());
    samples.push_back(std::move(ids));
  }

  for (size_t i = 0; i < samples.size(); ++i) {
    for (size_t j = i + 1; j < samples.size(); ++j) {
      StatusOr<double> estimate =
          CaptureRecaptureEstimate(samples[i], samples[j]);
      if (estimate.ok()) {
        report.pairwise_estimates.push_back(*estimate);
      } else {
        ++report.disjoint_pairs;
      }
    }
  }
  if (report.pairwise_estimates.size() >= 2) {
    report.t_test =
        OneSampleTTest(report.pairwise_estimates, options.confidence);
  }
  return report;
}

}  // namespace deepcrawl
