// Database size estimation by overlap analysis (§5, "overlap analysis"
// after Lawrence & Giles).
//
// Hidden Web sources rarely disclose their size, yet coverage-oriented
// experiments need one. The paper runs 6 independent crawls of the
// Amazon DVD catalog from random seeds, stops each after a fixed number
// of server interactions, and treats every pair of result sets as a
// capture-recapture experiment:
//
//   |DB| ~= |A| * |B| / |A n B|
//
// yielding C(6,2) = 15 estimates, over which a Student-t test gives a
// confidence bound ("with 90% confidence, the Amazon DVD database
// contains less than 37,000 records").
//
// This module reproduces that pipeline against any WebDbServer.

#ifndef DEEPCRAWL_ESTIMATE_SIZE_ESTIMATOR_H_
#define DEEPCRAWL_ESTIMATE_SIZE_ESTIMATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"
#include "src/server/web_db_server.h"
#include "src/util/stats.h"
#include "src/util/status.h"

namespace deepcrawl {

// Capture-recapture estimate from two sorted, duplicate-free record-id
// samples. Fails with kFailedPrecondition when the samples are disjoint
// (the estimator is undefined at zero overlap).
StatusOr<double> CaptureRecaptureEstimate(std::span<const RecordId> a,
                                          std::span<const RecordId> b);

// Builds a fresh selector for one independent crawl; the LocalStore is
// the store that crawl will populate.
using SelectorFactory =
    std::function<std::unique_ptr<QuerySelector>(const LocalStore&)>;

struct SizeEstimationOptions {
  uint32_t num_crawls = 6;
  // Interaction (communication-round) budget per crawl; the paper used
  // 5000 against the Amazon Web service.
  uint64_t rounds_per_crawl = 5000;
  double confidence = 0.90;
  uint64_t seed = 1;  // drives the random seed-value choices
};

struct SizeEstimationReport {
  // Per-crawl harvested record counts.
  std::vector<size_t> crawl_sizes;
  // All pairwise capture-recapture estimates that had overlap.
  std::vector<double> pairwise_estimates;
  size_t disjoint_pairs = 0;
  // t-inference over the pairwise estimates (meaningful when
  // pairwise_estimates.size() >= 2).
  TTestResult t_test;
};

// Runs `options.num_crawls` independent crawls (fresh LocalStore and
// selector each, one random seed value per crawl) against `server`,
// each under its own engine and so its own round budget, and aggregates
// the pairwise estimates. Requires the server's table to be non-empty.
StatusOr<SizeEstimationReport> EstimateDatabaseSize(
    WebDbServer& server, const SelectorFactory& selector_factory,
    const SizeEstimationOptions& options);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_ESTIMATE_SIZE_ESTIMATOR_H_
