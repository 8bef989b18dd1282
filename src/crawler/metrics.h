// Crawl metrics: the coverage-versus-communication trace behind every
// figure in the paper's evaluation.
//
// Figure 3 plots communication rounds needed to reach a coverage level;
// Figures 5 and 6 plot coverage reached within a round budget. Both are
// projections of the same monotone trace (rounds, records-harvested)
// that CrawlEngine appends to after every page fetch.

#ifndef DEEPCRAWL_CRAWLER_METRICS_H_
#define DEEPCRAWL_CRAWLER_METRICS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace deepcrawl {

struct TracePoint {
  uint64_t rounds = 0;   // cumulative communication rounds
  uint64_t records = 0;  // cumulative distinct records harvested

  bool operator==(const TracePoint&) const = default;
};

// Resilience tallies of a crawl under transient source failures (see
// src/crawler/retry_policy.h and src/server/faulty_server.h). All
// counters are cumulative over the crawl, so benches can report
// coverage-under-faults next to the coverage-versus-rounds trace.
struct ResilienceCounters {
  // Page fetches that failed with a retryable status.
  uint64_t transient_failures = 0;
  // Fetches re-issued after a failure (each also cost one round).
  uint64_t retries = 0;
  // Simulated ticks spent backing off between attempts (RetryPolicy's
  // backoff plus the retry-after floors of given-up drains).
  uint64_t backoff_ticks = 0;
  // Values re-queued at the frontier tail after their per-drain retry
  // budget ran out.
  uint64_t requeues = 0;
  // Values dropped for good after exhausting the re-queue budget.
  uint64_t abandoned_values = 0;
  // Queries that ended with pages lost to failures (requeued or
  // abandoned), i.e. completed in degraded mode.
  uint64_t degraded_queries = 0;
  // Fetches rejected with a rate-limit status carrying a retry-after
  // hint. The fleet reads these (with max_retry_after_hint) to treat the
  // server's hint as a hard floor on when the source may be scheduled
  // again.
  uint64_t rate_limit_rejections = 0;
  // Largest retry-after hint (in simulated ticks) any rate-limit rejection
  // carried; 0 when none was ever seen.
  uint64_t max_retry_after_hint = 0;

  bool operator==(const ResilienceCounters&) const = default;
};

// Circuit-breaker transition tallies for one fleet source (see
// src/fleet/circuit_breaker.h for the state machine).
struct BreakerTransitions {
  uint32_t opens = 0;    // closed -> open trips
  uint32_t reopens = 0;  // half-open probe failed -> open again
  uint32_t closes = 0;   // half-open probe succeeded -> closed
  uint32_t probes = 0;   // open -> half-open probe turns granted

  bool operator==(const BreakerTransitions&) const = default;
};

// Per-source degradation report of a fleet crawl: what a source lost to
// faults, how long its breaker kept it quarantined, and every breaker
// transition — so partial results under chaos are explicit, never
// silent (DESIGN.md §11).
struct SourceDegradation {
  uint32_t source_id = 0;
  std::string name;
  // Reached its coverage target or exhausted its frontier.
  bool finished = false;
  // Breaker flapped past the quarantine threshold (capped re-probe
  // backoff engaged).
  bool quarantined = false;
  // The fleet gave up re-probing for good (or the source failed hard).
  bool abandoned = false;
  uint64_t records_harvested = 0;
  // Target shortfall at the end of the run (0 when finished or no
  // target was set).
  uint64_t records_missing = 0;
  // Values the retry machinery dropped after exhausting re-queues.
  uint64_t values_abandoned = 0;
  uint64_t rounds = 0;         // communication rounds this source consumed
  uint64_t turns = 0;          // scheduler turns granted
  uint64_t ticks_quarantined = 0;  // fleet clock ticks spent breaker-open
  BreakerTransitions breaker;

  bool operator==(const SourceDegradation&) const = default;
};

// Monotone (in both fields) crawl progress trace.
class CrawlTrace {
 public:
  // Appends a point; rounds and records must be non-decreasing.
  void Add(uint64_t rounds, uint64_t records);

  // Appends a whole crawl wave of points in one call, with the same
  // collapsing/monotonicity semantics as point-by-point Add. The
  // batched engine buffers each wave's per-page points and flushes them
  // through this single append, so trace emission never assumes one
  // writer per page (see crawl_engine.cc and the regression test in
  // tests/crawler_trace_wave_test.cc).
  void AddWave(std::span<const TracePoint> points);

  const std::vector<TracePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  // Resilience tallies accumulated alongside the trace points.
  ResilienceCounters& resilience() { return resilience_; }
  const ResilienceCounters& resilience() const { return resilience_; }

  // Fewest rounds after which at least `target_records` records were
  // harvested; nullopt when the trace never reaches the target.
  std::optional<uint64_t> RoundsToRecords(uint64_t target_records) const;

  // Records harvested by the time `rounds` rounds were spent (the last
  // point at or before `rounds`; 0 when the crawl had not started).
  uint64_t RecordsAtRounds(uint64_t rounds) const;

 private:
  std::vector<TracePoint> points_;
  ResilienceCounters resilience_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_METRICS_H_
