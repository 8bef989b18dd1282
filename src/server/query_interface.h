// QueryInterface: the abstract query surface of a structured Web source.
//
// Everything a crawler may do to a source is declared here — the two
// paginated queries a crawl issues (a single-attribute equality query,
// §2.2, and the keyword box of the "fading schema") plus the
// communication-round meters of the paper's cost model (Definition 2.3).
// Concrete implementations:
//
//   * WebDbServer (web_db_server.h): the faithful simulator over a
//     relational backend — answers every query perfectly;
//   * FaultyServer (faulty_server.h): a fault-injecting proxy wrapping
//     any QueryInterface, modelling the timeouts, rate limits, and
//     truncated result lists of real sources (§5.4);
//   * NetQueryClient (src/net/net_client.h): the same surface over TCP.
//
// CrawlEngine depends only on this interface, so the same crawl loop
// (and every selection policy) runs unchanged against the perfect
// simulator, the fault proxy, or a remote server.

#ifndef DEEPCRAWL_SERVER_QUERY_INTERFACE_H_
#define DEEPCRAWL_SERVER_QUERY_INTERFACE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/relation/types.h"
#include "src/util/status.h"

namespace deepcrawl {

struct ServerOptions {
  // Maximum records per result page (k in Definition 2.3).
  uint32_t page_size = 10;
  // Maximum matched records retrievable per query; 0 means unlimited.
  // (§5.4: Amazon caps at 3200; the paper also studies 10 and 50.)
  uint32_t result_limit = 0;
  // Whether pages carry the total number of matches ("95 cars found").
  bool reports_total_count = true;
  // Interface schema Aq of Definition 2.2: the attributes the query form
  // accepts, which may be a strict subset of the result schema Ar
  // ("users can query Amazon with book title only"). Empty = every
  // attribute is queriable. Queries on non-queriable attributes return
  // empty results (the form has no such field), still costing a round.
  std::vector<AttributeId> queriable_attributes;
};

// Round-trip-time tallies of the page fetches an interface served: the
// NetQueryClient (src/net/net_client.h) records the measured
// wall-clock of each socket round trip (simulated latency, when wanted,
// is added server-side by deepcrawl_serve --latency-us and so lands
// here too). Wall-clock-derived, hence outside the determinism
// contract: never checkpointed, never traced.
struct RttCounters {
  uint64_t fetches = 0;       // fetches with an RTT observation
  uint64_t total_rtt_us = 0;  // sum over those fetches
  uint64_t min_rtt_us = 0;    // 0 until the first observation
  uint64_t max_rtt_us = 0;

  void Record(uint64_t rtt_us) {
    if (fetches == 0 || rtt_us < min_rtt_us) min_rtt_us = rtt_us;
    if (rtt_us > max_rtt_us) max_rtt_us = rtt_us;
    ++fetches;
    total_rtt_us += rtt_us;
  }

  void Merge(const RttCounters& other) {
    if (other.fetches == 0) return;
    if (fetches == 0 || other.min_rtt_us < min_rtt_us) {
      min_rtt_us = other.min_rtt_us;
    }
    if (other.max_rtt_us > max_rtt_us) max_rtt_us = other.max_rtt_us;
    fetches += other.fetches;
    total_rtt_us += other.total_rtt_us;
  }

  double MeanUs() const {
    return fetches == 0 ? 0.0
                        : static_cast<double>(total_rtt_us) /
                              static_cast<double>(fetches);
  }

  bool operator==(const RttCounters&) const = default;
};

// One record as returned on a result page. The id stands in for the
// extracted record content (a real crawler deduplicates on content; the
// simulation deduplicates on id, which is equivalent because records are
// distinct).
struct ReturnedRecord {
  RecordId id = kInvalidRecordId;
  std::span<const ValueId> values;
};

struct ResultPage {
  std::vector<ReturnedRecord> records;
  uint32_t page_number = 0;
  // Total matched records in the backend (possibly more than are
  // retrievable under the result limit); absent when the source does not
  // report counts.
  std::optional<uint32_t> total_matches;
  // True when a further page can be fetched for the same query.
  bool has_more = false;
};

class QueryInterface {
 public:
  virtual ~QueryInterface() = default;

  // Fetches result page `page_number` (0-based) for the equality query
  // on `value`. Costs one communication round, including when the page
  // turns out empty, out of range, or lost to a transient failure (the
  // HTTP round trip still happened). Fails with kOutOfRange when
  // page_number is past the last retrievable page; fault-injecting
  // implementations may also fail with kUnavailable, kDeadlineExceeded,
  // or kResourceExhausted (all retryable, see RetryPolicy).
  virtual StatusOr<ResultPage> FetchPage(ValueId value,
                                         uint32_t page_number) = 0;

  // Keyword query addressed by an interned value: "throws" the value's
  // text into the site's single search box and lets the site decide
  // which column it matches (§2.2's "fading schema" crawling mode): the
  // union of the text's matches under every attribute. Costs one round
  // per page like FetchPage.
  virtual StatusOr<ResultPage> FetchPageKeywordOf(ValueId value,
                                                  uint32_t page_number) = 0;

  // Unused by the crawl: no crawl issues a text-addressed, keyword-string
  // or conjunctive fetch, and no implementation answers one. Each fails
  // with kFailedPrecondition and charges no round. These three remain
  // only because the benchmark's TimedQueryInterface
  // (crawlbench/tracing.h) overrides and forwards them; they go with its
  // next change.
  virtual StatusOr<ResultPage> FetchPageByText(AttributeId /*attr*/,
                                               std::string_view /*text*/,
                                               uint32_t /*page_number*/) {
    return UnsupportedFetch();
  }
  virtual StatusOr<ResultPage> FetchPageByKeyword(
      std::string_view /*text*/, uint32_t /*page_number*/) {
    return UnsupportedFetch();
  }
  virtual StatusOr<ResultPage> FetchPageConjunctive(
      std::span<const ValueId> /*values*/, uint32_t /*page_number*/) {
    return UnsupportedFetch();
  }

  // --- cost accounting -------------------------------------------------

  // Total communication rounds since construction or the last reset.
  // Failed fetch attempts count: the round trip happened.
  virtual uint64_t communication_rounds() const = 0;
  // Number of distinct query submissions (page 0 fetches, including
  // submissions rejected by a fault).
  virtual uint64_t queries_issued() const = 0;
  virtual void ResetMeters() = 0;

  // Round-trip-time tallies for the fetches this interface served.
  // Zero-valued by default: the in-memory simulator answers instantly;
  // the network client overrides this (see RttCounters above).
  virtual RttCounters rtt_counters() const { return RttCounters{}; }

  // --- interface schema ------------------------------------------------

  virtual const ServerOptions& options() const = 0;

  // Whether the interface schema accepts queries on this value's
  // attribute (Definition 2.2's Aq). Crawlers use this to keep
  // unqueriable values out of Lto-query. Unknown ids are unqueriable.
  virtual bool IsQueriableValue(ValueId value) const = 0;

  // Size of the value catalog: every value id a result page can carry
  // is below it. Checkpoint restore bounds the ids of a (possibly
  // forged) fetch log with it. The default knows no bound.
  virtual uint32_t num_values() const { return UINT32_MAX; }

 private:
  static Status UnsupportedFetch() {
    return Status::FailedPrecondition(
        "only FetchPage and FetchPageKeywordOf are served");
  }
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_SERVER_QUERY_INTERFACE_H_
