// LockedQueryInterface: a thread-safe adapter over any QueryInterface.
//
// The concrete servers (WebDbServer, FaultyServer) are single-threaded
// objects: they mutate meters, RNG state, and fault counters on every
// fetch. The parallel crawl engine issues page fetches from a thread
// pool, so it talks to the source through this adapter, which serializes
// every interface call behind one mutex.
//
// Simulated latency: a mutex-serialized in-memory server would leave
// nothing for extra threads to overlap, which is not how real sources
// behave — a crawler's wall-clock is dominated by network round trips
// that DO overlap. `latency_us` models that round trip: each fetch
// sleeps for the configured time OUTSIDE the lock before touching the
// backend, so concurrent fetches overlap their "network wait" exactly
// like concurrent HTTP requests and only the cheap in-memory answer is
// serialized. bench_parallel's wall-clock speedups are measured this
// way (see DESIGN.md §8).
//
// Thread-safety contract: all five Fetch* methods plus the meter calls
// are safe to call concurrently. options() and IsQueriableValue() are
// forwarded without the lock — both are immutable after construction on
// every shipped implementation (WebDbServer reads fixed tables;
// FaultyServer forwards to its backend).

#ifndef DEEPCRAWL_SERVER_LOCKED_INTERFACE_H_
#define DEEPCRAWL_SERVER_LOCKED_INTERFACE_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>

#include "src/server/query_interface.h"
#include "src/util/status.h"

namespace deepcrawl {

class LockedQueryInterface : public QueryInterface {
 public:
  // `inner` must outlive the adapter and must not be called around it
  // while concurrent fetches are in flight. `latency_us` is the
  // simulated per-fetch round-trip time, slept outside the lock
  // (0 = none; unit tests use 0, benches model a network).
  explicit LockedQueryInterface(QueryInterface& inner,
                                uint64_t latency_us = 0);

  LockedQueryInterface(const LockedQueryInterface&) = delete;
  LockedQueryInterface& operator=(const LockedQueryInterface&) = delete;

  StatusOr<ResultPage> FetchPage(ValueId value, uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageByText(AttributeId attr,
                                       std::string_view text,
                                       uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageByKeyword(std::string_view text,
                                          uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageConjunctive(std::span<const ValueId> values,
                                            uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageKeywordOf(ValueId value,
                                          uint32_t page_number) override;

  uint64_t communication_rounds() const override;
  uint64_t queries_issued() const override;
  void ResetMeters() override;
  // Inner counters merged with the simulated per-fetch latency this
  // adapter modeled (one observation of latency_us per fetch).
  RttCounters rtt_counters() const override;

  const ServerOptions& options() const override { return inner_.options(); }
  bool IsQueriableValue(ValueId value) const override {
    return inner_.IsQueriableValue(value);
  }
  uint32_t num_values() const override { return inner_.num_values(); }

  uint64_t latency_us() const { return latency_us_; }

 private:
  // Sleeps the simulated round trip, then runs `fetch` under the lock.
  template <typename Fetch>
  StatusOr<ResultPage> Locked(Fetch&& fetch);

  QueryInterface& inner_;
  const uint64_t latency_us_;
  mutable std::mutex mu_;
  RttCounters rtt_;  // guarded by mu_
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_SERVER_LOCKED_INTERFACE_H_
