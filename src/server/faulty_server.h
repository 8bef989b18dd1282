// FaultyServer: a fault-injecting proxy over any QueryInterface.
//
// The paper's controlled servers (§5) answer every query perfectly, but
// the real sources they model (Amazon, Yahoo Automobile, §5.4) time out,
// rate-limit, and truncate result lists. This proxy sits between the
// crawler and a backend QueryInterface and injects exactly those
// behaviours, driven by a seeded hash and a declarative FaultProfile, so
// resilience experiments stay bit-reproducible:
//
//   * transient unavailability  -> kUnavailable, no page;
//   * deadline timeout          -> kDeadlineExceeded, no page;
//   * rate-limit rejection      -> kResourceExhausted with a
//                                  retry-after hint (HTTP 429 style);
//   * truncated page            -> OK page that silently dropped its
//                                  trailing records (a flaky listing);
//   * duplicate echo            -> OK page where one record appears
//                                  twice, hiding another (real listings
//                                  repeat entries across re-renders).
//
// A failed attempt never reaches the backend, yet it still costs the
// crawler one communication round (the round trip happened); the engine
// charges it, so the proxy keeps no meters of its own.
//
// Every fault decision is a pure function of (seed, query identity,
// page, per-page attempt number): the same logical fetch always meets
// the same fault no matter when it arrives or what ran in between. A
// wave fetched inline arrives slot by slot, while the same wave
// pipelined over TCP connections arrives in the order its replies
// complete; keyed decisions make both see identical faults, so an
// in-process crawl and its TCP twin give the same trace at every batch
// size (DESIGN.md §8). The per-page attempt counts are server state: a
// restarted proxy forgets them and re-faults first attempts. For tests,
// a scripted FaultSchedule overrides the keyed draw: action i applies to
// the i-th fetch, and the schedule falls back to the keyed draw once
// exhausted.
//
// A FaultyServer with an all-zero profile and no schedule is behaviorally
// identical to its backend on every interface method (asserted by a
// property test).

#ifndef DEEPCRAWL_SERVER_FAULTY_SERVER_H_
#define DEEPCRAWL_SERVER_FAULTY_SERVER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/server/query_interface.h"
#include "src/util/logging.h"
#include "src/util/status.h"

namespace deepcrawl {

class CheckpointReader;
class CheckpointWriter;

// Per-round fault probabilities. At most one fault fires per fetch; the
// rates must sum to at most 1.
struct FaultProfile {
  double unavailable_rate = 0.0;   // transient 503-style failure
  double timeout_rate = 0.0;       // deadline expired mid-transfer
  double rate_limit_rate = 0.0;    // 429 rejection with retry-after hint
  double truncate_rate = 0.0;      // page silently loses trailing records
  double duplicate_rate = 0.0;     // page echoes one record twice

  // Retry-after hint (in communication rounds) attached to rate-limit
  // rejections.
  uint32_t retry_after_rounds = 4;

  bool IsAllZero() const {
    return unavailable_rate == 0.0 && timeout_rate == 0.0 &&
           rate_limit_rate == 0.0 && truncate_rate == 0.0 &&
           duplicate_rate == 0.0;
  }

  // Failure-only profile: probability `rate` of transient unavailability
  // per round (the acceptance experiments' "10% transient failures").
  static FaultProfile Transient(double rate) {
    FaultProfile profile;
    profile.unavailable_rate = rate;
    return profile;
  }
};

// One scripted fault decision; kNone forwards the fetch untouched.
enum class FaultAction : uint8_t {
  kNone = 0,
  kUnavailable,
  kTimeout,
  kRateLimit,
  kTruncate,
  kDuplicate,
};

using FaultSchedule = std::vector<FaultAction>;

// Injection tallies, for tests and coverage-under-faults reports.
struct FaultCounters {
  uint64_t unavailable = 0;
  uint64_t timeouts = 0;
  uint64_t rate_limited = 0;
  uint64_t truncated_pages = 0;
  uint64_t duplicated_records = 0;

  uint64_t failures() const { return unavailable + timeouts + rate_limited; }
  uint64_t total() const {
    return failures() + truncated_pages + duplicated_records;
  }
};

class FaultyServer : public QueryInterface {
 public:
  // `inner` must outlive the proxy. The same (seed, profile, call
  // sequence) triple always yields the same faults.
  FaultyServer(QueryInterface& inner, FaultProfile profile, uint64_t seed);

  FaultyServer(const FaultyServer&) = delete;
  FaultyServer& operator=(const FaultyServer&) = delete;

  // Scripted mode: overrides the keyed draw until the schedule is
  // exhausted.
  void set_schedule(FaultSchedule schedule);

  // Faults are always keyed (see file comment); `keyed` must be true.
  // Kept only because crawlbench/workloads.cc calls it; the next
  // benchmark change deletes it.
  void set_keyed_faults(bool keyed) { DEEPCRAWL_CHECK(keyed); }

  // Chaos override: while set, EVERY fetch meets `action` (kNone forces
  // fault-free forwarding). Checked before the schedule and before any
  // keyed-attempt draw, so engaging or clearing it never perturbs
  // the underlying fault stream — the fleet's ChaosSchedule flips this
  // per turn to script whole-source death, flapping, and recovery while
  // the keyed-fault contract keeps everything else bit-reproducible.
  // Deliberately NOT checkpointed: the fleet re-derives it from
  // (schedule, turn counter) on every turn, including the first after a
  // resume.
  void set_forced_action(std::optional<FaultAction> action) {
    forced_action_ = action;
  }
  const std::optional<FaultAction>& forced_action() const {
    return forced_action_;
  }

  // Derives source `source_id`'s fault seed from the fleet seed: the
  // source_id-th output of a SplitMix64 stream seeded with fleet_seed.
  // Pure function of the pair, so adding or removing one source never
  // perturbs another source's fault stream.
  static uint64_t DeriveSourceSeed(uint64_t fleet_seed, uint32_t source_id);

  // QueryInterface implementation. Fetches are forwarded to the backend
  // unless a failure fault fires first; page-mutating faults apply to
  // the backend's successful response.
  StatusOr<ResultPage> FetchPage(ValueId value, uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageKeywordOf(ValueId value,
                                          uint32_t page_number) override;

  const ServerOptions& options() const override { return inner_.options(); }
  bool IsQueriableValue(ValueId value) const override {
    return inner_.IsQueriableValue(value);
  }
  uint32_t num_values() const override { return inner_.num_values(); }
  RttCounters rtt_counters() const override { return inner_.rtt_counters(); }

  const FaultProfile& profile() const { return profile_; }
  const FaultCounters& fault_counters() const { return counters_; }

  // --- checkpointing (see src/crawler/checkpoint.h) -------------------
  // A resumed crawl must meet the SAME fault stream it would have seen
  // uninterrupted, so the proxy's schedule position and per-page attempt
  // table are checkpointed alongside the engine; the (seed, profile,
  // schedule-length) fingerprint is verified on load.
  void SaveState(CheckpointWriter& writer) const;
  Status LoadState(CheckpointReader& reader);

 private:
  // Draws the fault decision for the next fetch: the forced action, then
  // the schedule, then the keyed hash. `query_key` identifies the logical
  // query (fetch form and value id).
  FaultAction NextAction(uint64_t query_key, uint32_t page_number);
  // Returns the injected failure status for `action` and counts it.
  Status InjectFailure(FaultAction action);
  // Applies a page-mutating fault in place.
  void MutatePage(FaultAction action, ResultPage& page);

  template <typename Fetch>
  StatusOr<ResultPage> Dispatch(uint64_t query_key, uint32_t page_number,
                                Fetch&& fetch);

  QueryInterface& inner_;
  FaultProfile profile_;
  uint64_t seed_;
  FaultSchedule schedule_;
  size_t schedule_pos_ = 0;
  // Per-(query, page) fetch counts, so retries of the same page draw
  // fresh (but still order-independent) fault decisions.
  std::unordered_map<uint64_t, uint32_t> page_attempts_;
  std::optional<FaultAction> forced_action_;
  FaultCounters counters_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_SERVER_FAULTY_SERVER_H_
