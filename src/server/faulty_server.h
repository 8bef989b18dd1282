// FaultyServer: a fault-injecting proxy over any QueryInterface.
//
// The paper's controlled servers (§5) answer every query perfectly, but
// the real sources they model (Amazon, Yahoo Automobile, §5.4) time out,
// rate-limit, and truncate result lists. This proxy sits between the
// crawler and a backend QueryInterface and injects exactly those
// behaviours, driven by a seeded RNG and a declarative FaultProfile, so
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
// Failed attempts still cost one communication round — the round trip
// happened — so the proxy keeps its own meters on top of the backend's.
// For tests, a scripted FaultSchedule overrides the RNG: action i
// applies to the i-th fetch, and the schedule falls back to fault-free
// once exhausted.
//
// Keyed fault mode (set_keyed_faults): by default the fault decision
// sequence is a function of (seed, global fetch index), which makes it
// depend on the order fetches ARRIVE — fine for one executor, useless
// across two: the inline executor fetches a wave's slots one after the
// other, while a wave pipelined over TCP connections arrives in the
// order its replies complete. In keyed mode each decision is instead a
// pure function of (seed, query identity, page, per-page attempt
// number): the same logical fetch always meets the same fault no matter
// when it arrives or what ran in between. An in-process crawl at
// --batch>1 and its TCP twin therefore see identical faults, which is
// what the batched and network differential tests rely on (DESIGN.md
// §8).
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
#include "src/util/random.h"
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

  // Scripted mode: overrides the RNG until the schedule is exhausted.
  void set_schedule(FaultSchedule schedule);

  // Keyed mode: fault decisions become a pure function of (seed, query
  // identity, page, attempt) instead of the global fetch order, making
  // the fault stream independent of arrival order (see file comment).
  void set_keyed_faults(bool keyed) { keyed_ = keyed; }
  bool keyed_faults() const { return keyed_; }

  // Chaos override: while set, EVERY fetch meets `action` (kNone forces
  // fault-free forwarding). Checked before the schedule and before any
  // RNG or keyed-attempt draw, so engaging or clearing it never perturbs
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

  // Meters include rounds spent on injected failures (the crawler paid
  // for them), on top of the backend's own accounting.
  uint64_t communication_rounds() const override {
    return inner_.communication_rounds() + injected_failure_rounds_;
  }
  uint64_t queries_issued() const override {
    return inner_.queries_issued() + injected_failure_queries_;
  }
  void ResetMeters() override;

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
  // uninterrupted, so the proxy's RNG, schedule position, and keyed
  // per-page attempt table are checkpointed alongside the engine; the
  // (seed, profile, keyed-mode, schedule-length) fingerprint is verified
  // on load.
  void SaveState(CheckpointWriter& writer) const;
  Status LoadState(CheckpointReader& reader);

 private:
  // Draws the fault decision for the next fetch: schedule first, then
  // the keyed hash (keyed mode) or the sequential RNG. `query_key`
  // identifies the logical query (value id or text hash).
  FaultAction NextAction(uint64_t query_key, uint32_t page_number);
  // Returns the injected failure status for `action`, charging the round
  // to the proxy's own meters.
  Status InjectFailure(FaultAction action, uint32_t page_number);
  // Applies a page-mutating fault in place.
  void MutatePage(FaultAction action, ResultPage& page);

  template <typename Fetch>
  StatusOr<ResultPage> Dispatch(uint64_t query_key, uint32_t page_number,
                                Fetch&& fetch);

  QueryInterface& inner_;
  FaultProfile profile_;
  uint64_t seed_;
  Pcg32 rng_;
  FaultSchedule schedule_;
  size_t schedule_pos_ = 0;
  // Keyed mode: per-(query, page) fetch counts, so retries of the same
  // page draw fresh (but still order-independent) fault decisions.
  bool keyed_ = false;
  std::unordered_map<uint64_t, uint32_t> keyed_attempts_;
  std::optional<FaultAction> forced_action_;
  uint64_t injected_failure_rounds_ = 0;
  uint64_t injected_failure_queries_ = 0;
  FaultCounters counters_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_SERVER_FAULTY_SERVER_H_
