// CrawlFleet contract tests (src/fleet/crawl_fleet.h):
//
//   * a single-source fleet is the bare CrawlEngine, bit-identically —
//     same trace, same records, with and without faults;
//   * scheduler policies allocate turns as documented;
//   * the circuit breaker's transition accounting is exact under a
//     scripted chaos schedule, and retry-after hints floor the source's
//     next turn;
//   * the 8-source hostile-chaos acceptance scenario: every healthy
//     source reaches its coverage target, the permanently dead source is
//     reported quarantined;
//   * fleet checkpoints restore bit-identically from any turn boundary —
//     the replayed scheduler and breaker state equals the saved
//     fleet's — and EVERY mangled checkpoint byte, as well as every image
//     whose parts disagree behind a valid checksum, is rejected with a
//     clean Status (same adversarial sweep as crawler_checkpoint_test.cc).
//
// Runs inside deepcrawl_concurrency_tests so the whole file also
// executes under ASan and TSan via tools/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/datagen/canned_workloads.h"
#include "src/fleet/chaos.h"
#include "src/fleet/circuit_breaker.h"
#include "src/fleet/crawl_fleet.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/checkpoint_io.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

// Tables are move-only, so spec sets are regenerated per fleet; the
// synthetic generator is seeded, so every call yields identical tables.
// The tiny scale keeps per-construction cost (generation + index build)
// negligible even inside the corruption sweeps.
std::vector<FleetSourceSpec> TinySpecs() {
  StatusOr<std::vector<FleetSourceSpec>> made =
      MakeFleetSourceSpecs(2, /*scale=*/0.003, /*target_coverage=*/0.0);
  DEEPCRAWL_CHECK(made.ok()) << made.status().ToString();
  return std::move(*made);
}

std::string FleetTraceCsv(const FleetResult& result) {
  std::ostringstream out;
  DEEPCRAWL_CHECK(WriteFleetTraceCsv(result, out).ok());
  return out.str();
}

// Replicates CrawlFleet::PlantSeeds for one source, so the bare-engine
// reference stacks plant the identical seed values.
ValueId FleetSeedValue(const Table& table, uint64_t fleet_seed,
                       uint32_t source_id, uint32_t j) {
  uint64_t derived = FaultyServer::DeriveSourceSeed(fleet_seed, source_id);
  uint32_t distinct = static_cast<uint32_t>(table.num_distinct_values());
  ValueId v = static_cast<ValueId>(FaultyServer::DeriveSourceSeed(derived, j) %
                                   distinct);
  while (table.value_frequency(v) == 0) {
    v = static_cast<ValueId>((v + 1) % distinct);
  }
  return v;
}

// --- single-source ≡ bare engine -------------------------------------

void ExpectSingleSourceMatchesBareEngine(FaultProfile faults) {
  const uint64_t kFleetSeed = 7;
  StatusOr<std::vector<FleetSourceSpec>> specs =
      MakeFleetSourceSpecs(1, /*scale=*/0.003, /*target_coverage=*/0.0);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  (*specs)[0].faults = faults;

  FleetOptions options;
  options.seed = kFleetSeed;
  options.turn_rounds = 16;  // slices the crawl into many turns
  CrawlFleet fleet(std::move(*specs), options);
  StatusOr<FleetResult> fleet_result = fleet.Run();
  ASSERT_TRUE(fleet_result.ok()) << fleet_result.status().ToString();

  // The bare reference: the same table (the generator is seeded — the
  // fleet builder uses gen_seed + source_id = 1), same derived
  // fault/retry seeds, same planted seed, run in one uninterrupted shot.
  StatusOr<Table> regenerated = GenerateTable(EbayConfig(0.003, 1));
  ASSERT_TRUE(regenerated.ok());
  const Table& table = *regenerated;
  uint64_t derived = FaultyServer::DeriveSourceSeed(kFleetSeed, 0);
  WebDbServer backend(table, ServerOptions{});
  FaultyServer faulty(backend, faults, derived);
  LocalStore store;
  GreedyLinkSelector selector(store);
  RetryPolicyConfig retry_config;
  retry_config.seed = derived;
  RetryPolicy retry(retry_config);
  CrawlOptions crawl_options;
  crawl_options.saturation_records = static_cast<uint64_t>(
      0.85 * static_cast<double>(table.num_records()));
  CrawlEngine engine(faulty, selector, store, crawl_options, EngineOptions{},
                     nullptr, &retry);
  engine.AddSeed(FleetSeedValue(table, kFleetSeed, 0, 0));
  StatusOr<CrawlResult> bare = engine.Run();
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();

  const CrawlResult& fleet_side = fleet_result->sources[0].result;
  EXPECT_EQ(fleet_side.stop_reason, bare->stop_reason);
  EXPECT_EQ(fleet_side.rounds, bare->rounds);
  EXPECT_EQ(fleet_side.queries, bare->queries);
  EXPECT_EQ(fleet_side.records, bare->records);
  EXPECT_EQ(fleet_side.resilience, bare->resilience);
  ASSERT_EQ(fleet_side.trace.points(), bare->trace.points());

  std::ostringstream fleet_csv;
  std::ostringstream bare_csv;
  ASSERT_TRUE(WriteTraceCsv(fleet_side.trace, fleet_csv).ok());
  ASSERT_TRUE(WriteTraceCsv(bare->trace, bare_csv).ok());
  EXPECT_EQ(fleet_csv.str(), bare_csv.str());
}

TEST(CrawlFleetTest, SingleSourceFleetIsBareEngineBitIdentical) {
  ExpectSingleSourceMatchesBareEngine(FaultProfile{});
}

TEST(CrawlFleetTest, SingleSourceIdentityHoldsUnderFaults) {
  FaultProfile faults;
  faults.unavailable_rate = 0.08;
  faults.timeout_rate = 0.04;
  faults.rate_limit_rate = 0.04;
  ExpectSingleSourceMatchesBareEngine(faults);
}

// --- scheduler policies ----------------------------------------------

TEST(CrawlFleetTest, SequentialDrainsSourcesInIdOrder) {
  FleetOptions options;
  options.scheduler = SchedulerPolicy::kSequential;
  options.turn_rounds = 8;
  CrawlFleet fleet(TinySpecs(), options);
  StatusOr<FleetResult> result = fleet.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Source 1 starts only after source 0 finished, so in the merged
  // trace, all of source 0's rows precede all of source 1's.
  const std::string csv = FleetTraceCsv(*result);
  size_t first_of_1 = csv.find("\n1,");
  size_t last_of_0 = csv.rfind("\n0,");
  ASSERT_NE(first_of_1, std::string::npos);
  ASSERT_NE(last_of_0, std::string::npos);
  EXPECT_LT(last_of_0, first_of_1);
  EXPECT_TRUE(result->sources[0].degradation.finished);
  EXPECT_TRUE(result->sources[1].degradation.finished);
}

TEST(CrawlFleetTest, RoundRobinAlternatesWhileBothEligible) {
  FleetOptions options;
  options.scheduler = SchedulerPolicy::kRoundRobin;
  options.turn_rounds = 8;
  options.max_total_rounds = 64;  // stop while both still have frontier
  CrawlFleet fleet(TinySpecs(), options);
  StatusOr<FleetResult> result = fleet.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(fleet.engine(0).rounds_used(), 32u);
  EXPECT_EQ(fleet.engine(1).rounds_used(), 32u);
}

TEST(CrawlFleetTest, MarginalHarvestOutrunsSequentialToFirstCoverage) {
  // With a coverage target per source, marginal-HR reaches BOTH targets
  // in no more total rounds than the naive sequential drain (it skips
  // saturated tails; equality is possible on tiny tables).
  auto run = [](SchedulerPolicy scheduler) {
    std::vector<FleetSourceSpec> specs = TinySpecs();
    for (FleetSourceSpec& spec : specs) spec.target_coverage = 0.6;
    FleetOptions options;
    options.scheduler = scheduler;
    options.turn_rounds = 8;
    CrawlFleet fleet(std::move(specs), options);
    StatusOr<FleetResult> result = fleet.Run();
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
    return result->merged.rounds;
  };
  EXPECT_LE(run(SchedulerPolicy::kMarginalHarvest),
            run(SchedulerPolicy::kSequential));
}

TEST(CrawlFleetTest, MarginalHarvestPicksBestLastTurnRate) {
  // Pins the marginal-harvest rule turn by turn: a due breaker probe
  // first, then the lowest-id source with no turn yet, then the eligible
  // source whose last turn harvested the most new records per consumed
  // round, ties to the lowest id. One source fails transiently, so its
  // failed fetches cost rounds in its rate. No 429 is injected, so no
  // retry-after floor is set and eligibility is the breaker alone.
  std::vector<FleetSourceSpec> specs = [] {
    StatusOr<std::vector<FleetSourceSpec>> made =
        MakeFleetSourceSpecs(3, /*scale=*/0.003, /*target_coverage=*/0.0);
    DEEPCRAWL_CHECK(made.ok()) << made.status().ToString();
    return std::move(*made);
  }();
  specs[1].faults.unavailable_rate = 0.2;
  specs[1].faults.timeout_rate = 0.1;

  // What the next pick can see: every source's counters and breaker as
  // of the last turn boundary.
  struct Snapshot {
    uint64_t clock = 0;
    uint64_t idle_ticks = 0;
    std::vector<uint64_t> turns, rounds, records;
    std::vector<bool> active;
    std::vector<CircuitBreaker> breakers;
  };
  auto snapshot = [](const CrawlFleet& fleet) {
    Snapshot s;
    s.clock = fleet.clock();
    s.idle_ticks = fleet.idle_ticks();
    for (uint32_t i = 0; i < fleet.num_sources(); ++i) {
      SourceDegradation d = fleet.DegradationOf(i);
      s.turns.push_back(d.turns);
      s.rounds.push_back(fleet.engine(i).rounds_used());
      s.records.push_back(fleet.store(i).num_records());
      s.active.push_back(!d.finished && !d.abandoned);
      s.breakers.push_back(fleet.breaker(i));
    }
    return s;
  };

  std::vector<Snapshot> boundaries;
  FleetOptions options;
  options.turn_rounds = 8;
  options.checkpoint_every_turns = 1;  // observe every turn boundary
  options.checkpoint_sink = [&](const CrawlFleet& fleet) {
    boundaries.push_back(snapshot(fleet));
    return Status::OK();
  };
  CrawlFleet fleet(std::move(specs), options);
  boundaries.push_back(snapshot(fleet));
  ASSERT_TRUE(fleet.Run().ok());
  ASSERT_EQ(boundaries.size(), fleet.turns_completed() + 1);

  std::vector<double> last_hr(3, 0.0);
  size_t rate_picks = 0;
  for (size_t t = 0; t + 1 < boundaries.size(); ++t) {
    const Snapshot& before = boundaries[t];
    const Snapshot& after = boundaries[t + 1];
    uint32_t picked = 3;
    for (uint32_t i = 0; i < 3; ++i) {
      if (after.turns[i] != before.turns[i]) {
        ASSERT_EQ(picked, 3u) << "turn " << t << " went to two sources";
        picked = i;
      }
    }
    ASSERT_LT(picked, 3u) << "turn " << t << " went to no source";

    // The pick happened after the idle ticks of this step.
    const uint64_t now = before.clock + (after.idle_ticks - before.idle_ticks);
    std::vector<uint32_t> eligible;
    for (uint32_t i = 0; i < 3; ++i) {
      if (before.active[i] && before.breakers[i].CanAdmit(now)) {
        eligible.push_back(i);
      }
    }
    ASSERT_FALSE(eligible.empty()) << "turn " << t;
    auto first = [&](auto pred) {
      for (uint32_t i : eligible) {
        if (pred(i)) return i;
      }
      return 3u;
    };
    const uint32_t probe = first([&](uint32_t i) {
      return before.breakers[i].state() == BreakerState::kOpen;
    });
    const uint32_t fresh =
        first([&](uint32_t i) { return before.turns[i] == 0; });
    const bool by_rate = probe == 3 && fresh == 3;
    uint32_t expected = probe < 3 ? probe : fresh;
    if (by_rate) {
      expected = eligible.front();
      for (uint32_t i : eligible) {
        if (last_hr[i] > last_hr[expected]) expected = i;
      }
    }
    ASSERT_EQ(picked, expected)
        << "turn " << t << ": last-turn rates " << last_hr[0] << ", "
        << last_hr[1] << ", " << last_hr[2];
    rate_picks += by_rate ? 1 : 0;

    const uint64_t consumed = after.rounds[picked] - before.rounds[picked];
    if (consumed > 0) {
      last_hr[picked] =
          static_cast<double>(after.records[picked] - before.records[picked]) /
          static_cast<double>(consumed);
    }
  }
  // The rule, not the overrides, made most of the picks.
  EXPECT_GT(rate_picks, boundaries.size() / 2);
  EXPECT_GT(fleet.engine(1).trace().resilience().transient_failures, 0u);
}

TEST(CrawlFleetTest, SchedulerPolicyNamesRoundTrip) {
  for (SchedulerPolicy policy :
       {SchedulerPolicy::kMarginalHarvest, SchedulerPolicy::kRoundRobin,
        SchedulerPolicy::kSequential}) {
    StatusOr<SchedulerPolicy> parsed =
        ParseSchedulerPolicy(SchedulerPolicyToString(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseSchedulerPolicy("lifo").ok());
}

// --- breaker accounting & adaptive politeness ------------------------

// Pins the breaker's constants: a source failing every turn trips on its
// 3rd fully-failed turn, re-probes after 16, 32, 64, 128, 256, 256 and
// 256 ticks, is quarantined from its 3rd trip and exhausted at its 8th.
TEST(CircuitBreakerTest, FailingSourceFollowsTheConstantSchedule) {
  CircuitBreaker breaker;
  uint64_t now = 0;
  auto failed_turn = [&] {
    breaker.Admit(now);
    now += 8;
    breaker.OnTurn(now, /*rounds=*/8, /*failures=*/8, /*new_records=*/0);
  };
  failed_turn();
  failed_turn();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  failed_turn();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.transitions().opens, 1u);

  std::vector<uint64_t> cooldowns;
  std::vector<bool> quarantined;
  while (!breaker.exhausted()) {
    ASSERT_EQ(breaker.state(), BreakerState::kOpen);
    uint64_t at = breaker.EligibleAt(now);
    cooldowns.push_back(at - now);
    quarantined.push_back(breaker.quarantined());
    EXPECT_FALSE(breaker.CanAdmit(at - 1));
    ASSERT_TRUE(breaker.CanAdmit(at));
    now = at;
    failed_turn();  // the half-open probe fails
  }
  EXPECT_EQ(cooldowns,
            (std::vector<uint64_t>{16, 32, 64, 128, 256, 256, 256}));
  EXPECT_EQ(quarantined,
            (std::vector<bool>{false, false, true, true, true, true, true}));
  EXPECT_EQ(breaker.trips(), 8u);
  EXPECT_EQ(breaker.transitions().opens, 1u);
  EXPECT_EQ(breaker.transitions().reopens, 7u);
  EXPECT_EQ(breaker.transitions().probes, 7u);
  EXPECT_EQ(breaker.transitions().closes, 0u);
  EXPECT_FALSE(breaker.CanAdmit(now + 1'000'000));
}

// A successful probe resets the cooldown to 16 ticks until the source
// is quarantined (3 trips); from then on it keeps its grown cooldown.
TEST(CircuitBreakerTest, QuarantineKeepsTheGrownCooldown) {
  CircuitBreaker breaker;
  uint64_t now = 0;
  auto turn = [&](uint64_t new_records) {
    breaker.Admit(now);
    now += 8;
    breaker.OnTurn(now, /*rounds=*/8, /*failures=*/1, new_records);
  };
  auto trip = [&] {
    for (int i = 0; i < 3; ++i) turn(0);
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  };
  auto cooldown = [&] { return breaker.EligibleAt(now) - now; };
  auto probe = [&](uint64_t new_records) {
    now = breaker.EligibleAt(now);
    turn(new_records);
  };

  trip();  // trip 1
  EXPECT_EQ(cooldown(), 16u);
  probe(0);  // trip 2
  EXPECT_EQ(cooldown(), 32u);
  probe(1);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_FALSE(breaker.quarantined());
  trip();  // trip 3: the cooldown was reset on close
  EXPECT_EQ(cooldown(), 16u);
  EXPECT_TRUE(breaker.quarantined());
  probe(0);  // trip 4
  EXPECT_EQ(cooldown(), 32u);
  probe(1);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  trip();  // trip 5: quarantined, so the close kept 32
  EXPECT_EQ(cooldown(), 32u);
  EXPECT_EQ(breaker.transitions().closes, 2u);
}

TEST(CrawlFleetTest, BreakerTransitionAccountingIsExactUnderChaos) {
  // Source 1 goes permanently dark from fleet turn 0; source 0 stays
  // healthy. With sequential scheduling... source 1 would be starved, so
  // use round-robin and watch the breaker trip, probe, and re-open with
  // exact tallies.
  std::vector<FleetSourceSpec> specs = TinySpecs();
  specs[1].num_seeds = 24;  // enough frontier to outlast the breaker
  FleetOptions options;
  options.scheduler = SchedulerPolicy::kRoundRobin;
  options.turn_rounds = 8;
  options.chaos = {{1, 0, 0, FaultAction::kUnavailable}};
  CrawlFleet fleet(std::move(specs), options);
  StatusOr<FleetResult> result = fleet.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const CircuitBreaker& breaker = fleet.breaker(1);
  const BreakerTransitions& t = breaker.transitions();
  // Exactly one closed->open trip (it never successfully closes again),
  // then probes that all fail: every probe re-opens, none closes.
  EXPECT_EQ(t.opens, 1u);
  EXPECT_EQ(t.closes, 0u);
  EXPECT_EQ(t.probes, t.reopens);
  // Abandoned at exactly the trip cap.
  EXPECT_TRUE(breaker.exhausted());
  EXPECT_EQ(t.opens + t.reopens, 8u);
  EXPECT_TRUE(breaker.quarantined());

  const SourceDegradation& dead = result->sources[1].degradation;
  EXPECT_TRUE(dead.quarantined);
  EXPECT_TRUE(dead.abandoned);
  EXPECT_FALSE(dead.finished);
  EXPECT_EQ(dead.breaker, t);
  EXPECT_EQ(dead.records_harvested, 0u);
  EXPECT_GT(dead.ticks_quarantined, 0u);
  // The healthy source was never slowed down to zero: it finished.
  EXPECT_TRUE(result->sources[0].degradation.finished);
  // The dead source's outcome is isolation, not a fleet error.
  EXPECT_TRUE(result->sources[1].error.ok());
}

TEST(CrawlFleetTest, RetryAfterHintFloorsNextTurn) {
  // A rate-limit storm on the only source: after a turn that saw 429s,
  // the source's next turn waits for the advertised hint, visible as
  // fleet idle ticks (the breaker alone would have admitted immediately).
  StatusOr<std::vector<FleetSourceSpec>> made =
      MakeFleetSourceSpecs(1, /*scale=*/0.003, /*target_coverage=*/0.0);
  ASSERT_TRUE(made.ok());
  std::vector<FleetSourceSpec> specs = std::move(*made);
  specs[0].faults.retry_after_rounds = 12;
  FleetOptions options;
  options.turn_rounds = 8;
  options.chaos = {{0, 1, 3, FaultAction::kRateLimit}};
  CrawlFleet fleet(std::move(specs), options);
  StatusOr<FleetResult> result = fleet.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ResilienceCounters& res = result->sources[0].result.resilience;
  EXPECT_GT(res.rate_limit_rejections, 0u);
  EXPECT_EQ(res.max_retry_after_hint, 12u);
  EXPECT_GE(result->idle_ticks, 12u);
  EXPECT_TRUE(result->sources[0].degradation.finished);
}

TEST(CrawlFleetTest, TurnGrantIsTheFullSliceAboveOneThousandRounds) {
  // A turn grants exactly turn_rounds, clamped only by the source
  // deadline and the global budget: no other limiter caps a large slice.
  constexpr uint64_t kTurnRounds = 2000;
  StatusOr<std::vector<FleetSourceSpec>> specs =
      MakeFleetSourceSpecs(1, /*scale=*/0.1, /*target_coverage=*/0.0);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  FleetOptions options;
  options.turn_rounds = kTurnRounds;
  options.checkpoint_every_turns = 1;
  auto first_turn_rounds = std::make_shared<uint64_t>(0);
  options.checkpoint_sink = [first_turn_rounds](const CrawlFleet& fleet) {
    if (fleet.turns_completed() == 1) {
      *first_turn_rounds = fleet.engine(0).rounds_used();
    }
    return Status::OK();
  };
  CrawlFleet fleet(std::move(*specs), options);
  StatusOr<FleetResult> result = fleet.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const uint64_t rounds_to_finish = fleet.engine(0).rounds_used();
  ASSERT_GT(rounds_to_finish, 1024u) << "the table is too small to tell";
  EXPECT_EQ(*first_turn_rounds, std::min(kTurnRounds, rounds_to_finish));
}

// --- the hostile-chaos acceptance scenario ---------------------------

TEST(CrawlFleetTest, HostileChaosFleetDegradesGracefully) {
  StatusOr<std::vector<FleetSourceSpec>> specs =
      MakeFleetSourceSpecs(8, /*scale=*/0.002, /*target_coverage=*/0.9);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  for (FleetSourceSpec& spec : *specs) spec.num_seeds = 12;

  FleetOptions options;
  options.seed = 42;
  options.turn_rounds = 16;
  options.chaos = HostileChaosSchedule(8);
  // Generous requeue budget: flappers park values at the frontier tail
  // during dark windows instead of abandoning them for good.
  options.retry.max_requeues = 16;
  CrawlFleet fleet(std::move(*specs), options);
  StatusOr<FleetResult> result = fleet.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result->sources.size(), 8u);
  ASSERT_EQ(result->merged.source_reports.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    const SourceDegradation& d = result->sources[i].degradation;
    EXPECT_EQ(d.source_id, i);
    EXPECT_EQ(d, result->merged.source_reports[i]);
    if (i == 1) continue;  // the permanently dead source
    // Every healthy (or recovering) source reaches its 90% target.
    EXPECT_TRUE(d.finished) << "source " << i << " (" << d.name << ")";
    EXPECT_GE(d.records_harvested,
              static_cast<uint64_t>(
                  0.9 * static_cast<double>(fleet.spec(i).table.num_records())))
        << "source " << i;
    EXPECT_EQ(d.records_missing, 0u) << "source " << i;
  }

  // The dead source is reported quarantined, with its breaker history.
  const SourceDegradation& dead = result->sources[1].degradation;
  EXPECT_TRUE(dead.quarantined);
  EXPECT_FALSE(dead.finished);
  EXPECT_GT(dead.breaker.opens + dead.breaker.reopens, 2u);
  EXPECT_GT(dead.ticks_quarantined, 0u);
  EXPECT_GT(dead.records_missing, 0u);

  // Merged bookkeeping is consistent.
  uint64_t records = 0;
  uint64_t rounds = 0;
  for (const FleetSourceOutcome& outcome : result->sources) {
    records += outcome.result.records;
    rounds += outcome.result.rounds;
  }
  EXPECT_EQ(result->merged.records, records);
  EXPECT_EQ(result->merged.rounds, rounds);
}

// --- checkpoint/resume ------------------------------------------------

FleetOptions CheckpointFleetOptions() {
  FleetOptions options;
  options.seed = 5;
  options.turn_rounds = 8;
  options.chaos = {{1, 2, 6, FaultAction::kUnavailable},
                   {0, 4, 5, FaultAction::kRateLimit}};
  return options;
}

std::vector<FleetSourceSpec> CheckpointFleetSpecs() {
  std::vector<FleetSourceSpec> specs = TinySpecs();
  for (FleetSourceSpec& spec : specs) {
    spec.faults.unavailable_rate = 0.05;
    spec.faults.timeout_rate = 0.03;
  }
  return specs;
}

// The scheduler state a fleet checkpoint does not store: a restore
// rebuilds it by replaying turns, and it must equal the saved fleet's.
struct SourceState {
  SourceDegradation degradation;
  BreakerState breaker_state = BreakerState::kClosed;
  BreakerTransitions breaker_transitions;
};

struct FleetState {
  uint64_t clock = 0;
  uint64_t idle_ticks = 0;
  uint64_t total_rounds = 0;
  uint64_t total_records = 0;
  uint64_t turns = 0;
  std::vector<SourceState> sources;
};

FleetState StateOf(const CrawlFleet& fleet) {
  FleetState state;
  state.clock = fleet.clock();
  state.idle_ticks = fleet.idle_ticks();
  state.total_rounds = fleet.total_rounds();
  state.total_records = fleet.total_records();
  state.turns = fleet.turns_completed();
  for (uint32_t i = 0; i < fleet.num_sources(); ++i) {
    state.sources.push_back(SourceState{
        .degradation = fleet.DegradationOf(i),
        .breaker_state = fleet.breaker(i).state(),
        .breaker_transitions = fleet.breaker(i).transitions()});
  }
  return state;
}

void ExpectSameState(const FleetState& got, const FleetState& want,
                     const std::string& label) {
  EXPECT_EQ(got.clock, want.clock) << label;
  EXPECT_EQ(got.idle_ticks, want.idle_ticks) << label;
  EXPECT_EQ(got.total_rounds, want.total_rounds) << label;
  EXPECT_EQ(got.total_records, want.total_records) << label;
  EXPECT_EQ(got.turns, want.turns) << label;
  ASSERT_EQ(got.sources.size(), want.sources.size()) << label;
  for (size_t s = 0; s < got.sources.size(); ++s) {
    const SourceState& g = got.sources[s];
    const SourceState& w = want.sources[s];
    EXPECT_EQ(g.degradation, w.degradation) << label << " source " << s;
    EXPECT_EQ(g.breaker_state, w.breaker_state) << label << " source " << s;
    EXPECT_EQ(g.breaker_transitions, w.breaker_transitions)
        << label << " source " << s;
  }
}

// A checkpoint image at every turn boundary of a bounded run, with the
// fleet's state at that boundary.
struct TurnImages {
  std::vector<std::string> images;
  std::vector<FleetState> states;
};

TurnImages ImagesAtEveryTurn(uint64_t max_rounds) {
  FleetOptions options = CheckpointFleetOptions();
  options.max_total_rounds = max_rounds;
  options.checkpoint_every_turns = 1;
  auto taken = std::make_shared<TurnImages>();
  options.checkpoint_sink = [taken](const CrawlFleet& fleet) -> Status {
    StatusOr<std::string> image = EncodeFleetCheckpoint(fleet);
    DEEPCRAWL_RETURN_IF_ERROR(image.status());
    taken->images.push_back(std::move(*image));
    taken->states.push_back(StateOf(fleet));
    return Status::OK();
  };
  CrawlFleet fleet(CheckpointFleetSpecs(), options);
  StatusOr<FleetResult> result = fleet.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return *taken;
}

TEST(CrawlFleetTest, ResumeFromAnyTurnBoundaryIsBitIdentical) {
  // Reference: uninterrupted bounded run.
  CrawlFleet reference(CheckpointFleetSpecs(), CheckpointFleetOptions());
  reference.set_max_total_rounds(160);
  StatusOr<FleetResult> uninterrupted = reference.Run();
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  const std::string want = FleetTraceCsv(*uninterrupted);

  TurnImages taken = ImagesAtEveryTurn(160);
  const std::vector<std::string>& images = taken.images;
  ASSERT_GT(images.size(), 4u);
  for (size_t i = 0; i < images.size(); ++i) {
    CrawlFleet resumed(CheckpointFleetSpecs(), CheckpointFleetOptions());
    Status loaded = DecodeFleetCheckpoint(images[i], resumed);
    ASSERT_TRUE(loaded.ok()) << "image " << i << ": " << loaded.ToString();
    // Image i was taken at the end of turn i + 1.
    ASSERT_EQ(taken.states[i].turns, i + 1);
    ExpectSameState(StateOf(resumed), taken.states[i],
                    "image " + std::to_string(i));
    resumed.set_max_total_rounds(160);
    StatusOr<FleetResult> cont = resumed.Run();
    ASSERT_TRUE(cont.ok()) << cont.status().ToString();
    EXPECT_EQ(FleetTraceCsv(*cont), want) << "resumed from image " << i;
    EXPECT_EQ(cont->merged.records, uninterrupted->merged.records);
    EXPECT_EQ(cont->turns, uninterrupted->turns);
    EXPECT_EQ(cont->idle_ticks, uninterrupted->idle_ticks);
    for (uint32_t s = 0; s < resumed.num_sources(); ++s) {
      EXPECT_EQ(resumed.breaker(s).transitions(),
                reference.breaker(s).transitions())
          << "image " << i << " source " << s;
    }
  }
}

TEST(CrawlFleetTest, SaveLoadFileRoundTrip) {
  testing_util::ScopedTempDir dir;
  std::string path = dir.File("deepcrawl_fleet_ckpt.bin");

  CrawlFleet saved(CheckpointFleetSpecs(), CheckpointFleetOptions());
  saved.set_max_total_rounds(80);
  StatusOr<FleetResult> partial = saved.Run();
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(SaveFleetCheckpoint(saved, path).ok());

  // The replayed turns must not fire the resumed fleet's sink.
  FleetOptions options = CheckpointFleetOptions();
  auto saves = std::make_shared<int>(0);
  options.checkpoint_every_turns = 1;
  options.checkpoint_sink = [saves](const CrawlFleet&) -> Status {
    ++*saves;
    return Status::OK();
  };
  CrawlFleet resumed(CheckpointFleetSpecs(), options);
  ASSERT_TRUE(LoadFleetCheckpoint(path, resumed).ok());
  ExpectSameState(StateOf(resumed), StateOf(saved), "file round trip");
  EXPECT_EQ(*saves, 0);
}

// The image of a fleet stopped by its global budget after two staged
// Run() calls, pinned by FNV-1a digest: a change to how the engines
// record or write their fetch logs that must keep the format is checked
// here byte for byte. Update it only with kFleetCheckpointVersion.
std::string StagedFleetImage() {
  CrawlFleet fleet(CheckpointFleetSpecs(), CheckpointFleetOptions());
  for (uint64_t budget : {24, 80}) {
    fleet.set_max_total_rounds(budget);
    DEEPCRAWL_CHECK(fleet.Run().ok());
  }
  StatusOr<std::string> image = EncodeFleetCheckpoint(fleet);
  DEEPCRAWL_CHECK(image.ok()) << image.status().ToString();
  return *image;
}

TEST(CrawlFleetTest, GoldenImageDigest) {
  const std::string image = StagedFleetImage();
  EXPECT_EQ(CheckpointChecksum(image), 0xbcd466846e949df9ULL)
      << image.size() << " bytes";
}

// A restored fleet saved again at once writes the image it was restored
// from, whether that was saved after Run() or from the sink between
// turns.
TEST(CrawlFleetTest, RestoredFleetSavesItsImageAgain) {
  std::vector<std::string> images = ImagesAtEveryTurn(160).images;
  ASSERT_GT(images.size(), 4u);
  images.push_back(StagedFleetImage());
  for (size_t i = 0; i < images.size(); ++i) {
    CrawlFleet restored(CheckpointFleetSpecs(), CheckpointFleetOptions());
    Status loaded = DecodeFleetCheckpoint(images[i], restored);
    ASSERT_TRUE(loaded.ok()) << "image " << i << ": " << loaded.ToString();
    StatusOr<std::string> again = EncodeFleetCheckpoint(restored);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(*again == images[i]) << "image " << i;
  }
}

// Run() calls under different global budgets: each budget is replayed
// from the turn it took effect at.
TEST(CrawlFleetTest, ResumeAfterRaisedBudgetsIsBitIdentical) {
  auto run_staged = [](CrawlFleet& fleet) {
    for (uint64_t budget : {24, 48}) {
      fleet.set_max_total_rounds(budget);
      ASSERT_TRUE(fleet.Run().ok());
    }
  };
  CrawlFleet reference(CheckpointFleetSpecs(), CheckpointFleetOptions());
  run_staged(reference);
  StatusOr<std::string> image = EncodeFleetCheckpoint(reference);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const FleetState at_save = StateOf(reference);
  reference.set_max_total_rounds(160);
  StatusOr<FleetResult> uninterrupted = reference.Run();
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();

  // The resumed fleet runs under its own budget, not the image's last.
  FleetOptions options = CheckpointFleetOptions();
  options.max_total_rounds = 160;
  CrawlFleet resumed(CheckpointFleetSpecs(), options);
  Status loaded = DecodeFleetCheckpoint(*image, resumed);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  ExpectSameState(StateOf(resumed), at_save, "after load");
  StatusOr<FleetResult> cont = resumed.Run();
  ASSERT_TRUE(cont.ok()) << cont.status().ToString();
  EXPECT_EQ(FleetTraceCsv(*cont), FleetTraceCsv(*uninterrupted));
  ExpectSameState(StateOf(resumed), StateOf(reference), "after resume");
}

// A run capped by max_total_rounds clamps its last turn's grant to what
// the cap leaves, so raising the budget continues from that clamped
// state, not from where one uncapped run would be at the same round.
// What the fleet promises instead: the continuation is the same whether
// the capped fleet is re-called in process or resumed from the image its
// checkpoint sink wrote at the cap.
TEST(CrawlFleetTest, CappedRunResumedMatchesInProcessRecall) {
  constexpr uint64_t kRaised = 160;
  int differs_from_one_shot = 0;
  for (SchedulerPolicy scheduler :
       {SchedulerPolicy::kMarginalHarvest, SchedulerPolicy::kRoundRobin,
        SchedulerPolicy::kSequential}) {
    FleetOptions one_shot_options = CheckpointFleetOptions();
    one_shot_options.scheduler = scheduler;
    one_shot_options.max_total_rounds = kRaised;
    CrawlFleet one_shot(CheckpointFleetSpecs(), one_shot_options);
    StatusOr<FleetResult> uncapped = one_shot.Run();
    ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();
    for (uint64_t cap : {20, 50, 100}) {
      const std::string label = std::string(SchedulerPolicyToString(
                                    scheduler)) +
                                " cap " + std::to_string(cap);
      FleetOptions options = CheckpointFleetOptions();
      options.scheduler = scheduler;
      options.max_total_rounds = cap;
      options.checkpoint_every_turns = 1;
      auto last_image = std::make_shared<std::string>();
      options.checkpoint_sink = [last_image](const CrawlFleet& fleet) {
        StatusOr<std::string> image = EncodeFleetCheckpoint(fleet);
        DEEPCRAWL_RETURN_IF_ERROR(image.status());
        *last_image = std::move(*image);
        return Status::OK();
      };
      CrawlFleet capped(CheckpointFleetSpecs(), options);
      ASSERT_TRUE(capped.Run().ok()) << label;
      ASSERT_GE(capped.total_rounds(), cap) << label;
      const std::string at_cap = *last_image;
      ASSERT_FALSE(at_cap.empty()) << label;

      capped.set_max_total_rounds(kRaised);
      StatusOr<FleetResult> recalled = capped.Run();
      ASSERT_TRUE(recalled.ok()) << label << ": "
                                 << recalled.status().ToString();

      FleetOptions resume_options = CheckpointFleetOptions();
      resume_options.scheduler = scheduler;
      resume_options.max_total_rounds = kRaised;
      CrawlFleet resumed(CheckpointFleetSpecs(), resume_options);
      Status loaded = DecodeFleetCheckpoint(at_cap, resumed);
      ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.ToString();
      StatusOr<FleetResult> cont = resumed.Run();
      ASSERT_TRUE(cont.ok()) << label << ": " << cont.status().ToString();
      EXPECT_EQ(FleetTraceCsv(*cont), FleetTraceCsv(*recalled)) << label;
      ExpectSameState(StateOf(resumed), StateOf(capped), label);
      if (FleetTraceCsv(*cont) != FleetTraceCsv(*uncapped)) {
        ++differs_from_one_shot;
      }
    }
  }
  // The clamp is real: some capped-then-raised runs end elsewhere than
  // the one-shot run under the raised budget.
  EXPECT_GT(differs_from_one_shot, 0);
}

TEST(CrawlFleetTest, RestoreRequiresFreshFleet) {
  std::vector<std::string> images = ImagesAtEveryTurn(80).images;
  ASSERT_FALSE(images.empty());
  CrawlFleet used(CheckpointFleetSpecs(), CheckpointFleetOptions());
  used.set_max_total_rounds(24);
  ASSERT_TRUE(used.Run().ok());
  Status status = DecodeFleetCheckpoint(images.back(), used);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(CrawlFleetTest, ConfigMismatchIsCleanError) {
  std::vector<std::string> images = ImagesAtEveryTurn(80).images;
  ASSERT_FALSE(images.empty());
  const std::string& image = images.back();

  {  // different scheduler
    FleetOptions options = CheckpointFleetOptions();
    options.scheduler = SchedulerPolicy::kRoundRobin;
    CrawlFleet fleet(CheckpointFleetSpecs(), options);
    EXPECT_FALSE(DecodeFleetCheckpoint(image, fleet).ok());
  }
  {  // different chaos schedule
    FleetOptions options = CheckpointFleetOptions();
    options.chaos[0].end_turn += 1;
    CrawlFleet fleet(CheckpointFleetSpecs(), options);
    EXPECT_FALSE(DecodeFleetCheckpoint(image, fleet).ok());
  }
  {  // different source count
    FleetOptions options = CheckpointFleetOptions();
    std::vector<FleetSourceSpec> specs = CheckpointFleetSpecs();
    specs.pop_back();
    CrawlFleet fleet(std::move(specs), options);
    EXPECT_FALSE(DecodeFleetCheckpoint(image, fleet).ok());
  }
  {  // different source name (order is part of the contract)
    FleetOptions options = CheckpointFleetOptions();
    std::vector<FleetSourceSpec> specs = CheckpointFleetSpecs();
    std::swap(specs[0], specs[1]);
    CrawlFleet fleet(std::move(specs), options);
    Status status = DecodeFleetCheckpoint(image, fleet);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("source"), std::string::npos);
  }
}

// --- adversarial-input sweeps (crawler_checkpoint_test.cc idiom) -----

std::string SmallFleetImage() {
  static const std::string* image = [] {
    FleetOptions options = CheckpointFleetOptions();
    options.max_total_rounds = 48;
    CrawlFleet fleet(CheckpointFleetSpecs(), options);
    StatusOr<FleetResult> partial = fleet.Run();
    DEEPCRAWL_CHECK(partial.ok()) << partial.status().ToString();
    StatusOr<std::string> encoded = EncodeFleetCheckpoint(fleet);
    DEEPCRAWL_CHECK(encoded.ok()) << encoded.status().ToString();
    return new std::string(std::move(*encoded));
  }();
  return *image;
}

Status TryDecodeFleet(const std::string& image) {
  // Framing rejects (bad magic/version/size/checksum) need no fleet;
  // constructing one per probe would dominate the sweeps below.
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kFleetCheckpointVersion);
  if (!payload.ok()) return payload.status();
  CrawlFleet fleet(CheckpointFleetSpecs(), CheckpointFleetOptions());
  return DecodeFleetCheckpoint(image, fleet);
}

TEST(CrawlFleetTest, EveryCheckpointByteFlipIsRejected) {
  std::string image = SmallFleetImage();
  ASSERT_GT(image.size(), 24u);
  for (size_t i = 0; i < image.size(); ++i) {
    std::string mangled = image;
    mangled[i] = static_cast<char>(mangled[i] ^ 0xFF);
    Status status = TryDecodeFleet(mangled);
    ASSERT_FALSE(status.ok()) << "flip at byte " << i << " was accepted";
  }
}

TEST(CrawlFleetTest, CheckpointTruncationsAndTrailersAreRejected) {
  std::string image = SmallFleetImage();
  for (size_t len = 0; len < image.size(); ++len) {
    ASSERT_FALSE(TryDecodeFleet(image.substr(0, len)).ok())
        << "truncation to " << len << " was accepted";
  }
  EXPECT_FALSE(TryDecodeFleet(image + "junk").ok());
}

TEST(CrawlFleetTest, ForgedChecksumPayloadFlipsNeverCrash) {
  std::string image = SmallFleetImage();
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kFleetCheckpointVersion);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  size_t step = payload->size() / 4096 + 1;
  size_t probed = 0;
  size_t rejected = 0;
  for (size_t i = 0; i < payload->size(); i += step) {
    std::string mutated(*payload);
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    std::string reframed = FrameCheckpoint(mutated, kFleetCheckpointVersion);
    ++probed;
    if (!TryDecodeFleet(reframed).ok()) ++rejected;
  }
  // Flips in a fingerprint field, marker, count, or range-checked value
  // are caught; flips in bulk engine payload (record ids, frequencies)
  // decode as different-but-valid data — that residue is exactly what
  // the frame checksum covers. The contract here is no crash plus a
  // still-substantial structural-rejection rate.
  EXPECT_GT(rejected, probed / 3);

  for (size_t len = 0; len < payload->size(); len += step * 7) {
    std::string reframed =
        FrameCheckpoint(payload->substr(0, len), kFleetCheckpointVersion);
    ASSERT_FALSE(TryDecodeFleet(reframed).ok())
        << "reframed truncation to " << len << " was accepted";
  }
}

// --- images whose parts disagree behind a valid checksum --------------

uint64_t LoadLe(const std::string& bytes, size_t at, int width) {
  uint64_t v = 0;
  for (int b = 0; b < width; ++b) {
    v |= uint64_t{static_cast<uint8_t>(bytes[at + b])} << (8 * b);
  }
  return v;
}

void StoreLe(std::string& bytes, size_t at, int width, uint64_t v) {
  for (int b = 0; b < width; ++b) {
    bytes[at + b] = static_cast<char>((v >> (8 * b)) & 0xFF);
  }
}

// An image of a fleet run under two budgets, so it holds two budget
// marks: (turn 0, 24 rounds) and (turn T, 48 rounds).
std::string TwoBudgetPayload() {
  CrawlFleet fleet(CheckpointFleetSpecs(), CheckpointFleetOptions());
  for (uint64_t budget : {24, 48}) {
    fleet.set_max_total_rounds(budget);
    DEEPCRAWL_CHECK(fleet.Run().ok());
  }
  StatusOr<std::string> image = EncodeFleetCheckpoint(fleet);
  DEEPCRAWL_CHECK(image.ok()) << image.status().ToString();
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(*image, kFleetCheckpointVersion);
  DEEPCRAWL_CHECK(payload.ok()) << payload.status().ToString();
  return std::string(*payload);
}

// Offsets in a fleet payload (layout in crawl_fleet.h): the FLET section
// ends with the budget marks and the turn count, right before the first
// FSRC marker.
struct PayloadLayout {
  explicit PayloadLayout(const std::string& payload)
      : first_source(payload.find("FSRC")),
        turns(first_source - 8),
        marks(turns - 32) {}
  size_t first_source;
  size_t turns;
  size_t marks;  // two marks of 16 bytes, after their u64 count
};

Status DecodeReframed(const std::string& payload) {
  CrawlFleet fleet(CheckpointFleetSpecs(), CheckpointFleetOptions());
  return DecodeFleetCheckpoint(
      FrameCheckpoint(payload, kFleetCheckpointVersion), fleet);
}

TEST(CrawlFleetTest, InconsistentImagesAreCleanErrors) {
  const std::string payload = TwoBudgetPayload();
  ASSERT_TRUE(DecodeReframed(payload).ok());
  const PayloadLayout at(payload);
  ASSERT_NE(at.first_source, std::string::npos);
  ASSERT_EQ(LoadLe(payload, at.marks - 8, 8), 2u);
  ASSERT_EQ(LoadLe(payload, at.marks, 8), 0u);
  ASSERT_EQ(LoadLe(payload, at.marks + 8, 8), 24u);
  ASSERT_EQ(LoadLe(payload, at.marks + 24, 8), 48u);
  const uint64_t turns = LoadLe(payload, at.turns, 8);
  ASSERT_GT(turns, 2u);

  auto expect_rejected = [](const std::string& forged, const char* what,
                            const char* message = "") {
    Status status = DecodeReframed(forged);
    ASSERT_FALSE(status.ok()) << what << " was accepted";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << what << ": " << status.ToString();
    EXPECT_NE(status.message().find(message), std::string::npos)
        << what << ": " << status.ToString();
  };

  // More completed turns than the fetch logs can serve.
  for (uint64_t extra : {uint64_t{1}, uint64_t{1000}}) {
    std::string forged = payload;
    StoreLe(forged, at.turns, 8, turns + extra);
    expect_rejected(forged, "a larger turn count", "claims");
  }
  // Fewer turns: the logs hold entries the replay never reaches.
  {
    std::string forged = payload;
    StoreLe(forged, at.turns, 8, turns - 1);
    expect_rejected(forged, "a smaller turn count", "entries past");
  }
  // Budget marks out of turn order.
  {
    std::string forged = payload;
    forged.replace(at.marks, 16, payload, at.marks + 16, 16);
    forged.replace(at.marks + 16, 16, payload, at.marks, 16);
    expect_rejected(forged, "swapped budget marks");
  }
  // The second budget taking effect one turn after the first budget
  // stops the fleet.
  {
    std::string forged = payload;
    StoreLe(forged, at.marks + 16, 8, LoadLe(payload, at.marks + 16, 8) + 1);
    expect_rejected(forged, "a moved budget mark");
  }
  // The first source's engine blob cut short, its length patched to
  // match, so the fleet framing around it still parses.
  const size_t name_at = at.first_source + 4;
  const size_t blob_at = name_at + 4 + LoadLe(payload, name_at, 4);
  const uint64_t blob_size = LoadLe(payload, blob_at, 4);
  for (uint64_t cut : {uint64_t{1}, uint64_t{9}, blob_size / 2}) {
    std::string forged = payload;
    forged.erase(blob_at + 4 + blob_size - cut, cut);
    StoreLe(forged, blob_at, 4, blob_size - cut);
    expect_rejected(forged, "a truncated engine blob");
  }
  // ... or padded past the log's end entry.
  {
    std::string forged = payload;
    forged.insert(blob_at + 4 + blob_size, "junk");
    StoreLe(forged, blob_at, 4, blob_size + 4);
    expect_rejected(forged, "a padded engine blob", "trailing bytes");
  }
}

TEST(CrawlFleetTest, VersionMismatchIsRejected) {
  // The previous format (its fingerprint still carried the breaker's six
  // thresholds and the retry policy's four backoff-shape fields) and a
  // future one are both refused.
  for (uint32_t bogus :
       {kFleetCheckpointVersion - 1, kFleetCheckpointVersion + 1}) {
    std::string image = SmallFleetImage();
    for (int b = 0; b < 4; ++b) {
      image[4 + b] = static_cast<char>((bogus >> (8 * b)) & 0xFF);
    }
    Status status = TryDecodeFleet(image);
    ASSERT_FALSE(status.ok()) << bogus;
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.ToString();
  }

  // A v1012 image in v1012's FALT layout: each source's fault state
  // carries a keyed-mode byte (1 = keyed) after the profile and two
  // fault-RNG words (state, odd increment) after the schedule position.
  const std::string image = SmallFleetImage();
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kFleetCheckpointVersion);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  std::string v1012_payload(*payload);
  auto read_le = [&v1012_payload](size_t at, int bytes) {
    uint64_t v = 0;
    for (int b = 0; b < bytes; ++b) {
      v |= uint64_t{static_cast<uint8_t>(v1012_payload[at + b])} << (8 * b);
    }
    return v;
  };
  size_t at = 0;
  for (const FleetSourceSpec& spec : CheckpointFleetSpecs()) {
    // FSRC marker, then the name as u32 length + bytes.
    std::string header = "FSRC";
    for (int b = 0; b < 4; ++b) {
      header.push_back(static_cast<char>((spec.name.size() >> (8 * b)) & 0xFF));
    }
    header += spec.name;
    at = v1012_payload.find(header, at);
    ASSERT_NE(at, std::string::npos) << spec.name;
    at += header.size();
    at += 4 + read_le(at, 4);  // the engine's length-prefixed blob
    // FALT: seed u64, five rate doubles, retry-after u32.
    at += 8 + 5 * 8 + 4;
    v1012_payload.insert(at, 1, '\1');
    at += 1 + 8 + 8;  // keyed byte, schedule size and position
    v1012_payload.insert(at, std::string("\x2a\x2a\x2a\x2a\x2a\x2a\x2a\x2a"
                                         "\x01\x00\x00\x00\x00\x00\x00\x00",
                                         16));
    at += 16;
    // The attempt table (u64 key + u32 count each), then seven counters.
    at += 8 + read_le(at, 8) * 12 + 7 * 8;
  }
  ASSERT_EQ(at, v1012_payload.size() - 4);  // only the END! marker left
  CrawlFleet fleet(CheckpointFleetSpecs(), CheckpointFleetOptions());
  Status status =
      DecodeFleetCheckpoint(FrameCheckpoint(v1012_payload, 1012), fleet);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();
}

// An engine checkpoint is never accepted as a fleet checkpoint: the two
// live in different version namespaces.
TEST(CrawlFleetTest, EngineCheckpointVersionIsRejected) {
  std::string image = SmallFleetImage();
  for (int b = 0; b < 4; ++b) {
    image[4 + b] =
        static_cast<char>((kCrawlCheckpointVersion >> (8 * b)) & 0xFF);
  }
  EXPECT_FALSE(TryDecodeFleet(image).ok());
}

// --- chaos schedule parsing ------------------------------------------

TEST(CrawlFleetTest, ChaosSpecParses) {
  StatusOr<ChaosSchedule> parsed =
      ParseChaosSchedule("dead:1@6;ratelimit:2,3@10-20", 4);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[0],
            (ChaosEvent{1, 6, 0, FaultAction::kUnavailable}));
  EXPECT_EQ((*parsed)[1], (ChaosEvent{2, 10, 20, FaultAction::kRateLimit}));
  EXPECT_EQ((*parsed)[2], (ChaosEvent{3, 10, 20, FaultAction::kRateLimit}));

  EXPECT_TRUE(ParseChaosSchedule("", 1)->empty());
  EXPECT_FALSE(ParseChaosSchedule("dead:9@0", 4).ok());   // bad source
  EXPECT_FALSE(ParseChaosSchedule("dead:0@9-3", 4).ok());  // bad window
  EXPECT_FALSE(ParseChaosSchedule("meteor:0@0", 4).ok());  // bad kind
  EXPECT_FALSE(ParseChaosSchedule("dead:0", 4).ok());      // no window
}

TEST(CrawlFleetTest, ForcedActionLaterEventsOverride) {
  ChaosSchedule schedule = {{0, 0, 10, FaultAction::kUnavailable},
                            {0, 5, 8, FaultAction::kRateLimit}};
  EXPECT_EQ(ForcedActionAt(schedule, 0, 4), FaultAction::kUnavailable);
  EXPECT_EQ(ForcedActionAt(schedule, 0, 6), FaultAction::kRateLimit);
  EXPECT_EQ(ForcedActionAt(schedule, 0, 9), FaultAction::kUnavailable);
  EXPECT_EQ(ForcedActionAt(schedule, 0, 10), std::nullopt);
  EXPECT_EQ(ForcedActionAt(schedule, 1, 4), std::nullopt);
}

}  // namespace
}  // namespace deepcrawl
