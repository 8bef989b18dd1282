// Tests of the textual-source term-weight selector and the adaptive
// meta-selector that chains policies behind a harvest-rate switch rule.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/crawler/adaptive_selector.h"
#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/term_weight_selector.h"
#include "src/datagen/movie_domain.h"
#include "src/server/web_db_server.h"

namespace deepcrawl {
namespace {

// Adds `slots` records all containing `v` (plus a fresh filler value
// each) so LocalFrequency(v) == slots.
void AddHub(LocalStore& store, QuerySelector& selector, ValueId v,
            uint32_t slots, uint32_t& next_slot, ValueId& next_filler) {
  for (uint32_t i = 0; i < slots; ++i) {
    store.AddRecord(next_slot, std::vector<ValueId>{v, next_filler++});
    selector.OnRecordHarvested(next_slot++);
  }
}

// --- checkpoint resume through the engine -----------------------------
//
// A checkpoint holds the crawl's fetch log, and restoring it replays the
// log through the selector's event callbacks (src/crawler/checkpoint.h),
// so these tests crawl a real (small) source end to end.

const Table& ResumeTarget() {
  static const Table* table = [] {
    MovieDomainPairConfig config;
    config.universe_size = 500;
    config.target_size = 120;
    config.seed = 11;
    StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
    DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
    return new Table(std::move(pair->target));
  }();
  return *table;
}

using MakeSelectorFn =
    std::function<std::unique_ptr<QuerySelector>(const LocalStore&)>;

struct EngineCrawl {
  explicit EngineCrawl(const MakeSelectorFn& make)
      : server(ResumeTarget(), ServerOptions()),
        selector(make(store)),
        engine(server, *selector, store, CrawlOptions{}) {}

  // Crawls from the target's first value for `rounds` rounds (0 = to
  // the end).
  CrawlResult Crawl(uint64_t rounds) {
    for (ValueId v = 0; v < ResumeTarget().num_distinct_values(); ++v) {
      if (ResumeTarget().value_frequency(v) == 0) continue;
      engine.AddSeed(v);
      break;
    }
    return Continue(rounds);
  }
  CrawlResult Continue(uint64_t rounds) {
    engine.set_max_rounds(rounds);
    StatusOr<CrawlResult> result = engine.Run();
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }
  std::string Image() const {
    StatusOr<std::string> image = EncodeCrawlCheckpoint(engine, nullptr);
    DEEPCRAWL_CHECK(image.ok()) << image.status().ToString();
    return std::move(image).value();
  }
  Status Restore(const std::string& image) {
    return DecodeCrawlCheckpoint(image, engine, nullptr);
  }

  WebDbServer server;
  LocalStore store;
  std::unique_ptr<QuerySelector> selector;
  CrawlEngine engine;
};

MakeSelectorFn TermWeight(TermWeightOptions options = TermWeightOptions{}) {
  return [options](const LocalStore& store) {
    return std::make_unique<TermWeightSelector>(store, options);
  };
}

TEST(TermWeightSelectorTest, WeightIsUnimodalInDocumentFrequency) {
  LocalStore store;
  TermWeightSelector selector(store);
  // Values 1, 2, 3 with df 1, 4, 10 across N = 10 records (value 3 in
  // every record).
  uint32_t slot = 0;
  for (uint32_t r = 0; r < 10; ++r) {
    std::vector<ValueId> values = {3};
    if (r < 1) values.push_back(1);
    if (r < 4) values.push_back(2);
    values.push_back(100 + r);
    store.AddRecord(slot, values);
    selector.OnRecordHarvested(slot++);
  }
  // w(df) = df * ln((N+1)/df) peaks near df = (N+1)/e ≈ 4: a term in
  // every document discriminates nothing, a singleton recalls nothing.
  EXPECT_GT(selector.Weight(2), selector.Weight(1));
  EXPECT_GT(selector.Weight(2), selector.Weight(3));
  EXPECT_DOUBLE_EQ(selector.Weight(1), std::log(11.0));
  // An unseen value has zero weight.
  EXPECT_DOUBLE_EQ(selector.Weight(77), 0.0);
}

TEST(TermWeightSelectorTest, SelectsByWeightThenDfThenId) {
  LocalStore store;
  TermWeightSelector selector(store);
  for (ValueId v = 1; v <= 3; ++v) selector.OnValueDiscovered(v);
  uint32_t slot = 0;
  ValueId filler = 100;
  AddHub(store, selector, 1, 2, slot, filler);
  AddHub(store, selector, 2, 4, slot, filler);
  AddHub(store, selector, 3, 2, slot, filler);
  // N = 8: w(4) = 4 ln(9/4) > w(2) = 2 ln(9/2); values 1 and 3 tie on
  // weight and df, so the smaller id breaks the tie.
  EXPECT_EQ(selector.SelectNext(), 2u);
  EXPECT_EQ(selector.SelectNext(), 1u);
  EXPECT_EQ(selector.SelectNext(), 3u);
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
}

TEST(TermWeightSelectorTest, TakenValuesAreNeverReturned) {
  LocalStore store;
  TermWeightSelector selector(store);
  for (ValueId v = 1; v <= 4; ++v) selector.OnValueDiscovered(v);
  selector.OnValueTaken(2);
  std::set<ValueId> picked;
  for (;;) {
    ValueId v = selector.SelectNext();
    if (v == kInvalidValueId) break;
    picked.insert(v);
  }
  EXPECT_EQ(picked, (std::set<ValueId>{1, 3, 4}));
}

TEST(TermWeightSelectorTest, StaleBatchEntriesAreSkippedAfterTaken) {
  LocalStore store;
  TermWeightOptions options;
  options.batch_size = 3;
  TermWeightSelector selector(store, options);
  for (ValueId v = 1; v <= 3; ++v) selector.OnValueDiscovered(v);
  // First pick materializes the batch; then value 2 is taken by another
  // policy while still queued.
  ValueId first = selector.SelectNext();
  EXPECT_EQ(first, 1u);  // equal weights, id tie-break
  selector.OnValueTaken(2);
  EXPECT_EQ(selector.SelectNext(), 3u);
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
}

TEST(TermWeightSelectorTest, CheckpointRoundTripContinuesIdentically) {
  EngineCrawl reference(TermWeight());
  CrawlResult full = reference.Crawl(0);
  ASSERT_GT(full.rounds, 20u);

  EngineCrawl first(TermWeight());
  first.Crawl(full.rounds / 2);
  EngineCrawl restored(TermWeight());
  Status loaded = restored.Restore(first.Image());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(restored.store.num_records(), first.store.num_records());
  CrawlResult cont = restored.Continue(0);
  EXPECT_EQ(cont.rounds, full.rounds);
  EXPECT_EQ(cont.trace.points(), full.trace.points());
  ASSERT_EQ(restored.store.num_records(), reference.store.num_records());
  for (uint32_t slot = 0; slot < reference.store.num_records(); ++slot) {
    ASSERT_EQ(restored.store.OriginalRecordId(slot),
              reference.store.OriginalRecordId(slot));
  }
}

// The batch size shapes the pick order, so a log recorded under one
// cannot replay under another: the replay diverges with a clean error.
TEST(TermWeightSelectorTest, CheckpointRejectsBatchSizeMismatch) {
  EngineCrawl first(TermWeight());
  first.Crawl(0);
  TermWeightOptions narrow;
  narrow.batch_size = 2;
  EngineCrawl restored(TermWeight(narrow));
  Status loaded = restored.Restore(first.Image());
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.message().find("replay diverged"), std::string::npos)
      << loaded.ToString();
}

// --- adaptive meta-selector -------------------------------------------

struct Chain {
  LocalStore store;
  AdaptiveSelector* selector = nullptr;
  std::unique_ptr<AdaptiveSelector> owned;

  explicit Chain(AdaptiveOptions options = AdaptiveOptions{}) {
    std::vector<std::unique_ptr<QuerySelector>> children;
    children.push_back(std::make_unique<GreedyLinkSelector>(store));
    children.push_back(std::make_unique<TermWeightSelector>(store));
    owned = std::make_unique<AdaptiveSelector>(std::move(children), options);
    selector = owned.get();
  }
};

QueryOutcome Harvested(ValueId v, uint32_t new_records) {
  QueryOutcome outcome;
  outcome.value = v;
  outcome.pages_fetched = 1;
  outcome.records_returned = new_records;
  outcome.new_records = new_records;
  return outcome;
}

AdaptiveOptions FastSwitch() {
  AdaptiveOptions options;
  options.ewma_alpha = 1.0;  // estimator == last sample, easy to reason
  options.switch_decay = 0.5;
  options.hr_floor = 0.0;
  options.min_phase_queries = 2;
  return options;
}

TEST(AdaptiveSelectorTest, NameComposesChain) {
  Chain chain;
  EXPECT_EQ(chain.selector->name(), "adaptive(greedy-link,term-weight)");
  EXPECT_EQ(chain.selector->num_phases(), 2u);
  EXPECT_EQ(chain.selector->active_phase(), 0u);
}

TEST(AdaptiveSelectorTest, SwitchesWhenHarvestRateDecays) {
  Chain chain(FastSwitch());
  for (ValueId v = 1; v <= 8; ++v) chain.selector->OnValueDiscovered(v);
  // Two rich queries set the peak, then a crash in the harvest rate
  // (1 < 0.5 * 10) advances the phase.
  chain.selector->OnQueryCompleted(Harvested(1, 10));
  chain.selector->OnQueryCompleted(Harvested(2, 10));
  EXPECT_EQ(chain.selector->active_phase(), 0u);
  chain.selector->OnQueryCompleted(Harvested(3, 1));
  EXPECT_EQ(chain.selector->active_phase(), 1u);
  EXPECT_EQ(chain.selector->phase_switches(), 1u);
  // The last phase never advances past the end, however poor the rate.
  chain.selector->OnQueryCompleted(Harvested(4, 0));
  chain.selector->OnQueryCompleted(Harvested(5, 0));
  EXPECT_EQ(chain.selector->active_phase(), 1u);
}

TEST(AdaptiveSelectorTest, MinPhaseQueriesSuppressesEarlySwitch) {
  AdaptiveOptions options = FastSwitch();
  options.min_phase_queries = 10;
  Chain chain(options);
  chain.selector->OnQueryCompleted(Harvested(1, 10));
  chain.selector->OnQueryCompleted(Harvested(2, 0));
  chain.selector->OnQueryCompleted(Harvested(3, 0));
  EXPECT_EQ(chain.selector->active_phase(), 0u);
}

TEST(AdaptiveSelectorTest, TakenValuesNeverRepeatAcrossTheSwitch) {
  Chain chain(FastSwitch());
  for (ValueId v = 1; v <= 5; ++v) chain.selector->OnValueDiscovered(v);
  std::set<ValueId> picked;
  // Pick twice under greedy, then force the switch and drain the rest
  // under term-weight: the five values come out exactly once each.
  for (int i = 0; i < 2; ++i) {
    ValueId v = chain.selector->SelectNext();
    ASSERT_NE(v, kInvalidValueId);
    EXPECT_TRUE(picked.insert(v).second);
    chain.selector->OnQueryCompleted(Harvested(v, 10));
  }
  chain.selector->OnQueryCompleted(Harvested(99, 1));
  ASSERT_EQ(chain.selector->active_phase(), 1u);
  for (;;) {
    ValueId v = chain.selector->SelectNext();
    if (v == kInvalidValueId) break;
    EXPECT_TRUE(picked.insert(v).second) << "value " << v << " repeated";
  }
  EXPECT_EQ(picked, (std::set<ValueId>{1, 2, 3, 4, 5}));
}

TEST(AdaptiveSelectorTest, ExhaustedPhaseFallsThroughTheChain) {
  Chain chain;
  chain.selector->OnValueDiscovered(1);
  EXPECT_EQ(chain.selector->SelectNext(), 1u);
  // Both children drained: the chain reports exhaustion, not a stall.
  EXPECT_EQ(chain.selector->SelectNext(), kInvalidValueId);
}

MakeSelectorFn GreedyThenTermWeight(AdaptiveOptions options,
                                    bool reversed = false) {
  return [options, reversed](const LocalStore& store) {
    std::vector<std::unique_ptr<QuerySelector>> children;
    children.push_back(std::make_unique<GreedyLinkSelector>(store));
    children.push_back(std::make_unique<TermWeightSelector>(store));
    if (reversed) std::swap(children[0], children[1]);
    return std::make_unique<AdaptiveSelector>(std::move(children), options);
  };
}

TEST(AdaptiveSelectorTest, CheckpointRoundTripAcrossTheSwitchBoundary) {
  EngineCrawl reference(GreedyThenTermWeight(FastSwitch()));
  CrawlResult full = reference.Crawl(0);

  // Checkpoint a few rounds past the switch: phase 1 mid-flight.
  uint64_t rounds = 1;
  for (;; ++rounds) {
    EngineCrawl probe(GreedyThenTermWeight(FastSwitch()));
    probe.Crawl(rounds);
    auto& chain = static_cast<AdaptiveSelector&>(*probe.selector);
    if (chain.active_phase() == 1) break;
    ASSERT_LT(rounds, full.rounds) << "the crawl never switched";
  }
  EngineCrawl first(GreedyThenTermWeight(FastSwitch()));
  first.Crawl(rounds + 3);
  EngineCrawl restored(GreedyThenTermWeight(FastSwitch()));
  Status loaded = restored.Restore(first.Image());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  auto& before = static_cast<AdaptiveSelector&>(*first.selector);
  auto& after = static_cast<AdaptiveSelector&>(*restored.selector);
  EXPECT_EQ(after.active_phase(), 1u);
  EXPECT_EQ(after.phase_switches(), before.phase_switches());
  EXPECT_DOUBLE_EQ(after.estimator().hr, before.estimator().hr);
  CrawlResult cont = restored.Continue(0);
  EXPECT_EQ(cont.rounds, full.rounds);
  EXPECT_EQ(cont.trace.points(), full.trace.points());
}

TEST(AdaptiveSelectorTest, CheckpointRejectsChainAndOptionMismatches) {
  EngineCrawl first(GreedyThenTermWeight(FastSwitch()));
  first.Crawl(0);
  const std::string image = first.Image();

  // Different switch options: the switch moves, the picks after it
  // differ, and the replay diverges.
  {
    EngineCrawl other(GreedyThenTermWeight(AdaptiveOptions{}));
    Status loaded = other.Restore(image);
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.message().find("replay diverged"), std::string::npos)
        << loaded.ToString();
  }
  // Different chain composition: the selector names differ.
  {
    EngineCrawl reversed(GreedyThenTermWeight(FastSwitch(), true));
    Status loaded = reversed.Restore(image);
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.message().find("selector mismatch"), std::string::npos)
        << loaded.ToString();
  }
}

}  // namespace
}  // namespace deepcrawl
