// Fleet stress: a batched fleet under scripted chaos bursts is a pure
// function of its inputs — repeated runs give byte-identical traces,
// the same records (none lost, none duplicated) and the same breaker
// transition accounting, and a checkpoint taken mid-chaos resumes into
// the uninterrupted run (DESIGN.md §11).

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/datagen/canned_workloads.h"
#include "src/fleet/chaos.h"
#include "src/fleet/crawl_fleet.h"
#include "src/relation/types.h"

namespace deepcrawl {
namespace {

constexpr uint32_t kSources = 4;

std::vector<FleetSourceSpec> StressSpecs() {
  FaultProfile background;
  background.unavailable_rate = 0.05;
  background.timeout_rate = 0.03;
  background.rate_limit_rate = 0.02;
  StatusOr<std::vector<FleetSourceSpec>> specs = MakeFleetSourceSpecs(
      kSources, /*scale=*/0.004, /*target_coverage=*/0.9, background);
  DEEPCRAWL_CHECK(specs.ok()) << specs.status().ToString();
  for (FleetSourceSpec& spec : *specs) spec.num_seeds = 4;
  return std::move(*specs);
}

FleetOptions StressOptions() {
  FleetOptions options;
  options.seed = 99;
  options.batch = 4;
  options.turn_rounds = 12;
  options.chaos = HostileChaosSchedule(kSources);
  options.retry.max_requeues = 16;
  return options;
}

struct RunOutput {
  std::string trace_csv;
  uint64_t records = 0;
  uint64_t rounds = 0;
  uint64_t turns = 0;
  uint64_t idle_ticks = 0;
  std::vector<BreakerTransitions> breakers;
  std::vector<SourceDegradation> reports;
  // Per source: every harvested record id, in store slot order.
  std::vector<std::vector<RecordId>> harvested;
};

RunOutput RunFleet() {
  CrawlFleet fleet(StressSpecs(), StressOptions());
  StatusOr<FleetResult> result = fleet.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();

  RunOutput out;
  std::ostringstream csv;
  DEEPCRAWL_CHECK(WriteFleetTraceCsv(*result, csv).ok());
  out.trace_csv = csv.str();
  out.records = result->merged.records;
  out.rounds = result->merged.rounds;
  out.turns = result->turns;
  out.idle_ticks = result->idle_ticks;
  for (uint32_t i = 0; i < fleet.num_sources(); ++i) {
    out.breakers.push_back(fleet.breaker(i).transitions());
    out.reports.push_back(result->sources[i].degradation);
    std::vector<RecordId> ids;
    const LocalStore& store = fleet.store(i);
    for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
      ids.push_back(store.OriginalRecordId(slot));
    }
    out.harvested.push_back(std::move(ids));
  }
  return out;
}

TEST(FleetStressTest, RepeatedRunsAreIdenticalUnderChaos) {
  RunOutput first = RunFleet();
  RunOutput second = RunFleet();

  EXPECT_EQ(second.trace_csv, first.trace_csv);
  EXPECT_EQ(second.records, first.records);
  EXPECT_EQ(second.rounds, first.rounds);
  EXPECT_EQ(second.turns, first.turns);
  EXPECT_EQ(second.idle_ticks, first.idle_ticks);
  ASSERT_EQ(second.breakers.size(), first.breakers.size());
  for (size_t i = 0; i < first.breakers.size(); ++i) {
    EXPECT_EQ(second.breakers[i], first.breakers[i]) << "source " << i;
    EXPECT_EQ(second.reports[i], first.reports[i]) << "source " << i;
    // Same records, in the same store order.
    EXPECT_EQ(second.harvested[i], first.harvested[i]) << "source " << i;
  }
}

TEST(FleetStressTest, NoRecordLostOrDuplicatedUnderChaosBursts) {
  RunOutput out = RunFleet();
  uint64_t total = 0;
  for (size_t i = 0; i < out.harvested.size(); ++i) {
    // A store slot list with repeats would mean a double-committed
    // record; the set collapses them and the sizes would diverge.
    std::set<RecordId> distinct(out.harvested[i].begin(),
                                out.harvested[i].end());
    EXPECT_EQ(distinct.size(), out.harvested[i].size()) << "source " << i;
    EXPECT_EQ(out.harvested[i].size(), out.reports[i].records_harvested)
        << "source " << i;
    total += out.harvested[i].size();
  }
  EXPECT_EQ(total, out.records);

  // Graceful degradation under the hostile schedule: the permanently
  // dead source is quarantined, every other source reaches its target.
  for (size_t i = 0; i < out.reports.size(); ++i) {
    if (i == 1) {
      EXPECT_TRUE(out.reports[i].quarantined);
      EXPECT_FALSE(out.reports[i].finished);
    } else {
      EXPECT_TRUE(out.reports[i].finished) << "source " << i;
      EXPECT_EQ(out.reports[i].records_missing, 0u) << "source " << i;
    }
  }
}

// A checkpoint image taken mid-chaos by a capped fleet restores into a
// fresh one, which runs on to the uninterrupted fleet's exact output.
TEST(FleetStressTest, CheckpointMidChaosResumesIdentically) {
  FleetOptions options = StressOptions();
  options.max_total_rounds = 96;
  CrawlFleet capped(StressSpecs(), options);
  StatusOr<FleetResult> partial = capped.Run();
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  StatusOr<std::string> image = EncodeFleetCheckpoint(capped);
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  // Reference: an uninterrupted run to completion.
  CrawlFleet reference(StressSpecs(), StressOptions());
  StatusOr<FleetResult> full = reference.Run();
  ASSERT_TRUE(full.ok());
  std::ostringstream want;
  ASSERT_TRUE(WriteFleetTraceCsv(*full, want).ok());

  CrawlFleet resumed(StressSpecs(), StressOptions());
  ASSERT_TRUE(DecodeFleetCheckpoint(*image, resumed).ok());
  StatusOr<FleetResult> cont = resumed.Run();
  ASSERT_TRUE(cont.ok()) << cont.status().ToString();
  std::ostringstream got;
  ASSERT_TRUE(WriteFleetTraceCsv(*cont, got).ok());
  EXPECT_EQ(got.str(), want.str());
}

}  // namespace
}  // namespace deepcrawl
