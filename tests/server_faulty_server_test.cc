// Tests of the fault-injecting proxy: zero-profile transparency,
// scripted fault schedules, seeded determinism, keyed mode (a fault
// stream independent of fetch arrival order), and the proxy-side
// meters that charge injected failures as communication rounds.

#include "src/server/faulty_server.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeFigure1Table;
using testing_util::MakeTable;

// A table with one hub value matching `n` records.
Table HubTable(int n) {
  std::vector<testing_util::Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({{"Brand", "toyota"}, {"Vin", "v" + std::to_string(i)}});
  }
  return MakeTable(rows);
}

void ExpectSamePage(const StatusOr<ResultPage>& got,
                    const StatusOr<ResultPage>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  EXPECT_EQ(got->page_number, want->page_number);
  EXPECT_EQ(got->total_matches, want->total_matches);
  EXPECT_EQ(got->has_more, want->has_more);
  ASSERT_EQ(got->records.size(), want->records.size());
  for (size_t i = 0; i < got->records.size(); ++i) {
    EXPECT_EQ(got->records[i].id, want->records[i].id);
    ASSERT_EQ(got->records[i].values.size(), want->records[i].values.size());
    for (size_t j = 0; j < got->records[i].values.size(); ++j) {
      EXPECT_EQ(got->records[i].values[j], want->records[i].values[j]);
    }
  }
}

// Acceptance property: an all-zero profile makes the proxy behaviorally
// identical to the bare server on every interface method — same pages,
// same errors, same meters.
TEST(FaultyServerTest, AllZeroProfileIsTransparent) {
  Table table = MakeFigure1Table();
  ServerOptions options;
  options.page_size = 2;
  WebDbServer bare(table, options);
  WebDbServer backend(table, options);
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/99);

  uint32_t n = static_cast<uint32_t>(table.num_distinct_values());
  for (ValueId v = 0; v < n; ++v) {
    for (uint32_t page = 0; page < 4; ++page) {
      ExpectSamePage(proxy.FetchPage(v, page), bare.FetchPage(v, page));
      ExpectSamePage(proxy.FetchPageKeywordOf(v, page),
                     bare.FetchPageKeywordOf(v, page));
    }
  }

  EXPECT_EQ(proxy.communication_rounds(), bare.communication_rounds());
  EXPECT_EQ(proxy.queries_issued(), bare.queries_issued());
  EXPECT_EQ(proxy.fault_counters().total(), 0u);
}

TEST(FaultyServerTest, ScheduledUnavailableFailsWithoutForwarding) {
  Table table = HubTable(5);
  WebDbServer backend(table, ServerOptions());
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/1);
  proxy.set_schedule({FaultAction::kUnavailable});
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  StatusOr<ResultPage> page = proxy.FetchPage(toyota, 0);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kUnavailable);
  // The backend never saw the fetch; the proxy charged the round.
  EXPECT_EQ(backend.communication_rounds(), 0u);
  EXPECT_EQ(proxy.communication_rounds(), 1u);
  EXPECT_EQ(proxy.queries_issued(), 1u);
  EXPECT_EQ(proxy.fault_counters().unavailable, 1u);

  // Schedule exhausted: the next fetch goes through untouched.
  page = proxy.FetchPage(toyota, 0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->records.size(), 5u);
}

TEST(FaultyServerTest, ScheduledTimeoutFailsWithDeadlineExceeded) {
  Table table = HubTable(3);
  WebDbServer backend(table, ServerOptions());
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/1);
  proxy.set_schedule({FaultAction::kTimeout});

  StatusOr<ResultPage> page =
      proxy.FetchPage(GetValueId(table, "Brand", "toyota"), 0);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(proxy.fault_counters().timeouts, 1u);
}

TEST(FaultyServerTest, ScheduledRateLimitCarriesRetryAfterHint) {
  Table table = HubTable(3);
  FaultProfile profile;
  profile.retry_after_rounds = 7;
  WebDbServer backend(table, ServerOptions());
  FaultyServer proxy(backend, profile, /*seed=*/1);
  proxy.set_schedule({FaultAction::kRateLimit});

  StatusOr<ResultPage> page =
      proxy.FetchPage(GetValueId(table, "Brand", "toyota"), 0);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(page.status().retry_after_rounds().has_value());
  EXPECT_EQ(*page.status().retry_after_rounds(), 7u);
  EXPECT_EQ(proxy.fault_counters().rate_limited, 1u);
}

TEST(FaultyServerTest, ScheduledTruncateDropsTrailingRecords) {
  Table table = HubTable(10);
  ServerOptions options;
  options.page_size = 10;
  WebDbServer backend(table, options);
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/1);
  proxy.set_schedule({FaultAction::kTruncate});
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  StatusOr<ResultPage> truncated = proxy.FetchPage(toyota, 0);
  ASSERT_TRUE(truncated.ok());
  // Half the page (here 10/2 = 5 records) silently vanished; pagination
  // metadata is untouched, so the loss is invisible to the crawler.
  EXPECT_EQ(truncated->records.size(), 5u);
  EXPECT_FALSE(truncated->has_more);
  EXPECT_EQ(proxy.fault_counters().truncated_pages, 1u);

  // The kept prefix matches the honest page.
  StatusOr<ResultPage> honest = proxy.FetchPage(toyota, 0);
  ASSERT_TRUE(honest.ok());
  ASSERT_EQ(honest->records.size(), 10u);
  for (size_t i = 0; i < truncated->records.size(); ++i) {
    EXPECT_EQ(truncated->records[i].id, honest->records[i].id);
  }
}

TEST(FaultyServerTest, TruncateAlwaysDropsAtLeastOneRecord) {
  Table table = HubTable(1);
  WebDbServer backend(table, ServerOptions());
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/1);
  proxy.set_schedule({FaultAction::kTruncate});

  StatusOr<ResultPage> page =
      proxy.FetchPage(GetValueId(table, "Brand", "toyota"), 0);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->records.empty());
  EXPECT_EQ(proxy.fault_counters().truncated_pages, 1u);
}

TEST(FaultyServerTest, ScheduledDuplicateEchoesFirstRecordOverLast) {
  Table table = HubTable(4);
  WebDbServer backend(table, ServerOptions());
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/1);
  proxy.set_schedule({FaultAction::kNone, FaultAction::kDuplicate});
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  StatusOr<ResultPage> honest = proxy.FetchPage(toyota, 0);
  ASSERT_TRUE(honest.ok());
  StatusOr<ResultPage> echoed = proxy.FetchPage(toyota, 0);
  ASSERT_TRUE(echoed.ok());
  ASSERT_EQ(echoed->records.size(), honest->records.size());
  // Same page size, but the last slot repeats the first record — the
  // record it displaced is silently hidden.
  EXPECT_EQ(echoed->records.back().id, echoed->records.front().id);
  EXPECT_NE(echoed->records.back().id, honest->records.back().id);
  EXPECT_EQ(proxy.fault_counters().duplicated_records, 1u);
}

TEST(FaultyServerTest, SameSeedSameProfileYieldsIdenticalFaultSequence) {
  Table table = HubTable(30);
  ServerOptions options;
  options.page_size = 5;
  FaultProfile profile;
  profile.unavailable_rate = 0.2;
  profile.timeout_rate = 0.1;
  profile.rate_limit_rate = 0.1;
  profile.truncate_rate = 0.1;
  profile.duplicate_rate = 0.1;

  auto run = [&](uint64_t seed) {
    WebDbServer backend(table, options);
    FaultyServer proxy(backend, profile, seed);
    ValueId toyota = GetValueId(table, "Brand", "toyota");
    std::vector<int> observations;
    for (int i = 0; i < 50; ++i) {
      StatusOr<ResultPage> page = proxy.FetchPage(toyota, 0);
      observations.push_back(page.ok()
                                 ? static_cast<int>(page->records.size())
                                 : -static_cast<int>(page.status().code()));
    }
    return observations;
  };

  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultyServerTest, InjectedFailureOnPageZeroCountsAsQuery) {
  Table table = HubTable(25);
  ServerOptions options;
  options.page_size = 10;
  WebDbServer backend(table, options);
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/1);
  // Query rejected at submission, resubmitted, then a mid-drain failure.
  proxy.set_schedule({FaultAction::kUnavailable, FaultAction::kNone,
                      FaultAction::kTimeout, FaultAction::kNone,
                      FaultAction::kNone});
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  EXPECT_FALSE(proxy.FetchPage(toyota, 0).ok());  // rejected submission
  EXPECT_TRUE(proxy.FetchPage(toyota, 0).ok());
  EXPECT_FALSE(proxy.FetchPage(toyota, 1).ok());  // mid-drain timeout
  EXPECT_TRUE(proxy.FetchPage(toyota, 1).ok());
  EXPECT_TRUE(proxy.FetchPage(toyota, 2).ok());

  // 5 rounds total: 3 forwarded + 2 injected failures. Only the page-0
  // rejection counts as an extra query submission on top of the one
  // page-0 fetch the backend actually saw.
  EXPECT_EQ(backend.communication_rounds(), 3u);
  EXPECT_EQ(proxy.communication_rounds(), 5u);
  EXPECT_EQ(backend.queries_issued(), 1u);
  EXPECT_EQ(proxy.queries_issued(), 2u);
}

TEST(FaultyServerTest, ResetMetersClearsProxyAndBackend) {
  Table table = HubTable(5);
  WebDbServer backend(table, ServerOptions());
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/1);
  proxy.set_schedule({FaultAction::kUnavailable, FaultAction::kNone});
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  EXPECT_FALSE(proxy.FetchPage(toyota, 0).ok());
  EXPECT_TRUE(proxy.FetchPage(toyota, 0).ok());
  EXPECT_EQ(proxy.communication_rounds(), 2u);

  proxy.ResetMeters();
  EXPECT_EQ(proxy.communication_rounds(), 0u);
  EXPECT_EQ(proxy.queries_issued(), 0u);
  EXPECT_EQ(backend.communication_rounds(), 0u);
}

TEST(FaultyServerTest, TransientProfileHelperSetsOnlyUnavailableRate) {
  FaultProfile profile = FaultProfile::Transient(0.1);
  EXPECT_DOUBLE_EQ(profile.unavailable_rate, 0.1);
  EXPECT_DOUBLE_EQ(profile.timeout_rate, 0.0);
  EXPECT_DOUBLE_EQ(profile.duplicate_rate, 0.0);
  EXPECT_FALSE(profile.IsAllZero());
  EXPECT_TRUE(FaultProfile().IsAllZero());
}

// --- fleet support: derived per-source seeds and forced actions -------

TEST(FaultyServerTest, DeriveSourceSeedIsDeterministicAndDistinct) {
  EXPECT_EQ(FaultyServer::DeriveSourceSeed(42, 3),
            FaultyServer::DeriveSourceSeed(42, 3));
  std::set<uint64_t> seeds;
  for (uint32_t id = 0; id < 64; ++id) {
    seeds.insert(FaultyServer::DeriveSourceSeed(42, id));
  }
  EXPECT_EQ(seeds.size(), 64u);
  // Different fleet seeds shift every source's stream.
  EXPECT_NE(FaultyServer::DeriveSourceSeed(42, 0),
            FaultyServer::DeriveSourceSeed(43, 0));
}

// Each source's fault stream is a pure function of (fleet_seed, id):
// adding or removing sibling sources must not perturb it.
TEST(FaultyServerTest, KeyedFaultStreamIsIndependentOfSiblings) {
  Table table = HubTable(30);
  FaultProfile profile = FaultProfile::Transient(0.3);

  auto run = [&](uint64_t source_seed) {
    WebDbServer backend(table, ServerOptions());
    FaultyServer proxy(backend, profile, source_seed);
    proxy.set_keyed_faults(true);
    ValueId toyota = GetValueId(table, "Brand", "toyota");
    std::vector<bool> outcomes;
    for (int i = 0; i < 60; ++i) {
      outcomes.push_back(proxy.FetchPage(toyota, 0).ok());
    }
    return outcomes;
  };

  uint64_t source2 = FaultyServer::DeriveSourceSeed(7, 2);
  EXPECT_EQ(run(source2), run(source2));
  EXPECT_NE(run(source2), run(FaultyServer::DeriveSourceSeed(7, 1)));
}

TEST(FaultyServerTest, ForcedActionOverridesEveryFetch) {
  Table table = HubTable(5);
  WebDbServer backend(table, ServerOptions());
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/1);
  proxy.set_forced_action(FaultAction::kUnavailable);
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  for (int i = 0; i < 5; ++i) {
    StatusOr<ResultPage> page = proxy.FetchPage(toyota, 0);
    ASSERT_FALSE(page.ok());
    EXPECT_EQ(page.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(backend.communication_rounds(), 0u);

  // Forcing kNone pins the proxy fault-free even under a hostile profile.
  WebDbServer backend2(table, ServerOptions());
  FaultyServer always(backend2, FaultProfile::Transient(1.0), /*seed=*/1);
  always.set_forced_action(FaultAction::kNone);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(always.FetchPage(toyota, 0).ok());
  }
}

// Clearing the forced action resumes the keyed stream exactly where it
// left off: the override consumes no randomness and advances no keyed
// attempt counter, so the forced window is invisible to the stream.
TEST(FaultyServerTest, ClearingForcedActionLeavesKeyedStreamUnperturbed) {
  Table table = HubTable(30);
  FaultProfile profile = FaultProfile::Transient(0.4);
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  WebDbServer backend_a(table, ServerOptions());
  FaultyServer forced(backend_a, profile, /*seed=*/5);
  forced.set_keyed_faults(true);
  // Witness issues only the unforced fetches.
  WebDbServer backend_b(table, ServerOptions());
  FaultyServer witness(backend_b, profile, /*seed=*/5);
  witness.set_keyed_faults(true);

  std::vector<bool> got, want;
  for (int i = 0; i < 80; ++i) {
    bool in_forced_window = i >= 20 && i < 40;
    forced.set_forced_action(
        in_forced_window ? std::optional<FaultAction>(FaultAction::kTimeout)
                         : std::nullopt);
    bool ok = forced.FetchPage(toyota, 0).ok();
    if (in_forced_window) {
      EXPECT_FALSE(ok) << "fetch " << i << " should be forced timeout";
    } else {
      got.push_back(ok);
      want.push_back(witness.FetchPage(toyota, 0).ok());
    }
  }
  EXPECT_EQ(got, want);
}

TEST(FaultyServerTest, FaultRatesApproximateProfileOverManyRounds) {
  Table table = HubTable(5);
  WebDbServer backend(table, ServerOptions());
  FaultyServer proxy(backend, FaultProfile::Transient(0.25), /*seed=*/7);
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  const int kRounds = 4000;
  for (int i = 0; i < kRounds; ++i) (void)proxy.FetchPage(toyota, 0);
  double observed = static_cast<double>(proxy.fault_counters().unavailable) /
                    static_cast<double>(kRounds);
  EXPECT_NEAR(observed, 0.25, 0.03);
}

// --- keyed fault mode -------------------------------------------------

using FetchKey = std::tuple<ValueId, uint32_t, uint32_t>;  // value, page, try

// Issues the given logical fetches against a fresh keyed FaultyServer
// and returns the status code each one observed.
std::map<FetchKey, StatusCode> OutcomesInOrder(
    const Table& table, const std::vector<FetchKey>& fetches) {
  WebDbServer backend(table, ServerOptions());
  FaultProfile profile;
  profile.unavailable_rate = 0.25;
  profile.timeout_rate = 0.15;
  profile.rate_limit_rate = 0.10;
  FaultyServer faulty(backend, profile, /*seed=*/99);
  faulty.set_keyed_faults(true);
  std::map<FetchKey, StatusCode> outcomes;
  for (const FetchKey& key : fetches) {
    StatusOr<ResultPage> page =
        faulty.FetchPage(std::get<0>(key), std::get<1>(key));
    outcomes[key] = page.status().code();
  }
  return outcomes;
}

TEST(FaultyServerTest, KeyedFaultsAreArrivalOrderIndependent) {
  Table table = MakeFigure1Table();
  std::vector<FetchKey> fetches;
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    // Two attempts per (value, page 0): retries draw fresh decisions,
    // but keyed ones — attempt N of a fetch sees the same fault no
    // matter what other queries ran in between.
    fetches.emplace_back(v, 0, 1);
    fetches.emplace_back(v, 0, 2);
  }

  // The same fetches issued in two orders: forward, then with the
  // (value, page) blocks reversed. Blocks move whole so attempt 1 of a
  // fetch still precedes attempt 2 (a retry can never precede the
  // failure).
  std::map<FetchKey, StatusCode> forward = OutcomesInOrder(table, fetches);
  std::vector<FetchKey> reversed;
  for (size_t i = fetches.size(); i >= 2; i -= 2) {
    reversed.push_back(fetches[i - 2]);
    reversed.push_back(fetches[i - 1]);
  }
  std::map<FetchKey, StatusCode> backward = OutcomesInOrder(table, reversed);

  EXPECT_EQ(forward, backward);

  // Sanity: the profile actually fired on some fetches and spared
  // others, so the equality above is not vacuous.
  size_t failures = 0;
  for (const auto& [key, code] : forward) {
    if (code != StatusCode::kOk && code != StatusCode::kOutOfRange) ++failures;
  }
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, forward.size());
}

TEST(FaultyServerTest, KeyedModeDistinguishesInterfaceKinds) {
  // The same value queried through the typed field and the keyword box
  // is a different logical fetch and may meet different faults; both
  // decisions must still be reproducible.
  Table table = MakeFigure1Table();
  auto run = [&table] {
    WebDbServer backend(table, ServerOptions());
    FaultyServer faulty(backend, FaultProfile::Transient(0.5), /*seed=*/3);
    faulty.set_keyed_faults(true);
    std::vector<StatusCode> codes;
    for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
      codes.push_back(faulty.FetchPage(v, 0).status().code());
      codes.push_back(faulty.FetchPageKeywordOf(v, 0).status().code());
    }
    return codes;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultyServerTest, ScheduleStillOverridesKeyedMode) {
  // Scripted schedules keep positional precedence even in keyed mode —
  // existing scripted tests must not change meaning.
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions());
  FaultyServer faulty(backend, FaultProfile(), /*seed=*/1);
  faulty.set_keyed_faults(true);
  faulty.set_schedule({FaultAction::kUnavailable, FaultAction::kNone});
  ValueId a2 = GetValueId(table, "A", "a2");
  EXPECT_EQ(faulty.FetchPage(a2, 0).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(faulty.FetchPage(a2, 0).ok());
}

}  // namespace
}  // namespace deepcrawl
