// Corruption and contract tests for the crawl checkpoint layer
// (src/crawler/checkpoint.h): a checkpoint file round-trips exactly,
// and EVERY mangled input — any flipped byte, any truncation, a wrong
// version, a mismatched stack — is rejected with a clean Status, never
// a crash, CHECK-abort, or silent partial load. This suite runs inside
// deepcrawl_concurrency_tests so the sweep also executes under ASan and
// TSan via tools/check.sh.
//
// Bit-identity of checkpoint + resume (across selectors, fault
// profiles, and executors) is proven by the sweep in
// tests/crawler_parallel_differential_test.cc; this file owns the
// adversarial-input side.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/oracle_selector.h"
#include "src/crawler/retry_policy.h"
#include "src/datagen/movie_domain.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/checkpoint_io.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

constexpr uint64_t kFaultSeed = 17;

// A small target keeps checkpoint images to a few KB, so the
// every-byte-flip sweep below stays fast.
const Table& CheckpointTarget() {
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

ValueId FirstQueriableSeed(const Table& table) {
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    if (table.value_frequency(v) > 0) return v;
  }
  ADD_FAILURE() << "table has no queriable value";
  return kInvalidValueId;
}

// One shared backend for the whole suite: WebDbServer construction
// builds the full inverted index, far too slow to repeat per byte flip
// in the corruption sweeps. The server is stateless apart from its
// meters (which nothing here compares), so sharing never perturbs a
// crawl's output; every stack below still gets its own fault proxy,
// store, selector, and engine.
WebDbServer& SharedBackend() {
  static WebDbServer* server =
      new WebDbServer(CheckpointTarget(), ServerOptions());
  return *server;
}

// One complete crawl stack whose pieces live long enough to restore a
// checkpoint into and run to completion.
struct Stack {
  explicit Stack(const std::string& policy, bool with_faults = false,
                 uint32_t batch = 1)
      : backend(SharedBackend()) {
    QueryInterface* server_ptr = &backend;
    if (with_faults) {
      FaultProfile profile;
      profile.unavailable_rate = 0.05;
      profile.timeout_rate = 0.03;
      faulty.emplace(backend, profile, kFaultSeed);
      faulty->set_keyed_faults(true);
      server_ptr = &*faulty;
    }
    if (policy == "greedy") {
      selector = std::make_unique<GreedyLinkSelector>(store);
    } else if (policy == "bfs") {
      selector = std::make_unique<BfsSelector>();
    } else if (policy == "mmmi") {
      selector = std::make_unique<MmmiSelector>(store);
    } else if (policy == "oracle") {
      selector = std::make_unique<OracleSelector>(store, backend.index(),
                                                  ServerOptions().page_size,
                                                  ServerOptions().result_limit);
    } else {
      ADD_FAILURE() << "unknown policy " << policy;
    }
    retry.emplace(RetryPolicyConfig());
    EngineOptions engine_options;
    engine_options.batch = batch;
    engine.emplace(*server_ptr, *selector, store, CrawlOptions{},
                   engine_options, nullptr,
                   with_faults ? &*retry : nullptr);
  }

  FaultyServer* faulty_ptr() { return faulty ? &*faulty : nullptr; }

  WebDbServer& backend;
  std::optional<FaultyServer> faulty;
  LocalStore store;
  std::unique_ptr<QuerySelector> selector;
  std::optional<RetryPolicy> retry;
  std::optional<CrawlEngine> engine;
};

// Crawls `rounds` rounds and returns a checkpoint image of the
// mid-crawl state (non-trivial store, frontier, heap, clock, trace).
std::string MidCrawlImage(const std::string& policy, bool with_faults) {
  Stack stack(policy, with_faults);
  stack.engine->AddSeed(FirstQueriableSeed(CheckpointTarget()));
  stack.engine->set_max_rounds(40);
  StatusOr<CrawlResult> partial = stack.engine->Run();
  DEEPCRAWL_CHECK(partial.ok()) << partial.status().ToString();
  StatusOr<std::string> image =
      EncodeCrawlCheckpoint(*stack.engine, stack.faulty_ptr());
  DEEPCRAWL_CHECK(image.ok()) << image.status().ToString();
  return *image;
}

// Decodes `image` into a fresh stack; returns the decode status. Never
// crashes regardless of input (the property under test).
Status TryDecode(const std::string& image, const std::string& policy,
                 bool with_faults) {
  Stack stack(policy, with_faults);
  return DecodeCrawlCheckpoint(image, *stack.engine, stack.faulty_ptr());
}

TEST(CrawlCheckpointTest, RoundTripContinuesToSameResult) {
  // Reference: one uninterrupted crawl to frontier exhaustion.
  Stack reference("greedy", /*with_faults=*/true);
  reference.engine->AddSeed(FirstQueriableSeed(CheckpointTarget()));
  StatusOr<CrawlResult> full = reference.engine->Run();
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // Interrupted: crawl 40 rounds, checkpoint, restore, continue.
  std::string image = MidCrawlImage("greedy", /*with_faults=*/true);
  Stack resumed("greedy", /*with_faults=*/true);
  ASSERT_TRUE(DecodeCrawlCheckpoint(image, *resumed.engine,
                                    resumed.faulty_ptr())
                  .ok());
  resumed.engine->set_max_rounds(0);
  StatusOr<CrawlResult> cont = resumed.engine->Run();
  ASSERT_TRUE(cont.ok()) << cont.status().ToString();

  EXPECT_EQ(full->stop_reason, cont->stop_reason);
  EXPECT_EQ(full->rounds, cont->rounds);
  EXPECT_EQ(full->queries, cont->queries);
  EXPECT_EQ(full->records, cont->records);
  EXPECT_EQ(full->trace.points(), cont->trace.points());
  EXPECT_EQ(full->resilience, cont->resilience);
  ASSERT_EQ(reference.store.num_records(), resumed.store.num_records());
  for (uint32_t slot = 0; slot < reference.store.num_records(); ++slot) {
    ASSERT_EQ(reference.store.OriginalRecordId(slot),
              resumed.store.OriginalRecordId(slot));
  }
}

TEST(CrawlCheckpointTest, SaveLoadFileRoundTrip) {
  std::string image = MidCrawlImage("greedy", /*with_faults=*/false);
  testing_util::ScopedTempDir dir;
  std::string path = dir.File("deepcrawl_ckpt_roundtrip.bin");

  Stack source("greedy");
  source.engine->AddSeed(FirstQueriableSeed(CheckpointTarget()));
  source.engine->set_max_rounds(40);
  ASSERT_TRUE(source.engine->Run().ok());
  ASSERT_TRUE(
      SaveCrawlCheckpoint(*source.engine, nullptr, path).ok());

  Stack resumed("greedy");
  EXPECT_TRUE(
      LoadCrawlCheckpoint(path, *resumed.engine, nullptr).ok());
  EXPECT_EQ(resumed.engine->rounds_used(), source.engine->rounds_used());
  EXPECT_EQ(resumed.store.num_records(), source.store.num_records());
}

TEST(CrawlCheckpointTest, MissingFileIsCleanError) {
  Stack stack("greedy");
  testing_util::ScopedTempDir dir;
  Status status = LoadCrawlCheckpoint(
      dir.File("deepcrawl_ckpt_does_not_exist.bin"), *stack.engine, nullptr);
  EXPECT_FALSE(status.ok());
}

// Every single-byte flip anywhere in the image — header, payload, or
// checksum — must be rejected: header flips break the magic/version/
// size checks, payload flips break the checksum, checksum flips break
// the comparison. None may crash or load.
TEST(CrawlCheckpointTest, EveryByteFlipIsRejected) {
  std::string image = MidCrawlImage("greedy", /*with_faults=*/true);
  ASSERT_GT(image.size(), 24u);
  for (size_t i = 0; i < image.size(); ++i) {
    std::string mangled = image;
    mangled[i] = static_cast<char>(mangled[i] ^ 0xFF);
    Status status = TryDecode(mangled, "greedy", /*with_faults=*/true);
    ASSERT_FALSE(status.ok()) << "flip at byte " << i << " was accepted";
  }
}

// Every truncation must be rejected (the frame records the payload
// size), as must appended trailing garbage.
TEST(CrawlCheckpointTest, TruncationsAndTrailersAreRejected) {
  std::string image = MidCrawlImage("greedy", /*with_faults=*/false);
  for (size_t len = 0; len < image.size(); ++len) {
    Status status =
        TryDecode(image.substr(0, len), "greedy", /*with_faults=*/false);
    ASSERT_FALSE(status.ok()) << "truncation to " << len << " was accepted";
  }
  Status extended =
      TryDecode(image + "junk", "greedy", /*with_faults=*/false);
  EXPECT_FALSE(extended.ok());
}

// An attacker (or disk corruption) that also fixes up the checksum can
// still only produce a clean error or a valid load — never a crash,
// oversized allocation, or CHECK-abort. Reframes every single-byte flip
// of the payload with a correct checksum and decodes it; ASan/TSan keep
// this honest.
TEST(CrawlCheckpointTest, ForgedChecksumPayloadFlipsNeverCrash) {
  std::string image = MidCrawlImage("mmmi", /*with_faults=*/true);
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kCrawlCheckpointVersion);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  // Each probe reframes (checksums) the whole payload, so a full
  // every-byte sweep is quadratic; cap the probe count instead. The
  // stride is coprime-ish with the section layout, so probes land in
  // every section.
  size_t step = payload->size() / 4096 + 1;
  size_t probed = 0;
  size_t rejected = 0;
  for (size_t i = 0; i < payload->size(); i += step) {
    std::string mutated(*payload);
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    std::string reframed =
        FrameCheckpoint(mutated, kCrawlCheckpointVersion);
    ++probed;
    if (!TryDecode(reframed, "mmmi", /*with_faults=*/true).ok()) ++rejected;
  }
  // Most flips hit a marker, count, or range check. (A few may land in
  // redundant counters and decode "successfully"; that is acceptable —
  // the contract is no crash, not perfect forgery detection.)
  EXPECT_GT(rejected, probed / 2);

  // Truncated-but-reframed payloads always lose the END marker.
  for (size_t len = 0; len < payload->size(); len += step * 7) {
    std::string reframed = FrameCheckpoint(payload->substr(0, len),
                                           kCrawlCheckpointVersion);
    ASSERT_FALSE(TryDecode(reframed, "mmmi", /*with_faults=*/true).ok())
        << "reframed truncation to " << len << " was accepted";
  }
}

TEST(CrawlCheckpointTest, VersionMismatchNamesBothVersions) {
  std::string image = MidCrawlImage("greedy", /*with_faults=*/false);
  // A newer version: patch the u32 version field at offset 4
  // (little-endian).
  std::string newer = image;
  uint32_t bogus = kCrawlCheckpointVersion + 1;
  for (int b = 0; b < 4; ++b) {
    newer[4 + b] = static_cast<char>((bogus >> (8 * b)) & 0xFF);
  }
  // A v5 image as the previous format wrote it: the same payload with
  // the exact-degrees byte (1 = exact) that v5's CONF section carried
  // after the keyword byte, framed as version 5.
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kCrawlCheckpointVersion);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  // CONF opens with marker u32, batch u32, keyword u8.
  constexpr size_t kExactDegreesByteOffset = 4 + 4 + 1;
  std::string v5_payload(*payload);
  v5_payload.insert(kExactDegreesByteOffset, 1, '\1');
  std::string v5 = FrameCheckpoint(v5_payload, 5);

  for (const std::string* stale : {&newer, &v5}) {
    Status status = TryDecode(*stale, "greedy", /*with_faults=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.ToString();
  }
}

// A real v6 image, as the v6 encoder wrote it: a greedy-link crawl of
// testing_util::MakeFigure1Table() from value 0, stopped after 2
// rounds. Its SELC section still carries the heap entries (stale ones
// included), the last-pushed-degree table and the push counter that v7
// dropped.
constexpr char kGreedyV6Image[] =
    "\x44\x43\x50\x4b\x06\x00\x00\x00\x8a\x01\x00\x00\x00\x00\x00\x00"
    "\x43\x4f\x4e\x46\x01\x00\x00\x00\x00\x0b\x00\x00\x00\x67\x72\x65"
    "\x65\x64\x79\x2d\x6c\x69\x6e\x6b\x02\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x45\x4e\x47\x49\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00"
    "\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x03\x00\x00\x00\x01\x01\x01\x02\x00\x00\x00"
    "\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
    "\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x53\x54\x4f\x52\x01\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00"
    "\x00\x01\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00"
    "\x00\x53\x45\x4c\x43\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00"
    "\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00"
    "\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00"
    "\x00\x02\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00"
    "\x00\x46\x41\x4c\x54\x00\x45\x4e\x44\x21\x11\x6d\xc0\x0f\x60\x64"
    "\x6b\xa9";

TEST(CrawlCheckpointTest, RealV6ImageIsRejectedByVersion) {
  const std::string v6(kGreedyV6Image, sizeof(kGreedyV6Image) - 1);
  // The frame itself is intact: magic, size and checksum hold under v6.
  ASSERT_TRUE(UnframeCheckpoint(v6, 6).ok());
  Table table = testing_util::MakeFigure1Table();
  WebDbServer server(table, ServerOptions());
  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlEngine engine(server, selector, store, CrawlOptions{});
  Status status = DecodeCrawlCheckpoint(v6, engine, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("file has version 6"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(
                "reads version " + std::to_string(kCrawlCheckpointVersion)),
            std::string::npos)
      << status.ToString();
  // Rejected before any section was decoded.
  EXPECT_EQ(store.num_records(), 0u);
  EXPECT_EQ(selector.frontier_size(), 0u);
  EXPECT_EQ(engine.rounds_used(), 0u);
}

// Offset of the retry-queue count in a checkpoint payload: ENGI's
// marker, four u64 counters, the saturation u8, the seen bitmap, the
// trace points and eight resilience u64s precede it.
size_t RetryQueueOffset(std::string_view payload) {
  size_t engine = payload.find("ENGI");
  DEEPCRAWL_CHECK(engine != std::string_view::npos);
  CheckpointReader reader(payload.substr(engine));
  reader.ReadU32();
  for (int i = 0; i < 4; ++i) reader.ReadU64();
  reader.ReadU8();
  reader.ReadString();
  for (uint64_t i = 2 * reader.ReadU64() + 8; i > 0; --i) reader.ReadU64();
  DEEPCRAWL_CHECK(reader.ok());
  return payload.size() - reader.remaining();
}

// A checksum-valid image whose retry queue or re-queue count table
// names a value id beyond every id the crawl has seen must be rejected:
// resuming it would pop that id into MMMI, whose issued bitmap would
// grow to ~4 GB.
TEST(CrawlCheckpointTest, RetryQueueIdsAreBoundsChecked) {
  std::string image = MidCrawlImage("mmmi", /*with_faults=*/false);
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kCrawlCheckpointVersion);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  size_t offset = RetryQueueOffset(*payload);
  // Fault-free, so both tables are empty: two u64 zero counts.
  ASSERT_EQ(payload->substr(offset, 16), std::string(16, '\0'));
  constexpr ValueId kForged = 0xFFFFFFF0u;
  CheckpointWriter in_queue;  // retry queue {kForged}, no counts
  in_queue.WriteU64(1);
  in_queue.WriteU32(kForged);
  in_queue.WriteU64(0);
  CheckpointWriter in_counts;  // empty retry queue, counts {kForged: 1}
  in_counts.WriteU64(0);
  in_counts.WriteU64(1);
  in_counts.WriteU32(kForged);
  in_counts.WriteU32(1);
  for (const CheckpointWriter* tables : {&in_queue, &in_counts}) {
    std::string forged(*payload);
    forged.replace(offset, 16, tables->buffer());
    Status status =
        TryDecode(FrameCheckpoint(forged, kCrawlCheckpointVersion), "mmmi",
                  /*with_faults=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("out of range"), std::string::npos)
        << status.ToString();
  }
}

TEST(CrawlCheckpointTest, SelectorPolicyMismatchIsCleanError) {
  std::string image = MidCrawlImage("greedy", /*with_faults=*/false);
  Status status = TryDecode(image, "bfs", /*with_faults=*/false);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("greedy"), std::string::npos)
      << status.ToString();
}

TEST(CrawlCheckpointTest, BatchMismatchIsCleanError) {
  std::string image = MidCrawlImage("greedy", /*with_faults=*/false);
  Stack stack("greedy", /*with_faults=*/false, /*batch=*/4);
  Status status = DecodeCrawlCheckpoint(image, *stack.engine, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("batch"), std::string::npos)
      << status.ToString();
}

TEST(CrawlCheckpointTest, FaultProxyPresenceMustMatch) {
  std::string with = MidCrawlImage("greedy", /*with_faults=*/true);
  std::string without = MidCrawlImage("greedy", /*with_faults=*/false);
  EXPECT_FALSE(TryDecode(with, "greedy", /*with_faults=*/false).ok());
  EXPECT_FALSE(TryDecode(without, "greedy", /*with_faults=*/true).ok());
}

TEST(CrawlCheckpointTest, RestoreRequiresFreshEngine) {
  std::string image = MidCrawlImage("greedy", /*with_faults=*/false);
  Stack stack("greedy");
  stack.engine->AddSeed(FirstQueriableSeed(CheckpointTarget()));
  stack.engine->set_max_rounds(5);
  ASSERT_TRUE(stack.engine->Run().ok());
  Status status = DecodeCrawlCheckpoint(image, *stack.engine, nullptr);
  ASSERT_FALSE(status.ok());
}

// Selectors outside the checkpointable set (oracle, domain) must reject
// encoding with a clean error, not a crash or a silent partial file.
TEST(CrawlCheckpointTest, OracleSelectorRejectsCheckpointing) {
  Stack stack("oracle");
  stack.engine->AddSeed(FirstQueriableSeed(CheckpointTarget()));
  stack.engine->set_max_rounds(10);
  ASSERT_TRUE(stack.engine->Run().ok());
  StatusOr<std::string> image =
      EncodeCrawlCheckpoint(*stack.engine, nullptr);
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.status().message().find("checkpoint"), std::string::npos);
}

}  // namespace
}  // namespace deepcrawl
