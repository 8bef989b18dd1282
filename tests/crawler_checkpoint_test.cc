// Corruption and contract tests for the crawl checkpoint layer
// (src/crawler/checkpoint.h): a checkpoint file round-trips exactly,
// and EVERY mangled input — any flipped byte, any truncation, a wrong
// version, a mismatched stack, a forged fetch log — is rejected with a
// clean Status, never a crash, CHECK-abort, or silent partial load. This suite runs inside
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
#include <string_view>
#include <utility>
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
#include "src/domain/domain_selector.h"
#include "src/domain/domain_table.h"
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

// The domain policy crawls its own copy of the target: building the
// domain table from a same-domain sample adds the sample's values to
// the target's catalog before the server indexes it.
struct DomainParts {
  explicit DomainParts(MovieDomainPair pair)
      : target(std::move(pair.target)),
        dt(DomainTable::Build(pair.dm1, target.schema(),
                              target.mutable_catalog())),
        server(target, ServerOptions()) {}

  Table target;
  DomainTable dt;
  WebDbServer server;
};

DomainParts& SharedDomainParts() {
  static DomainParts* parts = [] {
    MovieDomainPairConfig config;
    config.universe_size = 500;
    config.target_size = 120;
    config.seed = 11;
    StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
    DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
    return new DomainParts(std::move(pair).value());
  }();
  return *parts;
}

FaultProfile TransientFaults() {
  FaultProfile profile;
  profile.unavailable_rate = 0.05;
  profile.timeout_rate = 0.03;
  return profile;
}

// How a Stack differs from a plain serial crawl.
struct StackConfig {
  bool with_faults = false;
  uint32_t batch = 1;
  // The fault proxy's profile, used when `with_faults`.
  FaultProfile faults = TransientFaults();
  bool keyword = false;
  // Every N waves the engine's sink appends an image to
  // Stack::sink_images (0 = no sink).
  uint64_t checkpoint_every_waves = 0;
};

// One complete crawl stack whose pieces live long enough to restore a
// checkpoint into and run to completion.
struct Stack {
  explicit Stack(const std::string& policy, bool with_faults = false,
                 uint32_t batch = 1)
      : Stack(policy, StackConfig{.with_faults = with_faults, .batch = batch}) {}

  Stack(const std::string& policy, const StackConfig& config)
      : backend(policy == "domain" ? SharedDomainParts().server
                                   : SharedBackend()),
        seed(FirstQueriableSeed(policy == "domain"
                                    ? SharedDomainParts().target
                                    : CheckpointTarget())) {
    const bool with_faults = config.with_faults;
    QueryInterface* server_ptr = &backend;
    if (with_faults) {
      faulty.emplace(backend, config.faults, kFaultSeed);
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
    } else if (policy == "domain") {
      selector = std::make_unique<DomainSelector>(store, SharedDomainParts().dt,
                                                  ServerOptions().page_size);
    } else {
      ADD_FAILURE() << "unknown policy " << policy;
    }
    retry.emplace(RetryPolicyConfig());
    EngineOptions engine_options;
    engine_options.batch = config.batch;
    engine_options.checkpoint_every_waves = config.checkpoint_every_waves;
    if (config.checkpoint_every_waves > 0) {
      engine_options.checkpoint_sink = [this](const CrawlEngine& at) -> Status {
        StatusOr<std::string> image = EncodeCrawlCheckpoint(at, faulty_ptr());
        DEEPCRAWL_RETURN_IF_ERROR(image.status());
        sink_images.push_back(std::move(*image));
        return Status::OK();
      };
    }
    CrawlOptions options;
    options.use_keyword_interface = config.keyword;
    engine.emplace(*server_ptr, *selector, store, options, engine_options,
                   nullptr, with_faults ? &*retry : nullptr);
  }

  FaultyServer* faulty_ptr() { return faulty ? &*faulty : nullptr; }

  WebDbServer& backend;
  ValueId seed;
  std::vector<std::string> sink_images;
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

  // A v8 image of a crawl behind a fault proxy, in v8's FALT layout: a
  // keyed-mode byte (1 = keyed) after the profile and two fault-RNG words
  // (state, odd increment) after the schedule position, framed as
  // version 8.
  Stack faulted("greedy", /*with_faults=*/true);
  faulted.engine->AddSeed(FirstQueriableSeed(CheckpointTarget()));
  faulted.engine->set_max_rounds(40);
  ASSERT_TRUE(faulted.engine->Run().ok());
  StatusOr<std::string> with_proxy =
      EncodeCrawlCheckpoint(*faulted.engine, faulted.faulty_ptr());
  StatusOr<std::string> engine_only =
      EncodeCrawlCheckpoint(*faulted.engine, nullptr);
  ASSERT_TRUE(with_proxy.ok() && engine_only.ok());
  StatusOr<std::string_view> v9_payload =
      UnframeCheckpoint(*with_proxy, kCrawlCheckpointVersion);
  StatusOr<std::string_view> engine_payload =
      UnframeCheckpoint(*engine_only, kCrawlCheckpointVersion);
  ASSERT_TRUE(v9_payload.ok() && engine_payload.ok());
  // The engine's sections are the same in both payloads; the proxy-less
  // one ends in FALT marker u32, presence u8, END! marker u32.
  const size_t falt = engine_payload->size() - (4 + 1 + 4);
  // FALT: marker u32, presence u8, seed u64, five rate doubles,
  // retry-after u32; then schedule size u64 and position u64.
  const size_t keyed_at = falt + 4 + 1 + 8 + 5 * 8 + 4;
  std::string v8_payload(*v9_payload);
  v8_payload.insert(keyed_at + 8 + 8,
                    std::string("\x2a\x2a\x2a\x2a\x2a\x2a\x2a\x2a"
                                "\x01\x00\x00\x00\x00\x00\x00\x00",
                                16));
  v8_payload.insert(keyed_at, 1, '\1');
  Status status =
      TryDecode(FrameCheckpoint(v8_payload, 8), "greedy", /*with_faults=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();
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

// A real v7 image, as the v7 encoder wrote it: the same crawl as the v6
// image above. Its ENGI, STOR and SELC sections hold the engine, store
// and greedy frontier state that v8 replaced with the fetch log.
constexpr char kGreedyV7Image[] =
    "\x44\x43\x50\x4b\x07\x00\x00\x00\x2a\x01\x00\x00\x00\x00\x00\x00"
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
    "\x00\x53\x45\x4c\x43\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00"
    "\x00\x46\x41\x4c\x54\x00\x45\x4e\x44\x21\xba\xbe\x46\x27\xab\x1c"
    "\xd7\xaf";

TEST(CrawlCheckpointTest, RealV7ImageIsRejectedByVersion) {
  const std::string v7(kGreedyV7Image, sizeof(kGreedyV7Image) - 1);
  ASSERT_TRUE(UnframeCheckpoint(v7, 7).ok());
  Table table = testing_util::MakeFigure1Table();
  WebDbServer server(table, ServerOptions());
  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlEngine engine(server, selector, store, CrawlOptions{});
  Status status = DecodeCrawlCheckpoint(v7, engine, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("file has version 7"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(store.num_records(), 0u);
  EXPECT_EQ(engine.rounds_used(), 0u);
}

// --- golden images ------------------------------------------------------
//
// Crawls whose checkpoint images are pinned by FNV-1a digest, so a change
// to how the engine records or writes its fetch log that must keep the
// on-disk format is checked byte for byte here. Update a digest only for
// a deliberate format change, one that bumps kCrawlCheckpointVersion.

struct GoldenCrawl {
  const char* name;
  const char* policy;
  StackConfig config;
  // Round budget of the one Run() (0 = crawl the frontier out).
  uint64_t max_rounds = 0;
  // The image: the last one the sink saved, or one encoded after Run().
  bool from_sink = false;
  uint64_t digest = 0;
};

FaultProfile TruncateAndDuplicateFaults() {
  FaultProfile profile;
  profile.truncate_rate = 0.2;
  profile.duplicate_rate = 0.3;
  return profile;
}

const GoldenCrawl kGoldenCrawls[] = {
    {.name = "greedy-batch1",
     .policy = "greedy",
     .config = {.with_faults = true},
     .digest = 0x885aaf120cf1708aULL},
    // Truncated and duplicated pages: records repeat within a page.
    {.name = "greedy-batch4-truncate-duplicate",
     .policy = "greedy",
     .config = {.with_faults = true,
                .batch = 4,
                .faults = TruncateAndDuplicateFaults()},
     .digest = 0x0cbf6f701d421d51ULL},
    {.name = "greedy-keyword",
     .policy = "greedy",
     .config = {.keyword = true},
     .digest = 0x12c1820b707bead5ULL},
    {.name = "mmmi-40-rounds",
     .policy = "mmmi",
     .config = {.with_faults = true},
     .max_rounds = 40,
     .digest = 0x7cab4e13c3bc750aULL},
    // The seventh wave runs from round 38 past round 41, so a budget of
    // 40 stops inside it.
    {.name = "greedy-batch8-mid-wave",
     .policy = "greedy",
     .config = {.with_faults = true, .batch = 8},
     .max_rounds = 40,
     .digest = 0x08c9cb68bc0dc617ULL},
    // Saved from the sink: the log ends with a cut.
    {.name = "greedy-batch2-sink",
     .policy = "greedy",
     .config = {.with_faults = true, .batch = 2, .checkpoint_every_waves = 7},
     .from_sink = true,
     .digest = 0x0f1780e6969857d0ULL},
};

std::string GoldenImage(const GoldenCrawl& golden) {
  Stack stack(golden.policy, golden.config);
  stack.engine->AddSeed(stack.seed);
  stack.engine->set_max_rounds(golden.max_rounds);
  StatusOr<CrawlResult> result = stack.engine->Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  if (golden.from_sink) {
    DEEPCRAWL_CHECK(!stack.sink_images.empty());
    return stack.sink_images.back();
  }
  StatusOr<std::string> image =
      EncodeCrawlCheckpoint(*stack.engine, stack.faulty_ptr());
  DEEPCRAWL_CHECK(image.ok()) << image.status().ToString();
  return *image;
}

TEST(CrawlCheckpointTest, GoldenImageDigests) {
  for (const GoldenCrawl& golden : kGoldenCrawls) {
    const std::string image = GoldenImage(golden);
    EXPECT_EQ(CheckpointChecksum(image), golden.digest)
        << golden.name << " (" << image.size() << " bytes)";
  }
}

// A restored engine saved again at once writes the image it was restored
// from: the replay re-records the log the saved engine held, a trailing
// cut and the fault proxy's attempt table included.
TEST(CrawlCheckpointTest, RestoredEngineSavesItsImageAgain) {
  for (const GoldenCrawl& golden : kGoldenCrawls) {
    SCOPED_TRACE(golden.name);
    const std::string image = GoldenImage(golden);
    StackConfig config = golden.config;
    config.checkpoint_every_waves = 0;
    Stack restored(golden.policy, config);
    Status loaded =
        DecodeCrawlCheckpoint(image, *restored.engine, restored.faulty_ptr());
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    StatusOr<std::string> again =
        EncodeCrawlCheckpoint(*restored.engine, restored.faulty_ptr());
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(*again == image) << again->size() << " vs " << image.size()
                                 << " bytes";
  }
}

// --- forged fetch logs -------------------------------------------------
//
// The tests below rewrite fields of a valid image's LOG section and
// reframe it with a correct checksum, so only the log reader and the
// replay stand between the forgery and the engine.

// Where a forgeable field of a payload's LOG section lies.
struct Field {
  size_t offset = 0;
  size_t size = 0;
};

struct LogLayout {
  std::vector<Field> fetch_values;   // value of each logged fetch
  std::vector<Field> record_counts;  // record count of each page
  std::vector<Field> repeat_ids;     // (id << 1) of each repeated record
  std::vector<Field> new_ids;        // (id << 1 | 1) of each new record
  std::vector<Field> value_counts;   // value count of each new record
  std::vector<Field> record_values;  // first value of each new record
};

LogLayout ParseLog(std::string_view payload) {
  LogLayout layout;
  CheckpointReader reader(payload);
  auto offset = [&] { return payload.size() - reader.remaining(); };
  // Reads one varint into `value` and returns where it lay.
  uint64_t value = 0;
  auto varint = [&] {
    Field field{offset(), 0};
    value = reader.ReadVarint();
    field.size = offset() - field.offset;
    return field;
  };
  // CONF: marker, batch, keyword byte, selector name, three budgets.
  reader.ReadU32();
  reader.ReadU32();
  reader.ReadU8();
  reader.ReadString();
  for (int i = 0; i < 3; ++i) reader.ReadU64();
  EXPECT_EQ(reader.ReadU32(), kSectionLog);
  for (;;) {
    uint8_t tag = reader.ReadU8();
    DEEPCRAWL_CHECK(reader.ok());
    if (tag == kLogEnd) return layout;
    if (tag == kLogSeed) {
      reader.ReadVarint();
    } else if (tag == kLogRun) {
      reader.ReadU64();
      reader.ReadU64();
    } else if (tag == kLogFailure) {
      layout.fetch_values.push_back(varint());
      reader.ReadU8();
      if (reader.ReadU8() & kLogHasHint) reader.ReadVarint();
    } else if (tag == kLogPage) {
      layout.fetch_values.push_back(varint());
      if (reader.ReadU8() & kLogHasTotal) reader.ReadVarint();
      layout.record_counts.push_back(varint());
      for (uint64_t n = value; n > 0; --n) {
        Field key = varint();
        if ((value & 1) == kRecordRepeat) {
          layout.repeat_ids.push_back(key);
          continue;
        }
        layout.new_ids.push_back(key);
        layout.value_counts.push_back(varint());
        uint64_t k = value;
        layout.record_values.push_back(varint());
        for (; k > 1; --k) reader.ReadVarint();
      }
    } else {
      DEEPCRAWL_CHECK(tag == kLogCut) << "unknown log tag " << int{tag};
    }
  }
}

// `image` with `field` of its payload replaced by `bytes`, reframed
// with a valid checksum.
std::string Forge(const std::string& image, Field field,
                  const CheckpointWriter& bytes) {
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kCrawlCheckpointVersion);
  DEEPCRAWL_CHECK(payload.ok()) << payload.status().ToString();
  std::string forged(*payload);
  forged.replace(field.offset, field.size, bytes.buffer());
  return FrameCheckpoint(forged, kCrawlCheckpointVersion);
}

// The varint stored in `field` of `image`'s payload.
uint64_t ValueAt(const std::string& image, Field field) {
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kCrawlCheckpointVersion);
  DEEPCRAWL_CHECK(payload.ok()) << payload.status().ToString();
  CheckpointReader reader(payload->substr(field.offset, field.size));
  return reader.ReadVarint();
}

LogLayout LayoutOf(const std::string& image) {
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kCrawlCheckpointVersion);
  DEEPCRAWL_CHECK(payload.ok()) << payload.status().ToString();
  return ParseLog(*payload);
}

// A logged fetch of another value than the one the replayed selector
// picks names the fetch and wave where the replay left the log.
TEST(CrawlCheckpointTest, ForgedFetchValueDivergesCleanly) {
  std::string image = MidCrawlImage("mmmi", /*with_faults=*/false);
  LogLayout layout = LayoutOf(image);
  ASSERT_GT(layout.fetch_values.size(), 20u);
  CheckpointWriter other;
  other.WriteVarint(ValueAt(image, layout.fetch_values[20]) + 1);
  Status status = TryDecode(Forge(image, layout.fetch_values[20], other),
                            "mmmi", /*with_faults=*/false);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("replay diverged at fetch 20 (wave 20)"),
            std::string::npos)
      << status.ToString();
}

TEST(CrawlCheckpointTest, ForgedRepeatOfUnstoredRecordIsRejected) {
  std::string image = MidCrawlImage("mmmi", /*with_faults=*/false);
  LogLayout layout = LayoutOf(image);
  ASSERT_FALSE(layout.repeat_ids.empty());
  CheckpointWriter never_stored;
  never_stored.WriteVarint(uint64_t{0xFFFFFF00u} << 1 | kRecordRepeat);
  for (Field field : {layout.repeat_ids.front(), layout.repeat_ids.back()}) {
    Status status = TryDecode(Forge(image, field, never_stored), "mmmi",
                              /*with_faults=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("never stored"), std::string::npos)
        << status.ToString();
  }
}

// A record count or value count larger than the bytes behind it is
// rejected before anything is sized by it.
TEST(CrawlCheckpointTest, ForgedCountsLargerThanTheirBytesAreRejected) {
  std::string image = MidCrawlImage("mmmi", /*with_faults=*/false);
  LogLayout layout = LayoutOf(image);
  ASSERT_FALSE(layout.record_counts.empty());
  ASSERT_FALSE(layout.value_counts.empty());
  CheckpointWriter huge;
  huge.WriteVarint(uint64_t{1} << 40);
  for (Field field : {layout.record_counts.front(),
                       layout.record_counts.back(),
                       layout.value_counts.front(),
                       layout.value_counts.back()}) {
    Status status =
        TryDecode(Forge(image, field, huge), "mmmi", /*with_faults=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("exceeds remaining"), std::string::npos)
        << status.ToString();
  }
}

// A record value at or above the source's catalog size is rejected: a
// replay would otherwise size the seen bitmap, the store's per-value
// tables and MMMI's issued bitmap by it (~4 GB each).
TEST(CrawlCheckpointTest, ForgedLogValueIdsAreBoundsChecked) {
  std::string image = MidCrawlImage("mmmi", /*with_faults=*/false);
  LogLayout layout = LayoutOf(image);
  ASSERT_FALSE(layout.record_values.empty());
  const uint32_t catalog = SharedBackend().num_values();
  for (ValueId forged : {ValueId{0xFFFFFFF0u}, ValueId{catalog}}) {
    CheckpointWriter value;
    value.WriteVarint(forged);
    for (Field field :
         {layout.record_values.front(), layout.record_values.back()}) {
      Status status =
          TryDecode(Forge(image, field, value), "mmmi", /*with_faults=*/false);
      ASSERT_FALSE(status.ok());
      EXPECT_NE(status.message().find("outside the source's catalog"),
                std::string::npos)
          << status.ToString();
    }
  }
}

// A new record with no values is rejected: the store holds only
// records that carry at least one value.
TEST(CrawlCheckpointTest, ForgedRecordWithoutValuesIsRejected) {
  std::string image = MidCrawlImage("mmmi", /*with_faults=*/false);
  LogLayout layout = LayoutOf(image);
  ASSERT_FALSE(layout.value_counts.empty());
  CheckpointWriter zero;
  zero.WriteVarint(0);
  for (Field field :
       {layout.value_counts.front(), layout.value_counts.back()}) {
    Status status =
        TryDecode(Forge(image, field, zero), "mmmi", /*with_faults=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("logged record without values"),
              std::string::npos)
        << status.ToString();
  }
}

// Record id kInvalidRecordId is rejected, new or repeated: the store's
// record index keys by id + 1, which that id would wrap to its empty
// slot.
TEST(CrawlCheckpointTest, ForgedInvalidRecordIdIsRejected) {
  std::string image = MidCrawlImage("mmmi", /*with_faults=*/false);
  LogLayout layout = LayoutOf(image);
  ASSERT_FALSE(layout.new_ids.empty());
  ASSERT_FALSE(layout.repeat_ids.empty());
  const uint64_t invalid = uint64_t{kInvalidRecordId} << 1;
  CheckpointWriter as_new;
  as_new.WriteVarint(invalid | kRecordNew);
  CheckpointWriter as_repeat;
  as_repeat.WriteVarint(invalid | kRecordRepeat);
  const std::pair<Field, const CheckpointWriter*> forgeries[] = {
      {layout.new_ids.front(), &as_new},
      {layout.new_ids.back(), &as_new},
      {layout.repeat_ids.front(), &as_repeat},
  };
  for (const auto& [field, bytes] : forgeries) {
    Status status =
        TryDecode(Forge(image, field, *bytes), "mmmi", /*with_faults=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("logged record id out of range"),
              std::string::npos)
        << status.ToString();
  }
}

// An image saved after Run() stopped on a round budget in the middle of
// a batched wave resumes into the uninterrupted crawl: the replay stops
// where that Run() did, and the next Run() finishes the wave.
TEST(CrawlCheckpointTest, MidWaveImageAfterBudgetStopResumesIdentically) {
  constexpr uint32_t kBatch = 8;
  Stack reference("greedy", /*with_faults=*/true, kBatch);
  reference.engine->AddSeed(reference.seed);
  StatusOr<CrawlResult> full = reference.engine->Run();
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  for (uint64_t budget = 1; budget <= 60; ++budget) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    Stack first("greedy", /*with_faults=*/true, kBatch);
    first.engine->AddSeed(first.seed);
    first.engine->set_max_rounds(budget);
    ASSERT_TRUE(first.engine->Run().ok());
    StatusOr<std::string> image =
        EncodeCrawlCheckpoint(*first.engine, first.faulty_ptr());
    ASSERT_TRUE(image.ok()) << image.status().ToString();

    Stack resumed("greedy", /*with_faults=*/true, kBatch);
    Status loaded = DecodeCrawlCheckpoint(*image, *resumed.engine,
                                          resumed.faulty_ptr());
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    resumed.engine->set_max_rounds(0);
    StatusOr<CrawlResult> cont = resumed.engine->Run();
    ASSERT_TRUE(cont.ok()) << cont.status().ToString();
    EXPECT_EQ(full->rounds, cont->rounds);
    EXPECT_EQ(full->queries, cont->queries);
    EXPECT_EQ(full->trace.points(), cont->trace.points());
    EXPECT_EQ(full->resilience, cont->resilience);
    EXPECT_EQ(reference.engine->waves_completed(),
              resumed.engine->waves_completed());
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

// Policies whose selectors read ground truth (oracle) or a domain table
// built from a second database (domain) resume like every other: their
// state is rebuilt by replaying the log through their event callbacks.
void ExpectResumesIdentically(const std::string& policy) {
  Stack reference(policy);
  reference.engine->AddSeed(reference.seed);
  StatusOr<CrawlResult> full = reference.engine->Run();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full->rounds, 20u);

  Stack first(policy);
  first.engine->AddSeed(first.seed);
  first.engine->set_max_rounds(full->rounds / 2);
  ASSERT_TRUE(first.engine->Run().ok());
  StatusOr<std::string> image = EncodeCrawlCheckpoint(*first.engine, nullptr);
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  Stack resumed(policy);
  Status loaded = DecodeCrawlCheckpoint(*image, *resumed.engine, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(resumed.engine->rounds_used(), first.engine->rounds_used());
  resumed.engine->set_max_rounds(0);
  StatusOr<CrawlResult> cont = resumed.engine->Run();
  ASSERT_TRUE(cont.ok()) << cont.status().ToString();
  EXPECT_EQ(full->rounds, cont->rounds);
  EXPECT_EQ(full->queries, cont->queries);
  EXPECT_EQ(full->records, cont->records);
  EXPECT_EQ(full->trace.points(), cont->trace.points());
}

TEST(CrawlCheckpointTest, OracleSelectorResumesIdentically) {
  ExpectResumesIdentically("oracle");
}

TEST(CrawlCheckpointTest, DomainSelectorResumesIdentically) {
  ExpectResumesIdentically("domain");
}

}  // namespace
}  // namespace deepcrawl
