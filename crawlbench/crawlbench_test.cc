// Tests of the benchmark itself: the metric math, span self times, and
// the layer wrappers, which must leave a crawl's trace byte-identical.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "crawlbench/metric_math.h"
#include "crawlbench/tracing.h"
#include "crawlbench/workloads.h"
#include "gtest/gtest.h"
#include "src/util/checkpoint_io.h"

namespace crawlbench {
namespace {

using deepcrawl::CheckpointReader;
using deepcrawl::CheckpointWriter;
using deepcrawl::Status;
using deepcrawl::ValueId;

std::string ScratchDir() {
  const char* dir = std::getenv("CRAWLBENCH_SCRATCH");
  return dir != nullptr ? dir : ::testing::TempDir() + "crawlbench";
}

std::vector<double> OneTo(int n) {
  std::vector<double> samples;
  for (int i = n; i >= 1; --i) samples.push_back(i);  // unsorted on purpose
  return samples;
}

TEST(MetricMathTest, MedianOfOddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(MetricMathTest, PercentileNeedsTenSamplesBeyondIt) {
  // p50 of n samples is the ceil(n/2)-th; 20 samples leave 10 beyond it.
  EXPECT_FALSE(SupportedPercentile(OneTo(19), 0.50).has_value());
  ASSERT_TRUE(SupportedPercentile(OneTo(20), 0.50).has_value());
  EXPECT_EQ(*SupportedPercentile(OneTo(20), 0.50), 10);
  // p99 needs 1000 samples.
  EXPECT_FALSE(SupportedPercentile(OneTo(999), 0.99).has_value());
  ASSERT_TRUE(SupportedPercentile(OneTo(1000), 0.99).has_value());
  EXPECT_EQ(*SupportedPercentile(OneTo(1000), 0.99), 990);
  EXPECT_FALSE(SupportedPercentile(OneTo(100), 1.0).has_value());
  EXPECT_FALSE(SupportedPercentile({}, 0.5).has_value());
}

TEST(MetricMathTest, ShareStatesItsBase) {
  Share share{90, 100, "rounds"};
  EXPECT_DOUBLE_EQ(share.value(), 0.9);
  EXPECT_EQ(share.Describe(), "0.900000 of 100 rounds");
  EXPECT_EQ(Share({1, 0, "queries"}).value(), 0);
  EXPECT_NE(Share({1, 0, "queries"}).Describe().find("queries"),
            std::string::npos);
}

TEST(SpanTest, SelfTimeSubtractsDirectChildrenOnly) {
  // crawl [0,100) > fetch [10,50) > server [20,30); select [60,70).
  std::vector<Span> spans = {
      {SpanName::kCrawl, 0, 0, 100, -1},
      {SpanName::kFetchWave, 0, 10, 50, 0},
      {SpanName::kServerFetch, 0, 20, 30, 1},
      {SpanName::kSelect, 0, 60, 70, 0},
  };
  LayerTimes times = SumLayerTimes(spans);
  auto at = [](SpanName name) { return static_cast<size_t>(name); };
  EXPECT_EQ(times.total_ns[at(SpanName::kCrawl)], 100);
  EXPECT_EQ(times.self_ns[at(SpanName::kCrawl)], 50);
  EXPECT_EQ(times.self_ns[at(SpanName::kFetchWave)], 30);
  EXPECT_EQ(times.self_ns[at(SpanName::kServerFetch)], 10);
  EXPECT_EQ(times.count[at(SpanName::kSelect)], 1u);
  EXPECT_EQ(StartIntervalsUs(spans, SpanName::kFetchWave).size(), 0u);
}

TEST(SpanTest, LogNestsByOpenSpans) {
  SpanLog log(0);
  log.set_run(7);
  {
    ScopedSpan outer(&log, SpanName::kCrawl);
    { ScopedSpan inner(&log, SpanName::kSelect); }
    { ScopedSpan inner(&log, SpanName::kFetchWave); }
  }
  ScopedSpan ignored(nullptr, SpanName::kCrawl);  // a null log records nothing
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, 0);
  EXPECT_EQ(log.spans()[2].run, 7u);
  EXPECT_LE(log.spans()[1].end_ns, log.spans()[2].start_ns);
}

// A selector whose every answer is recognisable.
class FakeSelector : public deepcrawl::QuerySelector {
 public:
  void OnValueDiscovered(ValueId v) override { discovered.push_back(v); }
  ValueId SelectNext() override { return 42; }
  std::string_view name() const override { return "fake"; }
  bool MaySelectUndiscovered() const override { return true; }
  Status SaveState(CheckpointWriter& writer) const override {
    writer.WriteU32(0xfeed);
    return Status::OK();
  }
  Status LoadState(CheckpointReader& reader, ValueId bound) override {
    loaded = reader.ReadU32() + bound;
    return Status::OK();
  }

  std::vector<ValueId> discovered;
  uint32_t loaded = 0;
};

TEST(WrapperTest, SelectorForwardsEveryCall) {
  FakeSelector inner;
  SpanLog log(0);
  TimedSelector timed(inner, log);
  timed.OnValueDiscovered(3);
  timed.OnValueDiscovered(5);
  EXPECT_EQ(inner.discovered, (std::vector<ValueId>{3, 5}));
  EXPECT_EQ(timed.event_calls(), 2u);
  EXPECT_EQ(timed.SelectNext(), 42u);
  EXPECT_EQ(log.spans().size(), 1u);
  EXPECT_EQ(timed.name(), "fake");
  EXPECT_TRUE(timed.MaySelectUndiscovered());
  CheckpointWriter writer;
  ASSERT_TRUE(timed.SaveState(writer).ok());
  CheckpointReader reader(writer.buffer());
  ASSERT_TRUE(timed.LoadState(reader, 1).ok());
  EXPECT_EQ(inner.loaded, 0xfeedu + 1);
}

WorkloadSpec Tiny(const char* name) {
  WorkloadSpec spec = *FindWorkload(name);
  spec.scale = 0.005;
  if (spec.checkpoint_every_waves > 0) spec.checkpoint_every_waves = 20;
  return spec;
}

// The wrappers must leave the trace byte-identical, on every workload
// shape: in-process, MMMI's saturation switch, and TCP with checkpoints
// (which serializes the selector through the wrapper).
TEST(WrapperTest, TracedCrawlMatchesUntracedOnEveryWorkload) {
  for (const WorkloadSpec& full : Workloads()) {
    WorkloadSpec spec = Tiny(full.name);
    SCOPED_TRACE(spec.name);
    auto plain = RunOneCrawl(spec, 3, ScratchDir(), nullptr,
                             spec.check_reachability);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    CrawlTracer tracer;
    auto traced = RunOneCrawl(spec, 3, ScratchDir(), &tracer, false);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    EXPECT_EQ(plain.value().trace_digest, traced.value().trace_digest);
    EXPECT_EQ(plain.value().rounds, traced.value().rounds);
    if (spec.check_reachability) {
      EXPECT_EQ(plain.value().reachable_records, plain.value().records);
    }
    auto setup = MeasureSetup(spec, 3);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    EXPECT_GT(setup.value(), 0.0);

    const CrawlSample& t = traced.value();
    EXPECT_EQ(t.layers.fetch_requests, t.rounds);
    EXPECT_EQ(t.layers.replay_records, t.records);
    LayerTimes times = SumLayerTimes(tracer.main.spans());
    EXPECT_EQ(times.count[static_cast<size_t>(SpanName::kCrawl)], 1u);
    const std::vector<Span>& server_spans =
        spec.tcp ? tracer.server.spans() : tracer.main.spans();
    EXPECT_EQ(DurationsUs(server_spans, SpanName::kServerFetch).size(),
              t.rounds);
    if (spec.tcp) {
      EXPECT_GT(times.count[static_cast<size_t>(SpanName::kCheckpoint)], 0u);
      EXPECT_GT(t.layers.checkpoint_bytes, 0u);
      auto twin = RunOneCrawl(InProcessTwin(spec), 3, ScratchDir(), nullptr,
                              false);
      ASSERT_TRUE(twin.ok()) << twin.status().ToString();
      EXPECT_EQ(twin.value().trace_digest, t.trace_digest);
    } else {
      // In process, every server fetch nests inside a fetch wave.
      for (const Span& span : tracer.main.spans()) {
        if (span.name != SpanName::kServerFetch) continue;
        ASSERT_GE(span.parent, 0);
        EXPECT_EQ(tracer.main.spans()[static_cast<size_t>(span.parent)].name,
                  SpanName::kFetchWave);
      }
    }
  }
}

TEST(WrapperTest, SpansJsonHasOneRowPerSpan) {
  SpanLog main(0);
  SpanLog server(1);
  { ScopedSpan crawl(&main, SpanName::kCrawl); }
  { ScopedSpan fetch(&server, SpanName::kServerFetch); }
  std::string path = ScratchDir() + "/spans-test.json";
  const SpanLog* logs[] = {&main, &server};
  ASSERT_TRUE(WriteSpansJson(logs, "{\"seed\": 1}", path).ok());
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  EXPECT_EQ(text.str().rfind("{\"env\": {\"seed\": 1},", 0), 0u);
  EXPECT_NE(text.str().find("\n[3,0,0,"), std::string::npos);  // engine.run
  EXPECT_NE(text.str().find("\n[6,0,1,"), std::string::npos);  // server.fetch
}

}  // namespace
}  // namespace crawlbench
