// Span recording and the forwarding layer wrappers of the traced run.
//
// The traced crawl times each layer from the benchmark's own files: every
// wrapper below forwards every call to the object it wraps, unchanged, and
// records a span (or, for the high-rate selector callbacks, a count and a
// summed duration) around it. Forwarding is complete — name(),
// MaySelectUndiscovered(), SaveState()/LoadState() included — so a traced
// crawl emits the byte-identical trace of an untraced one.

#ifndef CRAWLBENCH_TRACING_H_
#define CRAWLBENCH_TRACING_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/query_selector.h"
#include "src/server/query_interface.h"
#include "src/util/status.h"

namespace crawlbench {

// Monotonic clock in nanoseconds.
int64_t NowNs();
double SecondsSince(int64_t start_ns);

enum class SpanName : uint8_t {
  kDatagen,       // LoadTargetTable
  kIndexBuild,    // WebDbServer construction (inverted index)
  kNetSetup,      // TCP server start + client connect
  kCrawl,         // CrawlEngine::Run
  kSelect,        // QuerySelector::SelectNext
  kFetchWave,     // FetchExecutor::FetchWave
  kServerFetch,   // QueryInterface::FetchPage* on the serving side
  kCheckpoint,    // checkpoint_sink
  kStoreReplay,   // harvested records re-ingested into a fresh LocalStore
};
inline constexpr size_t kNumSpanNames = 9;
const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kCrawl;
  uint32_t run = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Index of the enclosing span in the same log; -1 for a root span.
  int32_t parent = -1;
};

// Spans recorded by one thread. A span begun while another is open
// becomes its child. Spans stay in memory until written out at exit.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread_id) : thread_id_(thread_id) {}

  int32_t Begin(SpanName name);
  void End(int32_t index);
  void set_run(uint32_t run) { run_ = run; }

  uint32_t thread_id() const { return thread_id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_id_;
  uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Records one span over its scope; a null log records nothing, so the
// untraced run shares the code path at the cost of a branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name)
      : log_(log), index_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

// Per span name: how many spans, their summed duration, and their summed
// self time (duration minus the part covered by direct children).
struct LayerTimes {
  std::array<uint64_t, kNumSpanNames> count{};
  std::array<int64_t, kNumSpanNames> total_ns{};
  std::array<int64_t, kNumSpanNames> self_ns{};
  std::array<int64_t, kNumSpanNames> max_ns{};

  double TotalSeconds(SpanName name) const;
  double SelfSeconds(SpanName name) const;
};
LayerTimes SumLayerTimes(std::span<const Span> spans);

// Durations of every span called `name`, in microseconds.
std::vector<double> DurationsUs(std::span<const Span> spans, SpanName name);

// Intervals between the starts of consecutive `name` spans, in
// microseconds: for kFetchWave, one full plan -> fetch -> commit cycle.
std::vector<double> StartIntervalsUs(std::span<const Span> spans,
                                     SpanName name);

// Writes every span of `logs` as one JSON document, one row per span. A
// span's id is its row (log order, then record order); `env_json` is
// embedded verbatim.
deepcrawl::Status WriteSpansJson(std::span<const SpanLog* const> logs,
                                 const std::string& env_json,
                                 const std::string& path);

// --- forwarding layer wrappers -----------------------------------------

// Times SelectNext as a span and the event callbacks as a count plus a
// summed duration (they fire several times per record, too often for a
// span each).
class TimedSelector : public deepcrawl::QuerySelector {
 public:
  TimedSelector(deepcrawl::QuerySelector& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  void OnValueDiscovered(deepcrawl::ValueId v) override;
  void OnRecordHarvested(uint32_t slot) override;
  void OnQueryCompleted(const deepcrawl::QueryOutcome& outcome) override;
  void OnSaturation() override;
  void OnValueTaken(deepcrawl::ValueId v) override;
  deepcrawl::ValueId SelectNext() override;
  std::string_view name() const override { return inner_.name(); }
  bool MaySelectUndiscovered() const override {
    return inner_.MaySelectUndiscovered();
  }
  deepcrawl::Status SaveState(
      deepcrawl::CheckpointWriter& writer) const override {
    return inner_.SaveState(writer);
  }
  deepcrawl::Status LoadState(deepcrawl::CheckpointReader& reader,
                              deepcrawl::ValueId value_bound) override {
    return inner_.LoadState(reader, value_bound);
  }

  uint64_t event_calls() const { return event_calls_; }
  int64_t event_ns() const { return event_ns_; }

 private:
  template <typename Fn>
  void TimeEvent(Fn&& fn);

  deepcrawl::QuerySelector& inner_;
  SpanLog& log_;
  uint64_t event_calls_ = 0;
  int64_t event_ns_ = 0;
};

class TimedExecutor : public deepcrawl::FetchExecutor {
 public:
  TimedExecutor(deepcrawl::FetchExecutor& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  void FetchWave(
      deepcrawl::QueryInterface& server,
      std::span<const deepcrawl::FetchRequest> requests,
      std::span<std::optional<deepcrawl::StatusOr<deepcrawl::ResultPage>>>
          results) override;

  uint64_t requests() const { return requests_; }

 private:
  deepcrawl::FetchExecutor& inner_;
  SpanLog& log_;
  uint64_t requests_ = 0;
};

// Times every page fetch on the serving side and counts the records the
// pages carried. Behind a WebDbTcpServer it runs on the event-loop thread,
// so it must record into that thread's own log.
class TimedQueryInterface : public deepcrawl::QueryInterface {
 public:
  TimedQueryInterface(deepcrawl::QueryInterface& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPage(
      deepcrawl::ValueId value, uint32_t page_number) override;
  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPageByText(
      deepcrawl::AttributeId attr, std::string_view text,
      uint32_t page_number) override;
  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPageByKeyword(
      std::string_view text, uint32_t page_number) override;
  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPageConjunctive(
      std::span<const deepcrawl::ValueId> values,
      uint32_t page_number) override;
  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPageKeywordOf(
      deepcrawl::ValueId value, uint32_t page_number) override;

  uint64_t communication_rounds() const override {
    return inner_.communication_rounds();
  }
  uint64_t queries_issued() const override { return inner_.queries_issued(); }
  void ResetMeters() override { inner_.ResetMeters(); }
  deepcrawl::RttCounters rtt_counters() const override {
    return inner_.rtt_counters();
  }
  const deepcrawl::ServerOptions& options() const override {
    return inner_.options();
  }
  bool IsQueriableValue(deepcrawl::ValueId value) const override {
    return inner_.IsQueriableValue(value);
  }

  uint64_t records_returned() const { return records_returned_; }

 private:
  template <typename Fn>
  deepcrawl::StatusOr<deepcrawl::ResultPage> TimeFetch(Fn&& fn);

  deepcrawl::QueryInterface& inner_;
  SpanLog& log_;
  uint64_t records_returned_ = 0;
};

// Times a checkpoint sink and sums the size of the file it writes.
class TimedCheckpointSink {
 public:
  using Sink = std::function<deepcrawl::Status(const deepcrawl::CrawlEngine&)>;

  TimedCheckpointSink(Sink inner, SpanLog& log, std::string path)
      : inner_(std::move(inner)), log_(log), path_(std::move(path)) {}

  deepcrawl::Status operator()(const deepcrawl::CrawlEngine& engine);

  uint64_t bytes() const { return bytes_; }

 private:
  Sink inner_;
  SpanLog& log_;
  std::string path_;
  uint64_t bytes_ = 0;
};

}  // namespace crawlbench

#endif  // CRAWLBENCH_TRACING_H_
