#include "crawlbench/tracing.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <system_error>

namespace crawlbench {

using deepcrawl::CrawlEngine;
using deepcrawl::FetchRequest;
using deepcrawl::QueryInterface;
using deepcrawl::QueryOutcome;
using deepcrawl::ResultPage;
using deepcrawl::Status;
using deepcrawl::StatusOr;
using deepcrawl::ValueId;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kDatagen:
      return "datagen.generate";
    case SpanName::kIndexBuild:
      return "index.build";
    case SpanName::kNetSetup:
      return "net.setup";
    case SpanName::kCrawl:
      return "engine.run";
    case SpanName::kSelect:
      return "selector.select";
    case SpanName::kFetchWave:
      return "fetch.wave";
    case SpanName::kServerFetch:
      return "server.fetch";
    case SpanName::kCheckpoint:
      return "checkpoint.save";
    case SpanName::kStoreReplay:
      return "store.replay_ingest";
  }
  return "unknown";
}

int32_t SpanLog::Begin(SpanName name) {
  Span span;
  span.name = name;
  span.run = run_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order (they are scoped), so `index` is on top.
  open_.pop_back();
}

double LayerTimes::TotalSeconds(SpanName name) const {
  return static_cast<double>(total_ns[static_cast<size_t>(name)]) * 1e-9;
}

double LayerTimes::SelfSeconds(SpanName name) const {
  return static_cast<double>(self_ns[static_cast<size_t>(name)]) * 1e-9;
}

LayerTimes SumLayerTimes(std::span<const Span> spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  LayerTimes times;
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t name = static_cast<size_t>(spans[i].name);
    int64_t duration = spans[i].end_ns - spans[i].start_ns;
    ++times.count[name];
    times.total_ns[name] += duration;
    times.self_ns[name] += duration - child_ns[i];
    if (duration > times.max_ns[name]) times.max_ns[name] = duration;
  }
  return times;
}

std::vector<double> DurationsUs(std::span<const Span> spans, SpanName name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

std::vector<double> StartIntervalsUs(std::span<const Span> spans,
                                     SpanName name) {
  std::vector<double> out;
  int64_t previous = -1;
  for (const Span& span : spans) {
    if (span.name != name) continue;
    if (previous >= 0) {
      out.push_back(static_cast<double>(span.start_ns - previous) * 1e-3);
    }
    previous = span.start_ns;
  }
  return out;
}

Status WriteSpansJson(std::span<const SpanLog* const> logs,
                      const std::string& env_json, const std::string& path) {
  std::error_code error;
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, error);
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::NotFound("cannot create '" + path + "'");
  }
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.start_ns < origin) origin = span.start_ns;
    }
  }
  std::fprintf(file, "{\"env\": %s,\n\"names\": [", env_json.c_str());
  for (size_t name = 0; name < kNumSpanNames; ++name) {
    std::fprintf(file, "%s\"%s\"", name == 0 ? "" : ", ",
                 SpanNameString(static_cast<SpanName>(name)));
  }
  // A span's id is its row index; name indexes "names"; times are
  // nanoseconds since the earliest span's start.
  std::fprintf(file,
               "],\n\"columns\": [\"name\", \"run\", \"thread\", "
               "\"start_ns\", \"end_ns\", \"parent\"],\n\"spans\": [");
  long long base = 0;
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      long long parent = span.parent < 0 ? -1 : base + span.parent;
      std::fprintf(file, "%s\n[%u,%u,%u,%lld,%lld,%lld]", first ? "" : ",",
                   static_cast<unsigned>(span.name), span.run,
                   log->thread_id(),
                   static_cast<long long>(span.start_ns - origin),
                   static_cast<long long>(span.end_ns - origin), parent);
      first = false;
    }
    base += static_cast<long long>(log->spans().size());
  }
  std::fprintf(file, "\n]}\n");
  bool failed = std::ferror(file) != 0;
  if (std::fclose(file) != 0 || failed) {
    return Status::Internal("write failed: '" + path + "'");
  }
  return Status::OK();
}

// --- TimedSelector -------------------------------------------------------

template <typename Fn>
void TimedSelector::TimeEvent(Fn&& fn) {
  int64_t start = NowNs();
  fn();
  event_ns_ += NowNs() - start;
  ++event_calls_;
}

void TimedSelector::OnValueDiscovered(ValueId v) {
  TimeEvent([&] { inner_.OnValueDiscovered(v); });
}

void TimedSelector::OnRecordHarvested(uint32_t slot) {
  TimeEvent([&] { inner_.OnRecordHarvested(slot); });
}

void TimedSelector::OnQueryCompleted(const QueryOutcome& outcome) {
  TimeEvent([&] { inner_.OnQueryCompleted(outcome); });
}

void TimedSelector::OnSaturation() {
  TimeEvent([&] { inner_.OnSaturation(); });
}

void TimedSelector::OnValueTaken(ValueId v) {
  TimeEvent([&] { inner_.OnValueTaken(v); });
}

ValueId TimedSelector::SelectNext() {
  ScopedSpan span(&log_, SpanName::kSelect);
  return inner_.SelectNext();
}

// --- TimedExecutor -------------------------------------------------------

void TimedExecutor::FetchWave(
    QueryInterface& server, std::span<const FetchRequest> requests,
    std::span<std::optional<StatusOr<ResultPage>>> results) {
  ScopedSpan span(&log_, SpanName::kFetchWave);
  requests_ += requests.size();
  inner_.FetchWave(server, requests, results);
}

// --- TimedQueryInterface -------------------------------------------------

template <typename Fn>
StatusOr<ResultPage> TimedQueryInterface::TimeFetch(Fn&& fn) {
  ScopedSpan span(&log_, SpanName::kServerFetch);
  StatusOr<ResultPage> page = fn();
  if (page.ok()) records_returned_ += page.value().records.size();
  return page;
}

StatusOr<ResultPage> TimedQueryInterface::FetchPage(ValueId value,
                                                    uint32_t page_number) {
  return TimeFetch([&] { return inner_.FetchPage(value, page_number); });
}

StatusOr<ResultPage> TimedQueryInterface::FetchPageByText(
    deepcrawl::AttributeId attr, std::string_view text, uint32_t page_number) {
  return TimeFetch(
      [&] { return inner_.FetchPageByText(attr, text, page_number); });
}

StatusOr<ResultPage> TimedQueryInterface::FetchPageByKeyword(
    std::string_view text, uint32_t page_number) {
  return TimeFetch(
      [&] { return inner_.FetchPageByKeyword(text, page_number); });
}

StatusOr<ResultPage> TimedQueryInterface::FetchPageConjunctive(
    std::span<const ValueId> values, uint32_t page_number) {
  return TimeFetch(
      [&] { return inner_.FetchPageConjunctive(values, page_number); });
}

StatusOr<ResultPage> TimedQueryInterface::FetchPageKeywordOf(
    ValueId value, uint32_t page_number) {
  return TimeFetch(
      [&] { return inner_.FetchPageKeywordOf(value, page_number); });
}

// --- TimedCheckpointSink -------------------------------------------------

Status TimedCheckpointSink::operator()(const CrawlEngine& engine) {
  Status saved = [&] {
    ScopedSpan span(&log_, SpanName::kCheckpoint);
    return inner_(engine);
  }();
  if (saved.ok()) {
    std::error_code error;
    uintmax_t size = std::filesystem::file_size(path_, error);
    if (!error) bytes_ += size;
  }
  return saved;
}

}  // namespace crawlbench
