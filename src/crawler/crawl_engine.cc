#include "src/crawler/crawl_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/crawler/checkpoint.h"
#include "src/util/checkpoint_io.h"
#include "src/util/logging.h"

namespace deepcrawl {

const char* StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kFrontierExhausted:
      return "frontier-exhausted";
    case StopReason::kRoundBudget:
      return "round-budget";
    case StopReason::kTargetReached:
      return "target-reached";
  }
  return "unknown";
}

CrawlResult MakeCrawlResult(StopReason reason, uint64_t rounds,
                            uint64_t queries, uint64_t records,
                            const CrawlTrace& trace) {
  CrawlResult result;
  result.stop_reason = reason;
  result.rounds = rounds;
  result.queries = queries;
  result.records = records;
  result.trace = trace;
  result.resilience = trace.resilience();
  return result;
}

StatusOr<ResultPage> ExecuteFetch(QueryInterface& server,
                                  const FetchRequest& request) {
  return request.keyword
             ? server.FetchPageKeywordOf(request.value, request.page_number)
             : server.FetchPage(request.value, request.page_number);
}

void InlineFetchExecutor::FetchWave(
    QueryInterface& server, std::span<const FetchRequest> requests,
    std::span<std::optional<StatusOr<ResultPage>>> results) {
  for (size_t i = 0; i < requests.size(); ++i) {
    results[i] = ExecuteFetch(server, requests[i]);
  }
}

ThreadPoolFetchExecutor::ThreadPoolFetchExecutor(uint32_t threads)
    : pool_(threads) {}

void ThreadPoolFetchExecutor::FetchWave(
    QueryInterface& server, std::span<const FetchRequest> requests,
    std::span<std::optional<StatusOr<ResultPage>>> results) {
  tasks_.clear();
  tasks_.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    tasks_.push_back([&server, &requests, &results, i] {
      results[i] = ExecuteFetch(server, requests[i]);
    });
  }
  pool_.RunAndWait(tasks_);
}

DegradationTracker::FailureAction DegradationTracker::OnFetchFailure(
    const Status& failure, ValueId value, uint32_t& failures,
    ResilienceCounters& resilience) {
  if (policy_ == nullptr || !RetryPolicy::IsRetryable(failure)) {
    return FailureAction::kFailCrawl;
  }
  ++failures;
  ++resilience.transient_failures;
  if (failure.retry_after_rounds().has_value()) {
    ++resilience.rate_limit_rejections;
    resilience.max_retry_after_hint = std::max<uint64_t>(
        resilience.max_retry_after_hint, *failure.retry_after_rounds());
  }
  if (!policy_->ShouldRetry(failure, failures)) {
    // Retry budget exhausted: degrade gracefully — re-queue the value at
    // the frontier tail a bounded number of times, then abandon it. The
    // retry-after floor still binds the *source* even though this value's
    // drain is over: charge it to the clock, or the very next fetch would
    // land before the server's advertised earliest-retry time.
    uint64_t floor = policy_->FloorTicks(failure);
    if (floor > 0) {
      clock_.Advance(floor);
      resilience.backoff_ticks += floor;
    }
    ++resilience.degraded_queries;
    uint32_t& requeues = requeue_count_[value];
    if (requeues < policy_->config().max_requeues) {
      ++requeues;
      ++resilience.requeues;
      retry_queue_.push_back(value);
      return FailureAction::kRequeue;
    }
    ++resilience.abandoned_values;
    return FailureAction::kAbandon;
  }
  uint64_t wait = policy_->BackoffTicks(failure, failures, value);
  clock_.Advance(wait);
  resilience.backoff_ticks += wait;
  ++resilience.retries;
  return FailureAction::kRetry;
}

ValueId DegradationTracker::PopRetry() {
  if (retry_queue_.empty()) return kInvalidValueId;
  ValueId value = retry_queue_.front();
  retry_queue_.pop_front();
  return value;
}

void DegradationTracker::SaveState(CheckpointWriter& writer) const {
  writer.WriteU64(retry_queue_.size());
  for (ValueId v : retry_queue_) writer.WriteU32(v);
  // Sorted by value, so the encoding is independent of hash-map order.
  std::vector<std::pair<ValueId, uint32_t>> counts(requeue_count_.begin(),
                                                   requeue_count_.end());
  std::sort(counts.begin(), counts.end());
  writer.WriteU64(counts.size());
  for (const auto& [value, requeues] : counts) {
    writer.WriteU32(value);
    writer.WriteU32(requeues);
  }
}

Status DegradationTracker::LoadState(CheckpointReader& reader,
                                     ValueId value_bound) {
  retry_queue_.clear();
  requeue_count_.clear();
  uint64_t queued = reader.ReadCount(4);
  for (uint64_t i = 0; i < queued && reader.ok(); ++i) {
    ValueId value = reader.ReadU32();
    if (value >= value_bound) {
      reader.MarkCorrupt("retry-queue value id out of range");
      break;
    }
    retry_queue_.push_back(value);
  }
  uint64_t counted = reader.ReadCount(8);
  for (uint64_t i = 0; i < counted && reader.ok(); ++i) {
    ValueId value = reader.ReadU32();
    uint32_t requeues = reader.ReadU32();
    if (value >= value_bound) {
      reader.MarkCorrupt("re-queue count value id out of range");
      break;
    }
    if (!requeue_count_.emplace(value, requeues).second) {
      reader.MarkCorrupt("duplicate value in re-queue count table");
    }
  }
  return reader.status();
}

CrawlEngine::CrawlEngine(QueryInterface& server, QuerySelector& selector,
                         LocalStore& store, CrawlOptions options,
                         EngineOptions engine_options,
                         AbortPolicy* abort_policy,
                         const RetryPolicy* retry_policy)
    : server_(server),
      selector_(selector),
      store_(store),
      options_(options),
      engine_options_(std::move(engine_options)),
      abort_policy_(abort_policy),
      retry_policy_(retry_policy),
      degradation_(retry_policy, clock_) {
  DEEPCRAWL_CHECK(engine_options_.threads >= 1) << "need >= 1 fetch thread";
  DEEPCRAWL_CHECK(engine_options_.batch >= 1) << "need >= 1 drain slot";
  if (engine_options_.shared_executor != nullptr) {
    executor_ = engine_options_.shared_executor;
  } else {
    if (engine_options_.threads > 1) {
      owned_executor_ =
          std::make_unique<ThreadPoolFetchExecutor>(engine_options_.threads);
    } else {
      owned_executor_ = std::make_unique<InlineFetchExecutor>();
    }
    executor_ = owned_executor_.get();
  }
  slots_.resize(engine_options_.batch);
}

void CrawlEngine::DiscoverValue(ValueId v) {
  if (v >= seen_.size()) seen_.resize(static_cast<size_t>(v) + 1, 0);
  if (seen_[v]) return;
  seen_[v] = 1;
  // Values of attributes outside the interface schema Aq (Definition
  // 2.2) appear on result pages but cannot be queried; they never enter
  // Lto-query.
  if (!server_.IsQueriableValue(v)) return;
  selector_.OnValueDiscovered(v);
}

void CrawlEngine::AddSeed(ValueId v) { DiscoverValue(v); }

ValueId CrawlEngine::NextValue() {
  ValueId value = selector_.SelectNext();
  if (value != kInvalidValueId) return value;
  // Re-queued values wait at the frontier tail: they only come up once
  // the selector has nothing better.
  return degradation_.PopRetry();
}

void CrawlEngine::CheckSaturation() {
  if (!saturation_notified_ && options_.saturation_records > 0 &&
      store_.num_records() >= options_.saturation_records) {
    saturation_notified_ = true;
    selector_.OnSaturation();
  }
}

void CrawlEngine::FinishDrain(std::optional<Slot>& slot_box) {
  Slot& slot = *slot_box;
  slot.outcome.fetch_failures = slot.failures;
  selector_.OnQueryCompleted(slot.outcome);
  slot_box.reset();
  CheckSaturation();
}

CrawlResult CrawlEngine::MakeResult(StopReason reason) const {
  CrawlResult result = MakeCrawlResult(reason, rounds_used_, queries_issued_,
                                       store_.num_records(), trace_);
  result.rtt = server_.rtt_counters();
  return result;
}

Status CrawlEngine::CommitFetch(std::optional<Slot>& slot_box,
                                StatusOr<ResultPage> fetched) {
  Slot& slot = *slot_box;
  ++rounds_used_;
  if (!fetched.ok()) {
    switch (degradation_.OnFetchFailure(fetched.status(), slot.value,
                                        slot.failures, trace_.resilience())) {
      case DegradationTracker::FailureAction::kFailCrawl:
        return fetched.status();
      case DegradationTracker::FailureAction::kRetry:
        // The slot stays parked on the same page; the next wave
        // re-fetches it (and if the budget just expired, the top of
        // Run() parks the whole crawl, matching the serial mid-drain
        // park).
        return Status::OK();
      case DegradationTracker::FailureAction::kRequeue:
        slot.outcome.fetch_failures = slot.failures;
        slot.outcome.degraded = true;
        // Not completed: the selector is notified when the re-issued
        // drain finishes or the value is abandoned.
        slot_box.reset();
        CheckSaturation();
        return Status::OK();
      case DegradationTracker::FailureAction::kAbandon:
        slot.outcome.fetch_failures = slot.failures;
        slot.outcome.degraded = true;
        selector_.OnQueryCompleted(slot.outcome);
        slot_box.reset();
        CheckSaturation();
        return Status::OK();
    }
    return Status::Internal("unreachable");
  }

  const ResultPage& page = *fetched;
  for (const ReturnedRecord& record : page.records) {
    ++slot.outcome.records_returned;
    if (store_.ObserveIfStored(record.id)) continue;
    // Decompose first so the selector hears about new values before the
    // record-harvest notification (see QuerySelector contract).
    for (ValueId v : record.values) DiscoverValue(v);
    uint32_t store_slot = static_cast<uint32_t>(store_.num_records());
    bool added = store_.AddRecord(record.id, record.values);
    DEEPCRAWL_DCHECK(added) << "record dedup raced";
    (void)added;
    ++slot.outcome.new_records;
    selector_.OnRecordHarvested(store_slot);
  }
  ++slot.outcome.pages_fetched;
  wave_points_.push_back(TracePoint{rounds_used_, store_.num_records()});

  if (page.total_matches.has_value() && slot.next_page == 0) {
    slot.outcome.total_matches = page.total_matches;
  }

  if (!page.has_more) {
    FinishDrain(slot_box);
    return Status::OK();
  }
  if (options_.target_records > 0 &&
      store_.num_records() >= options_.target_records) {
    // Target reached mid-drain: complete the query (serial semantics);
    // the top of Run() reports kTargetReached.
    FinishDrain(slot_box);
    return Status::OK();
  }
  slot.next_page += 1;
  if (options_.max_rounds > 0 && rounds_used_ >= options_.max_rounds) {
    // Budget expired mid-drain: the slot stays parked (the serial
    // crawler's PendingDrain); the abort policy is deliberately not
    // consulted, matching the serial check order.
    return Status::OK();
  }
  if (abort_policy_ != nullptr) {
    QueryProgress progress;
    progress.page_size = server_.options().page_size;
    progress.total_matches = slot.outcome.total_matches;
    uint32_t total = page.total_matches.value_or(0);
    uint32_t limit = server_.options().result_limit;
    progress.retrievable = limit > 0 ? std::min(total, limit) : total;
    progress.pages_fetched = slot.outcome.pages_fetched;
    progress.records_returned = slot.outcome.records_returned;
    progress.new_records = slot.outcome.new_records;
    progress.has_more = true;
    if (!abort_policy_->ShouldContinue(progress)) {
      slot.outcome.aborted = true;
      FinishDrain(slot_box);
      return Status::OK();
    }
  }
  return Status::OK();
}

StatusOr<CrawlResult> CrawlEngine::Run() {
  for (;;) {
    if (wave_pos_ >= wave_.size()) {
      // Between waves: this is the engine's durable boundary. The wave
      // buffer is cleared BEFORE the checkpoint sink fires, so a
      // checkpoint image never contains a completed wave — a restored
      // engine re-enters here with an empty wave and neither re-commits
      // work nor re-fires the sink for the wave that triggered the save.
      bool wave_just_completed = !wave_.empty();
      wave_.clear();
      wave_pos_ = 0;
      if (wave_just_completed) {
        ++waves_completed_;
        if (engine_options_.checkpoint_every_waves > 0 &&
            engine_options_.checkpoint_sink != nullptr &&
            waves_completed_ % engine_options_.checkpoint_every_waves == 0) {
          Status saved = engine_options_.checkpoint_sink(*this);
          if (!saved.ok()) return saved;
        }
      }
      // Evaluate stop conditions (priority matches the historical serial
      // loop exactly — target, budget, frontier) and build the next
      // wave. While a wave is in progress these checks are deliberately
      // skipped: the wave is an atomic unit of the crawl order, so an
      // interrupted one must finish before anything else.
      if (options_.target_records > 0 &&
          store_.num_records() >= options_.target_records) {
        return MakeResult(StopReason::kTargetReached);
      }
      if (options_.max_rounds > 0 && rounds_used_ >= options_.max_rounds) {
        return MakeResult(StopReason::kRoundBudget);
      }

      // Refill: empty slots take the next frontier values in slot
      // order, so slot rank reflects selector rank for this wave.
      for (auto& slot_box : slots_) {
        if (slot_box.has_value()) continue;
        ValueId value = NextValue();
        if (value == kInvalidValueId) break;
        if (selector_.MaySelectUndiscovered()) {
          // Interface-driven selectors may issue a value before any
          // result page revealed it; record it as seen so every id the
          // crawl touched stays below seen_.size() (the checkpoint
          // id-validation bound). The value is entering Lqueried, so a
          // later sighting on a page must not re-announce it.
          if (value >= seen_.size()) {
            seen_.resize(static_cast<size_t>(value) + 1, 0);
          }
          seen_[value] = 1;
        }
        Slot slot;
        slot.value = value;
        slot.outcome.value = value;
        slot_box = std::move(slot);
        ++queries_issued_;
      }
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].has_value()) wave_.push_back(i);
      }
      if (wave_.empty()) return MakeResult(StopReason::kFrontierExhausted);
    }

    // The budget limits how much of the wave runs now; the unfetched
    // suffix stays queued in wave_ for the next Run() call.
    size_t slice = wave_.size() - wave_pos_;
    if (options_.max_rounds > 0) {
      uint64_t remaining = options_.max_rounds > rounds_used_
                               ? options_.max_rounds - rounds_used_
                               : 0;
      if (remaining == 0) return MakeResult(StopReason::kRoundBudget);
      slice = static_cast<size_t>(std::min<uint64_t>(slice, remaining));
    }

    // Fetch phase: one page per wave slot, through the executor. Each
    // fetch lands in its own rank-indexed cell, so execution order is
    // invisible to the commit phase. The request/result buffers are
    // members reused across waves; no executor mutates them
    // structurally while the wave runs.
    fetch_results_.clear();
    fetch_results_.resize(slice);
    fetch_requests_.clear();
    fetch_requests_.reserve(slice);
    for (size_t i = 0; i < slice; ++i) {
      const Slot& slot = *slots_[wave_[wave_pos_ + i]];
      fetch_requests_.push_back(FetchRequest{
          slot.value, slot.next_page, options_.use_keyword_interface});
    }
    executor_->FetchWave(server_, fetch_requests_, fetch_results_);

    // Commit phase: strictly by slot rank, never by completion order.
    wave_points_.clear();
    Status committed = Status::OK();
    for (size_t i = 0; i < slice; ++i) {
      committed = CommitFetch(slots_[wave_[wave_pos_]],
                              std::move(*fetch_results_[i]));
      ++wave_pos_;
      if (!committed.ok()) break;
    }
    trace_.AddWave(wave_points_);
    if (!committed.ok()) return committed;
  }
}

// --- checkpointing ----------------------------------------------------

namespace {

void SaveOutcome(CheckpointWriter& writer, const QueryOutcome& outcome) {
  writer.WriteU32(outcome.value);
  writer.WriteU8(outcome.total_matches.has_value() ? 1 : 0);
  writer.WriteU32(outcome.total_matches.value_or(0));
  writer.WriteU32(outcome.pages_fetched);
  writer.WriteU32(outcome.records_returned);
  writer.WriteU32(outcome.new_records);
  writer.WriteU8(outcome.aborted ? 1 : 0);
  writer.WriteU32(outcome.fetch_failures);
  writer.WriteU8(outcome.degraded ? 1 : 0);
}

QueryOutcome LoadOutcome(CheckpointReader& reader) {
  QueryOutcome outcome;
  outcome.value = reader.ReadU32();
  bool has_total = reader.ReadU8() != 0;
  uint32_t total = reader.ReadU32();
  if (has_total) outcome.total_matches = total;
  outcome.pages_fetched = reader.ReadU32();
  outcome.records_returned = reader.ReadU32();
  outcome.new_records = reader.ReadU32();
  outcome.aborted = reader.ReadU8() != 0;
  outcome.fetch_failures = reader.ReadU32();
  outcome.degraded = reader.ReadU8() != 0;
  return outcome;
}

}  // namespace

Status CrawlEngine::SaveState(CheckpointWriter& writer) const {
  // CONFIG: the construction fingerprint, verified on load before any
  // state is touched. `threads` is deliberately absent — it is
  // wall-clock only, so a checkpoint may be resumed at any thread count.
  WriteSectionMarker(writer, kSectionConfig);
  writer.WriteU32(engine_options_.batch);
  writer.WriteU8(options_.use_keyword_interface ? 1 : 0);
  writer.WriteString(selector_.name());
  writer.WriteU64(options_.max_rounds);
  writer.WriteU64(options_.target_records);
  writer.WriteU64(options_.saturation_records);

  // ENGINE: the wave loop's own state.
  WriteSectionMarker(writer, kSectionEngine);
  writer.WriteU64(rounds_used_);
  writer.WriteU64(queries_issued_);
  writer.WriteU64(waves_completed_);
  writer.WriteU64(clock_.now());
  writer.WriteU8(saturation_notified_ ? 1 : 0);
  writer.WriteString(std::string_view(seen_.data(), seen_.size()));
  writer.WriteU64(trace_.points().size());
  for (const TracePoint& point : trace_.points()) {
    writer.WriteU64(point.rounds);
    writer.WriteU64(point.records);
  }
  const ResilienceCounters& res = trace_.resilience();
  writer.WriteU64(res.transient_failures);
  writer.WriteU64(res.retries);
  writer.WriteU64(res.backoff_ticks);
  writer.WriteU64(res.requeues);
  writer.WriteU64(res.abandoned_values);
  writer.WriteU64(res.degraded_queries);
  writer.WriteU64(res.rate_limit_rejections);
  writer.WriteU64(res.max_retry_after_hint);
  degradation_.SaveState(writer);
  for (const auto& slot_box : slots_) {
    writer.WriteU8(slot_box.has_value() ? 1 : 0);
    if (!slot_box.has_value()) continue;
    writer.WriteU32(slot_box->value);
    writer.WriteU32(slot_box->next_page);
    writer.WriteU32(slot_box->failures);
    SaveOutcome(writer, slot_box->outcome);
  }
  writer.WriteU64(wave_.size());
  for (size_t index : wave_) writer.WriteU64(index);
  writer.WriteU64(wave_pos_);

  // STORE, in logical replay form: original id, observation count, and
  // values per record, in harvest order. AddRecord/RestoreObservations
  // rebuild the postings arena, edge hash, degree counters and record-id
  // map exactly, because all of them are pure functions of the add
  // sequence.
  WriteSectionMarker(writer, kSectionStore);
  writer.WriteU64(store_.num_records());
  for (uint32_t slot = 0; slot < store_.num_records(); ++slot) {
    writer.WriteU32(store_.OriginalRecordId(slot));
    writer.WriteU32(store_.ObservationCount(slot));
    std::span<const ValueId> values = store_.RecordValues(slot);
    writer.WriteU32(static_cast<uint32_t>(values.size()));
    for (ValueId v : values) writer.WriteU32(v);
  }
  writer.WriteU64(store_.num_observations());

  // SELECTOR: the policy serializes itself (oracle/domain policies
  // reject with a clean FailedPrecondition).
  WriteSectionMarker(writer, kSectionSelector);
  return selector_.SaveState(writer);
}

Status CrawlEngine::LoadState(CheckpointReader& reader) {
  if (rounds_used_ != 0 || store_.num_records() != 0 || !trace_.empty() ||
      !seen_.empty()) {
    return Status::FailedPrecondition(
        "checkpoint restore requires a freshly constructed engine "
        "(empty store, no rounds used)");
  }

  if (!ExpectSectionMarker(reader, kSectionConfig, "CONF")) {
    return reader.status();
  }
  uint32_t batch = reader.ReadU32();
  bool keyword = reader.ReadU8() != 0;
  std::string selector_name = reader.ReadString();
  uint64_t max_rounds = reader.ReadU64();
  uint64_t target_records = reader.ReadU64();
  uint64_t saturation_records = reader.ReadU64();
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());
  if (batch != engine_options_.batch) {
    return Status::InvalidArgument(
        "checkpoint batch mismatch: file has batch=" + std::to_string(batch) +
        ", engine was built with batch=" +
        std::to_string(engine_options_.batch) +
        " (batch is semantic; resume with the same value)");
  }
  if (keyword != options_.use_keyword_interface) {
    return Status::InvalidArgument(
        "checkpoint interface mismatch: keyword mode differs from the "
        "checkpointing run");
  }
  if (selector_name != selector_.name()) {
    return Status::InvalidArgument(
        "checkpoint selector mismatch: file was written by policy '" +
        selector_name + "', engine runs policy '" +
        std::string(selector_.name()) + "'");
  }
  options_.max_rounds = max_rounds;
  options_.target_records = target_records;
  options_.saturation_records = saturation_records;

  if (!ExpectSectionMarker(reader, kSectionEngine, "ENGI")) {
    return reader.status();
  }
  rounds_used_ = reader.ReadU64();
  queries_issued_ = reader.ReadU64();
  waves_completed_ = reader.ReadU64();
  uint64_t clock_now = reader.ReadU64();
  saturation_notified_ = reader.ReadU8() != 0;
  std::string seen_bytes = reader.ReadString();
  if (seen_bytes.find_first_not_of(std::string_view("\0\1", 2)) !=
      std::string::npos) {
    reader.MarkCorrupt("seen bitmap byte is neither 0 nor 1");
  }
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());
  clock_.set_now(clock_now);
  seen_.assign(seen_bytes.begin(), seen_bytes.end());
  // Every value id a crawl ever touched went through DiscoverValue, so
  // the seen bitmap bounds every id in the sections below — the bound
  // that keeps a forged id from driving a giant table resize.
  ValueId value_bound = static_cast<ValueId>(seen_.size());

  uint64_t num_points = reader.ReadCount(16);
  uint64_t last_rounds = 0;
  uint64_t last_records = 0;
  for (uint64_t i = 0; i < num_points && reader.ok(); ++i) {
    uint64_t rounds = reader.ReadU64();
    uint64_t records = reader.ReadU64();
    // Stored points are collapsed (strictly increasing rounds), so the
    // replay below reproduces the exact points vector.
    if (i > 0 && (rounds <= last_rounds || records < last_records)) {
      reader.MarkCorrupt("trace points not monotone");
      break;
    }
    last_rounds = rounds;
    last_records = records;
    trace_.Add(rounds, records);
  }
  ResilienceCounters& res = trace_.resilience();
  res.transient_failures = reader.ReadU64();
  res.retries = reader.ReadU64();
  res.backoff_ticks = reader.ReadU64();
  res.requeues = reader.ReadU64();
  res.abandoned_values = reader.ReadU64();
  res.degraded_queries = reader.ReadU64();
  res.rate_limit_rejections = reader.ReadU64();
  res.max_retry_after_hint = reader.ReadU64();
  DEEPCRAWL_RETURN_IF_ERROR(degradation_.LoadState(reader, value_bound));
  for (auto& slot_box : slots_) {
    bool present = reader.ReadU8() != 0;
    if (!reader.ok()) break;
    if (!present) {
      slot_box.reset();
      continue;
    }
    Slot slot;
    slot.value = reader.ReadU32();
    slot.next_page = reader.ReadU32();
    slot.failures = reader.ReadU32();
    slot.outcome = LoadOutcome(reader);
    if (slot.value >= value_bound) {
      reader.MarkCorrupt("slot value id out of range");
      break;
    }
    slot_box = std::move(slot);
  }
  wave_.clear();
  uint64_t wave_size = reader.ReadCount(8);
  for (uint64_t i = 0; i < wave_size && reader.ok(); ++i) {
    uint64_t index = reader.ReadU64();
    if (index >= slots_.size() || !slots_[index].has_value() ||
        (!wave_.empty() && index <= wave_.back())) {
      reader.MarkCorrupt("wave slot index invalid");
      break;
    }
    wave_.push_back(static_cast<size_t>(index));
  }
  uint64_t wave_pos = reader.ReadU64();
  if (reader.ok() && wave_pos > wave_.size()) {
    reader.MarkCorrupt("wave position past the wave's end");
  }
  wave_pos_ = static_cast<size_t>(wave_pos);
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());

  if (!ExpectSectionMarker(reader, kSectionStore, "STOR")) {
    return reader.status();
  }
  uint64_t num_records = reader.ReadCount(16);
  std::vector<ValueId> values;
  for (uint64_t i = 0; i < num_records && reader.ok(); ++i) {
    RecordId id = reader.ReadU32();
    uint32_t observations = reader.ReadU32();
    uint32_t num_values = reader.ReadU32();
    if (!reader.ok()) break;
    if (observations == 0) {
      reader.MarkCorrupt("record with zero observations");
      break;
    }
    if (num_values == 0 ||
        static_cast<uint64_t>(num_values) * 4 > reader.remaining()) {
      reader.MarkCorrupt("record value count invalid");
      break;
    }
    values.clear();
    values.reserve(num_values);
    for (uint32_t j = 0; j < num_values; ++j) {
      ValueId v = reader.ReadU32();
      if (v >= value_bound) {
        reader.MarkCorrupt("record value id out of range");
        break;
      }
      values.push_back(v);
    }
    if (!reader.ok()) break;
    if (store_.ContainsRecord(id)) {
      reader.MarkCorrupt("duplicate record id in store section");
      break;
    }
    store_.AddRecord(id, values);
    // Restore the duplicate-observation counter directly rather than
    // replaying ObserveIfStored N times: the count is attacker-visible
    // data, and a forged value must cost O(1), not O(N) replay work.
    store_.RestoreObservations(id, observations);
  }
  uint64_t expected_observations = reader.ReadU64();
  if (reader.ok() && expected_observations != store_.num_observations()) {
    reader.MarkCorrupt("store observation total does not add up");
  }
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());

  // SELC after STOR: selectors rebuild derived state (the greedy degree
  // heap) from the restored store's statistics.
  if (!ExpectSectionMarker(reader, kSectionSelector, "SELC")) {
    return reader.status();
  }
  return selector_.LoadState(reader, value_bound);
}

}  // namespace deepcrawl
