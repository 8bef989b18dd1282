#include "src/crawler/crawl_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/crawler/checkpoint.h"
#include "src/util/checkpoint_io.h"
#include "src/util/flat_hash.h"
#include "src/util/logging.h"

namespace deepcrawl {

// Reads a checkpoint's LOG section entry by entry during a replay.
// Every count is checked against the bytes behind it, every value id
// against the source's catalog, and every record against the ones
// declared before it, so a forged log yields a clean error and never an
// allocation larger than the catalog.
class CrawlEngine::Replay {
 public:
  // `max_rounds` and `target_records` are the CONF budgets, restored
  // when the replay ends.
  Replay(const CrawlEngine& engine, CheckpointReader& reader,
         uint64_t max_rounds, uint64_t target_records)
      : max_rounds(max_rounds),
        target_records(target_records),
        engine_(engine),
        reader_(reader),
        value_bound_(engine.server_.num_values()),
        page_size_(engine.server_.options().page_size) {}

  const uint64_t max_rounds;
  const uint64_t target_records;

  CheckpointReader& reader() { return reader_; }
  // Entries consumed so far.
  uint64_t taken() const { return taken_; }
  Status status() const { return status_.ok() ? reader_.status() : status_; }

  // The next entry's tag, without consuming it (0 once reading failed).
  // A seed's or a Run()'s fields are read with the tag, into mark().
  uint8_t Peek() {
    if (!has_tag_) {
      tag_ = reader_.ReadU8();
      has_tag_ = true;
      mark_ = LogMark{.kind = tag_};
      if (tag_ == kLogSeed) mark_.seed = ReadValue();
      if (tag_ == kLogRun) {
        mark_.max_rounds = reader_.ReadU64();
        mark_.target_records = reader_.ReadU64();
      }
    }
    return reader_.ok() ? tag_ : 0;
  }
  const LogMark& mark() const { return mark_; }
  void Take() {
    has_tag_ = false;
    ++taken_;
  }

  // Consumes the next entry, which must be `call`: a seed the replayed
  // caller planted, or the budgets of a Run() it made.
  void Expect(const LogMark& call) {
    if (!status().ok()) return;
    const uint8_t tag = Peek();
    if (!reader_.ok()) return;
    if (mark_ == call) {
      Take();
      return;
    }
    const bool is_mark = tag == kLogSeed || tag == kLogRun;
    Diverge("the caller makes " + Describe(call) + ", the log " +
            (is_mark ? "has " + Describe(mark_) : "has no such entry here"));
  }

  // Consumes a cut when it is the next entry.
  bool TakeCut() {
    if (!status_.ok() || Peek() != kLogCut) return false;
    Take();
    return true;
  }

  ValueId ReadValue() {
    const uint64_t v = reader_.ReadVarint();
    if (reader_.ok() && v >= value_bound_) {
      reader_.MarkCorrupt("logged value id " + std::to_string(v) +
                          " is outside the source's catalog of " +
                          std::to_string(value_bound_) + " values");
    }
    return static_cast<ValueId>(v);
  }

  // A varint that must fit 32 bits (a total, a hint, a record id).
  uint32_t ReadU32Varint(const char* what) {
    const uint64_t v = reader_.ReadVarint();
    if (reader_.ok() && v > UINT32_MAX) {
      reader_.MarkCorrupt(std::string("logged ") + what + " out of range");
    }
    return static_cast<uint32_t>(v);
  }

  // The log must end here, at the engine's totals.
  Status Finish();

  // Fails the replay (the first failure wins) and returns the failure.
  Status Diverge(const std::string& detail) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument(
          "replay diverged at fetch " + std::to_string(fetches_) + " (wave " +
          std::to_string(engine_.waves_completed_) + "): " + detail);
    }
    return status_;
  }

  // The logged result of the next fetch, which must be `request`. The
  // page's record values stay valid until the next call. A failure
  // comes back as a status the engine never retries, so the replayed
  // Run() stops at once.
  StatusOr<ResultPage> Serve(const FetchRequest& request);

 private:
  static std::string Describe(const LogMark& mark) {
    if (mark.kind == kLogSeed) return "seed " + std::to_string(mark.seed);
    return "a Run() to " + std::to_string(mark.max_rounds) + " rounds and " +
           std::to_string(mark.target_records) + " records";
  }

  const CrawlEngine& engine_;
  CheckpointReader& reader_;
  const ValueId value_bound_;
  const uint32_t page_size_;
  bool has_tag_ = false;
  uint8_t tag_ = 0;
  LogMark mark_;
  uint64_t taken_ = 0;
  uint64_t fetches_ = 0;
  Status status_;
  // id + 1 of every record the log declared new so far.
  FlatSet64 declared_;
  // The current page's new-record values, and each record's offset.
  std::vector<ValueId> values_;
  std::vector<size_t> offsets_;
};

StatusOr<ResultPage> CrawlEngine::Replay::Serve(const FetchRequest& request) {
  if (!status().ok()) return status();
  auto diverge = [&](const std::string& logged) {
    return Diverge("the crawl asks for value " +
                   std::to_string(request.value) + " page " +
                   std::to_string(request.page_number) + ", " + logged);
  };
  const uint8_t tag = Peek();
  if (!reader_.ok()) return status();
  if (tag != kLogPage && tag != kLogFailure) {
    return diverge("the log has no fetch here");
  }
  Take();
  const uint64_t logged = reader_.ReadVarint();
  if (!reader_.ok()) return status();
  if (logged != request.value) {
    return diverge("the log fetched value " + std::to_string(logged));
  }
  ++fetches_;

  if (tag == kLogFailure) {
    const uint8_t code = reader_.ReadU8();
    const uint8_t flags = reader_.ReadU8();
    const uint32_t hint = (flags & kLogHasHint) ? ReadU32Varint("hint") : 0;
    if (reader_.ok() &&
        (code == 0 ||
         code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded) ||
         (flags & ~kLogHasHint) != 0)) {
      reader_.MarkCorrupt("logged fetch failure invalid");
    }
    if (!reader_.ok()) return status();
    Status failure(static_cast<StatusCode>(code), "logged fetch failure");
    if (flags & kLogHasHint) return failure.WithRetryAfter(hint);
    return failure;
  }

  const uint8_t flags = reader_.ReadU8();
  const uint32_t total = (flags & kLogHasTotal) ? ReadU32Varint("total") : 0;
  if (reader_.ok() && (flags & ~(kLogHasMore | kLogHasTotal)) != 0) {
    reader_.MarkCorrupt("logged page flags invalid");
  }
  const uint64_t num_records = reader_.ReadVarintCount(1);
  if (reader_.ok() && num_records > page_size_) {
    reader_.MarkCorrupt("logged page holds more records than the source's "
                        "page size");
  }
  if (!reader_.ok()) return status();
  ResultPage page;
  page.page_number = request.page_number;
  page.has_more = (flags & kLogHasMore) != 0;
  if (flags & kLogHasTotal) page.total_matches = total;
  page.records.resize(static_cast<size_t>(num_records));
  values_.clear();
  offsets_.clear();
  for (ReturnedRecord& record : page.records) {
    // The record id, shifted left, with kRecordNew or kRecordRepeat in
    // the low bit.
    const uint64_t key = reader_.ReadVarint();
    record.id = static_cast<RecordId>(key >> 1);
    offsets_.push_back(values_.size());
    if (reader_.ok() && (key >> 1) >= kInvalidRecordId) {
      reader_.MarkCorrupt("logged record id out of range");
    }
    if (!reader_.ok()) break;
    if ((key & 1) == kRecordRepeat) {
      if (!declared_.Contains(uint64_t{record.id} + 1)) {
        reader_.MarkCorrupt("logged repeat of record " +
                            std::to_string(record.id) +
                            ", which was never stored");
        break;
      }
      continue;
    }
    if (!declared_.Insert(uint64_t{record.id} + 1)) {
      reader_.MarkCorrupt("logged record " + std::to_string(record.id) +
                          " declared new twice");
      break;
    }
    const uint64_t num_values = reader_.ReadVarintCount(1);
    if (reader_.ok() && num_values == 0) {
      reader_.MarkCorrupt("logged record without values");
    }
    for (uint64_t i = 0; i < num_values && reader_.ok(); ++i) {
      values_.push_back(ReadValue());
    }
  }
  if (!reader_.ok()) return status();
  offsets_.push_back(values_.size());
  for (size_t i = 0; i < page.records.size(); ++i) {
    page.records[i].values = std::span<const ValueId>(
        values_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }
  return page;
}

Status CrawlEngine::Replay::Finish() {
  if (Peek() != kLogEnd) {
    DEEPCRAWL_RETURN_IF_ERROR(status());
    return Diverge("the log holds entries past where the replay stops");
  }
  Take();
  const uint64_t rounds = reader_.ReadU64();
  const uint64_t waves = reader_.ReadU64();
  const uint64_t records = reader_.ReadU64();
  DEEPCRAWL_RETURN_IF_ERROR(status());
  const uint64_t num_records = engine_.store_.num_records();
  if (rounds != engine_.rounds_used_ || waves != engine_.waves_completed_ ||
      records != num_records) {
    return Diverge("the replay ends at " +
                   std::to_string(engine_.rounds_used_) + " rounds, " +
                   std::to_string(engine_.waves_completed_) + " waves and " +
                   std::to_string(num_records) + " records, the log at " +
                   std::to_string(rounds) + ", " + std::to_string(waves) +
                   " and " + std::to_string(records));
  }
  return Status::OK();
}

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

CrawlEngine::FailureAction CrawlEngine::OnFetchFailure(const Status& failure,
                                                       ValueId value,
                                                       uint32_t& failures) {
  if (retry_policy_ == nullptr || !RetryPolicy::IsRetryable(failure)) {
    return FailureAction::kFailCrawl;
  }
  ResilienceCounters& resilience = trace_.resilience();
  ++failures;
  ++resilience.transient_failures;
  if (failure.retry_after_rounds().has_value()) {
    ++resilience.rate_limit_rejections;
    resilience.max_retry_after_hint = std::max<uint64_t>(
        resilience.max_retry_after_hint, *failure.retry_after_rounds());
  }
  if (!retry_policy_->ShouldRetry(failure, failures)) {
    // Retry budget exhausted: degrade gracefully — re-queue the value at
    // the frontier tail a bounded number of times, then abandon it. The
    // retry-after floor still binds the *source* even though this value's
    // drain is over: charge it as backoff, or the very next fetch would
    // land before the server's advertised earliest-retry time.
    resilience.backoff_ticks += retry_policy_->FloorTicks(failure);
    ++resilience.degraded_queries;
    uint32_t& requeues = requeue_count_[value];
    if (requeues < retry_policy_->config().max_requeues) {
      ++requeues;
      ++resilience.requeues;
      retry_queue_.push_back(value);
      return FailureAction::kRequeue;
    }
    ++resilience.abandoned_values;
    return FailureAction::kAbandon;
  }
  resilience.backoff_ticks +=
      retry_policy_->BackoffTicks(failure, failures, value);
  ++resilience.retries;
  return FailureAction::kRetry;
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
      executor_(engine_options_.shared_executor != nullptr
                    ? engine_options_.shared_executor
                    : &inline_executor_) {
  DEEPCRAWL_CHECK(engine_options_.batch >= 1) << "need >= 1 drain slot";
  slots_.resize(engine_options_.batch);
}

CrawlEngine::~CrawlEngine() = default;

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

void CrawlEngine::AddSeed(ValueId v) {
  seeds_.push_back(v);
  log_.WriteU8(kLogSeed);
  log_.WriteVarint(v);
  if (replay_ != nullptr) replay_->Expect(LogMark{.kind = kLogSeed, .seed = v});
  DiscoverValue(v);
}

void CrawlEngine::LogRunEntry() {
  // Resuming an interrupted Run(): the cut tells a replay to stop the
  // earlier Run() at this boundary, where it stopped.
  if (boundary_open_) log_.WriteU8(kLogCut);
  const LogMark run{.kind = kLogRun,
                    .max_rounds = options_.max_rounds,
                    .target_records = options_.target_records};
  if (run == last_run_) return;
  last_run_ = run;
  log_.WriteU8(kLogRun);
  log_.WriteU64(run.max_rounds);
  log_.WriteU64(run.target_records);
  if (replay_ != nullptr) replay_->Expect(run);
}

ValueId CrawlEngine::NextValue() {
  ValueId value = selector_.SelectNext();
  if (value != kInvalidValueId) return value;
  // Re-queued values wait at the frontier tail: they only come up once
  // the selector has nothing better.
  if (retry_queue_.empty()) return kInvalidValueId;
  ValueId retry = retry_queue_.front();
  retry_queue_.pop_front();
  return retry;
}

void CrawlEngine::NotifySaturationOnce() {
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
  NotifySaturationOnce();
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
    const std::optional<uint32_t> hint = fetched.status().retry_after_rounds();
    log_.WriteU8(kLogFailure);
    log_.WriteVarint(slot.value);
    log_.WriteU8(static_cast<uint8_t>(fetched.status().code()));
    log_.WriteU8(hint.has_value() ? kLogHasHint : 0);
    if (hint.has_value()) log_.WriteVarint(*hint);
    switch (OnFetchFailure(fetched.status(), slot.value, slot.failures)) {
      case FailureAction::kFailCrawl:
        return fetched.status();
      case FailureAction::kRetry:
        // The slot stays parked on the same page; the next wave
        // re-fetches it (and if the budget just expired, the top of
        // Run() parks the whole crawl, matching the serial mid-drain
        // park).
        return Status::OK();
      case FailureAction::kRequeue:
        slot.outcome.fetch_failures = slot.failures;
        slot.outcome.degraded = true;
        // Not completed: the selector is notified when the re-issued
        // drain finishes or the value is abandoned.
        slot_box.reset();
        NotifySaturationOnce();
        return Status::OK();
      case FailureAction::kAbandon:
        slot.outcome.fetch_failures = slot.failures;
        slot.outcome.degraded = true;
        selector_.OnQueryCompleted(slot.outcome);
        slot_box.reset();
        NotifySaturationOnce();
        return Status::OK();
    }
    return Status::Internal("unreachable");
  }

  const ResultPage& page = *fetched;
  log_.WriteU8(kLogPage);
  log_.WriteVarint(slot.value);
  log_.WriteU8(static_cast<uint8_t>(
      (page.has_more ? kLogHasMore : 0) |
      (page.total_matches.has_value() ? kLogHasTotal : 0)));
  if (page.total_matches.has_value()) log_.WriteVarint(*page.total_matches);
  log_.WriteVarint(page.records.size());
  for (const ReturnedRecord& record : page.records) {
    ++slot.outcome.records_returned;
    const uint64_t key = uint64_t{record.id} << 1;
    if (store_.ObserveIfStored(record.id)) {
      log_.WriteVarint(key | kRecordRepeat);
      continue;
    }
    // The record's first occurrence: the log carries its values.
    log_.WriteVarint(key | kRecordNew);
    log_.WriteVarint(record.values.size());
    for (ValueId v : record.values) log_.WriteVarint(v);
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
  DEEPCRAWL_ASSIGN_OR_RETURN(StopReason reason, RunToStop());
  return MakeResult(reason);
}

StatusOr<StopReason> CrawlEngine::RunToStop() {
  LogRunEntry();
  if (replay_ != nullptr) DEEPCRAWL_RETURN_IF_ERROR(replay_->status());
  for (;;) {
    if (wave_pos_ >= wave_.size()) {
      // Between waves: this is the engine's durable boundary. The wave
      // buffer is cleared BEFORE the checkpoint sink fires, so a
      // restored engine re-enters here with an empty wave and neither
      // re-commits work nor re-fires the sink for the wave that
      // triggered the save.
      bool wave_just_completed = !wave_.empty();
      wave_.clear();
      wave_pos_ = 0;
      if (wave_just_completed) {
        ++waves_completed_;
        boundary_open_ = true;
        if (replay_ != nullptr) {
          // The log was saved (or its Run() interrupted) right here:
          // stop where the saved engine stood, before the stop checks
          // and the next refill's SelectNext.
          if (replay_->TakeCut()) return StopReason::kRoundBudget;
        } else if (engine_options_.checkpoint_every_waves > 0 &&
                   engine_options_.checkpoint_sink != nullptr &&
                   waves_completed_ %
                           engine_options_.checkpoint_every_waves ==
                       0) {
          Status saved = engine_options_.checkpoint_sink(*this);
          if (!saved.ok()) return saved;
        }
      }
      boundary_open_ = false;
      // Evaluate stop conditions (priority matches the historical serial
      // loop exactly — target, budget, frontier) and build the next
      // wave. While a wave is in progress these checks are deliberately
      // skipped: the wave is an atomic unit of the crawl order, so an
      // interrupted one must finish before anything else.
      if (options_.target_records > 0 &&
          store_.num_records() >= options_.target_records) {
        return StopReason::kTargetReached;
      }
      if (options_.max_rounds > 0 && rounds_used_ >= options_.max_rounds) {
        return StopReason::kRoundBudget;
      }

      // Refill: empty slots take the next frontier values in slot
      // order, so slot rank reflects selector rank for this wave.
      for (auto& slot_box : slots_) {
        if (slot_box.has_value()) continue;
        ValueId value = NextValue();
        if (value == kInvalidValueId) break;
        if (selector_.MaySelectUndiscovered()) {
          // Interface-driven selectors may issue a value before any
          // result page revealed it. The value is entering Lqueried, so
          // a later sighting on a page must not re-announce it.
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
      if (wave_.empty()) return StopReason::kFrontierExhausted;
    }

    // The budget limits how much of the wave runs now; the unfetched
    // suffix stays queued in wave_ for the next Run() call.
    size_t slice = wave_.size() - wave_pos_;
    if (options_.max_rounds > 0) {
      uint64_t remaining = options_.max_rounds > rounds_used_
                               ? options_.max_rounds - rounds_used_
                               : 0;
      if (remaining == 0) return StopReason::kRoundBudget;
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
    // A replay serves each fetch from the log as it is committed: a
    // commit that fails the crawl leaves the rest of the wave unread, as
    // the saved engine never logged it.
    if (replay_ == nullptr) {
      executor_->FetchWave(server_, fetch_requests_, fetch_results_);
    }

    // Commit phase: strictly by slot rank, never by completion order.
    wave_points_.clear();
    Status committed = Status::OK();
    for (size_t i = 0; i < slice; ++i) {
      committed = CommitFetch(slots_[wave_[wave_pos_]],
                              replay_ != nullptr
                                  ? replay_->Serve(fetch_requests_[i])
                                  : std::move(*fetch_results_[i]));
      ++wave_pos_;
      if (!committed.ok()) break;
    }
    trace_.AddWave(wave_points_);
    if (!committed.ok()) return committed;
  }
}

// --- checkpointing ----------------------------------------------------

void CrawlEngine::SaveState(CheckpointWriter& writer) const {
  // CONFIG: the construction fingerprint, verified on load before the
  // replay starts. The executor is deliberately absent — it is
  // wall-clock only, so a TCP crawl's checkpoint may be resumed
  // in-process and vice versa.
  WriteSectionMarker(writer, kSectionConfig);
  writer.WriteU32(engine_options_.batch);
  writer.WriteU8(options_.use_keyword_interface ? 1 : 0);
  writer.WriteString(selector_.name());
  writer.WriteU64(options_.max_rounds);
  writer.WriteU64(options_.target_records);
  writer.WriteU64(options_.saturation_records);

  // LOG: the held entries, then the cut a Run() interrupted here would
  // log on resuming, then the end entry.
  WriteSectionMarker(writer, kSectionLog);
  writer.WriteRaw(log_.buffer());
  if (boundary_open_) writer.WriteU8(kLogCut);
  writer.WriteU8(kLogEnd);
  writer.WriteU64(rounds_used_);
  writer.WriteU64(waves_completed_);
  writer.WriteU64(store_.num_records());
}

Status CrawlEngine::BeginReplay(CheckpointReader& reader) {
  if (replay_ != nullptr || rounds_used_ != 0 || store_.num_records() != 0 ||
      !trace_.empty() || !seen_.empty() || log_bytes() != 0) {
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
  if (saturation_records != options_.saturation_records) {
    return Status::InvalidArgument(
        "checkpoint saturation mismatch: file has saturation_records=" +
        std::to_string(saturation_records) + ", engine was built with " +
        std::to_string(options_.saturation_records));
  }

  // LOG: replayed through AddSeed and Run(). The checkpoint sink stays
  // silent and no fetch reaches the server.
  if (!ExpectSectionMarker(reader, kSectionLog, "LOG ")) {
    return reader.status();
  }
  replay_ = std::make_unique<Replay>(*this, reader, max_rounds,
                                     target_records);
  return Status::OK();
}

Status CrawlEngine::EndReplay() {
  if (replay_ == nullptr) {
    return Status::FailedPrecondition("no checkpoint replay in progress");
  }
  Status finished = replay_->Finish();
  options_.max_rounds = replay_->max_rounds;
  options_.target_records = replay_->target_records;
  replay_.reset();
  return finished;
}

Status CrawlEngine::ReplayLog() {
  Replay& replay = *replay_;
  for (;;) {
    const uint8_t tag = replay.Peek();
    DEEPCRAWL_RETURN_IF_ERROR(replay.status());
    const uint64_t taken = replay.taken();
    switch (tag) {
      case kLogEnd:
        return Status::OK();
      case kLogSeed:
        AddSeed(replay.mark().seed);
        break;
      case kLogRun:
        options_.max_rounds = replay.mark().max_rounds;
        options_.target_records = replay.mark().target_records;
        [[fallthrough]];
      case kLogPage:
      case kLogFailure:
        // A fetch with no Run() entry before it: the caller ran again
        // under unchanged budgets. A Run() that fails the crawl replays a
        // logged failure; only the replay's own status says whether the
        // log holds.
        (void)RunToStop();
        break;
      default:
        replay.reader().MarkCorrupt("fetch-log entry out of place");
        return replay.status();
    }
    DEEPCRAWL_RETURN_IF_ERROR(replay.status());
    if (replay.taken() == taken) {
      return replay.Diverge("the crawl stops before the logged entry");
    }
  }
}

Status CrawlEngine::LoadState(CheckpointReader& reader) {
  DEEPCRAWL_RETURN_IF_ERROR(BeginReplay(reader));
  Status replayed = ReplayLog();
  Status ended = EndReplay();
  return replayed.ok() ? ended : replayed;
}

}  // namespace deepcrawl
