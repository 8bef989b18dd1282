#include "src/server/faulty_server.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/util/checkpoint_io.h"
#include "src/util/logging.h"

namespace deepcrawl {

namespace {

// SplitMix64 finalizer (same construction as the retry-jitter hash):
// stateless, so keyed fault decisions depend only on their inputs.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Query-identity key. The leading tag separates the two fetch forms so
// FetchPage(v) and FetchPageKeywordOf(v) draw independent fault streams;
// the tags (1 and 5) are fixed, so keyed fault streams never change.
uint64_t KeyOfValue(uint64_t tag, ValueId value) {
  return Mix64((tag << 56) ^ value);
}

}  // namespace

FaultyServer::FaultyServer(QueryInterface& inner, FaultProfile profile,
                           uint64_t seed)
    : inner_(inner), profile_(profile), seed_(seed), rng_(seed) {
  double sum = profile_.unavailable_rate + profile_.timeout_rate +
               profile_.rate_limit_rate + profile_.truncate_rate +
               profile_.duplicate_rate;
  DEEPCRAWL_CHECK(sum <= 1.0 + 1e-9) << "fault rates sum to " << sum;
  DEEPCRAWL_CHECK(profile_.unavailable_rate >= 0.0 &&
                  profile_.timeout_rate >= 0.0 &&
                  profile_.rate_limit_rate >= 0.0 &&
                  profile_.truncate_rate >= 0.0 &&
                  profile_.duplicate_rate >= 0.0)
      << "fault rates must be non-negative";
}

void FaultyServer::set_schedule(FaultSchedule schedule) {
  schedule_ = std::move(schedule);
  schedule_pos_ = 0;
}

uint64_t FaultyServer::DeriveSourceSeed(uint64_t fleet_seed,
                                        uint32_t source_id) {
  // The source_id-th output of a SplitMix64 generator seeded with
  // fleet_seed: state after source_id increments, finalized. Stateless
  // per pair, so no source's seed depends on any other source existing.
  return Mix64(fleet_seed +
               0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(source_id));
}

FaultAction FaultyServer::NextAction(uint64_t query_key,
                                     uint32_t page_number) {
  // The chaos override wins over everything and draws nothing: engaging
  // or clearing it mid-crawl leaves the schedule cursor, RNG, and keyed
  // attempt table exactly where they were.
  if (forced_action_.has_value()) return *forced_action_;
  if (schedule_pos_ < schedule_.size()) return schedule_[schedule_pos_++];
  if (profile_.IsAllZero()) return FaultAction::kNone;
  double u;
  if (keyed_) {
    // Keyed draw: a pure function of (seed, query, page, attempt) —
    // identical for the same logical fetch no matter the arrival order.
    uint64_t page_key =
        Mix64(query_key ^ (static_cast<uint64_t>(page_number) << 32));
    uint32_t attempt = ++keyed_attempts_[page_key];
    uint64_t h = Mix64(seed_ ^ Mix64(page_key ^ attempt));
    u = static_cast<double>(h >> 11) * 0x1.0p-53;
  } else {
    // One uniform draw per fetch keeps the decision sequence a pure
    // function of (seed, call index), independent of which fault fires.
    u = rng_.NextDouble();
  }
  double threshold = profile_.unavailable_rate;
  if (u < threshold) return FaultAction::kUnavailable;
  threshold += profile_.timeout_rate;
  if (u < threshold) return FaultAction::kTimeout;
  threshold += profile_.rate_limit_rate;
  if (u < threshold) return FaultAction::kRateLimit;
  threshold += profile_.truncate_rate;
  if (u < threshold) return FaultAction::kTruncate;
  threshold += profile_.duplicate_rate;
  if (u < threshold) return FaultAction::kDuplicate;
  return FaultAction::kNone;
}

Status FaultyServer::InjectFailure(FaultAction action, uint32_t page_number) {
  // The rejected round trip still happened: charge it here, because the
  // backend never saw the call.
  ++injected_failure_rounds_;
  if (page_number == 0) ++injected_failure_queries_;
  switch (action) {
    case FaultAction::kUnavailable:
      ++counters_.unavailable;
      return Status::Unavailable("source temporarily unavailable");
    case FaultAction::kTimeout:
      ++counters_.timeouts;
      return Status::DeadlineExceeded("page fetch timed out");
    case FaultAction::kRateLimit:
      ++counters_.rate_limited;
      return Status::ResourceExhausted("rate limited")
          .WithRetryAfter(profile_.retry_after_rounds);
    default:
      break;
  }
  DEEPCRAWL_CHECK(false) << "not a failure action";
  return Status::Internal("unreachable");
}

void FaultyServer::MutatePage(FaultAction action, ResultPage& page) {
  if (action == FaultAction::kTruncate) {
    // Silently drop the trailing half of the page (at least one record).
    // `has_more` is left untouched: the client cannot tell the listing
    // was short, exactly like a flaky real-world result page.
    if (page.records.empty()) return;
    size_t drop = std::max<size_t>(1, page.records.size() / 2);
    page.records.resize(page.records.size() - drop);
    ++counters_.truncated_pages;
    return;
  }
  if (action == FaultAction::kDuplicate) {
    // Echo the first record again in the last slot, silently hiding the
    // record that was there.
    if (page.records.size() < 2) return;
    page.records.back() = page.records.front();
    ++counters_.duplicated_records;
    return;
  }
}

template <typename Fetch>
StatusOr<ResultPage> FaultyServer::Dispatch(uint64_t query_key,
                                            uint32_t page_number,
                                            Fetch&& fetch) {
  FaultAction action = NextAction(query_key, page_number);
  switch (action) {
    case FaultAction::kUnavailable:
    case FaultAction::kTimeout:
    case FaultAction::kRateLimit:
      return InjectFailure(action, page_number);
    default:
      break;
  }
  StatusOr<ResultPage> fetched = fetch();
  if (fetched.ok() && action != FaultAction::kNone) {
    MutatePage(action, *fetched);
  }
  return fetched;
}

StatusOr<ResultPage> FaultyServer::FetchPage(ValueId value,
                                             uint32_t page_number) {
  return Dispatch(KeyOfValue(1, value), page_number,
                  [&] { return inner_.FetchPage(value, page_number); });
}

StatusOr<ResultPage> FaultyServer::FetchPageKeywordOf(ValueId value,
                                                      uint32_t page_number) {
  return Dispatch(KeyOfValue(5, value), page_number, [&] {
    return inner_.FetchPageKeywordOf(value, page_number);
  });
}

void FaultyServer::ResetMeters() {
  inner_.ResetMeters();
  injected_failure_rounds_ = 0;
  injected_failure_queries_ = 0;
}

void FaultyServer::SaveState(CheckpointWriter& writer) const {
  // Fingerprint first (verified on load), then the mutable state.
  writer.WriteU64(seed_);
  writer.WriteDouble(profile_.unavailable_rate);
  writer.WriteDouble(profile_.timeout_rate);
  writer.WriteDouble(profile_.rate_limit_rate);
  writer.WriteDouble(profile_.truncate_rate);
  writer.WriteDouble(profile_.duplicate_rate);
  writer.WriteU32(profile_.retry_after_rounds);
  writer.WriteU8(keyed_ ? 1 : 0);
  writer.WriteU64(schedule_.size());
  writer.WriteU64(schedule_pos_);
  writer.WriteU64(rng_.state());
  writer.WriteU64(rng_.inc());
  // Sorted by page key, so the encoding is independent of hash-map order.
  std::vector<std::pair<uint64_t, uint32_t>> attempts(keyed_attempts_.begin(),
                                                      keyed_attempts_.end());
  std::sort(attempts.begin(), attempts.end());
  writer.WriteU64(attempts.size());
  for (const auto& [page_key, count] : attempts) {
    writer.WriteU64(page_key);
    writer.WriteU32(count);
  }
  writer.WriteU64(injected_failure_rounds_);
  writer.WriteU64(injected_failure_queries_);
  writer.WriteU64(counters_.unavailable);
  writer.WriteU64(counters_.timeouts);
  writer.WriteU64(counters_.rate_limited);
  writer.WriteU64(counters_.truncated_pages);
  writer.WriteU64(counters_.duplicated_records);
}

Status FaultyServer::LoadState(CheckpointReader& reader) {
  uint64_t seed = reader.ReadU64();
  FaultProfile profile;
  profile.unavailable_rate = reader.ReadDouble();
  profile.timeout_rate = reader.ReadDouble();
  profile.rate_limit_rate = reader.ReadDouble();
  profile.truncate_rate = reader.ReadDouble();
  profile.duplicate_rate = reader.ReadDouble();
  profile.retry_after_rounds = reader.ReadU32();
  bool keyed = reader.ReadU8() != 0;
  uint64_t schedule_size = reader.ReadU64();
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());
  if (seed != seed_ || keyed != keyed_ ||
      schedule_size != schedule_.size() ||
      profile.unavailable_rate != profile_.unavailable_rate ||
      profile.timeout_rate != profile_.timeout_rate ||
      profile.rate_limit_rate != profile_.rate_limit_rate ||
      profile.truncate_rate != profile_.truncate_rate ||
      profile.duplicate_rate != profile_.duplicate_rate ||
      profile.retry_after_rounds != profile_.retry_after_rounds) {
    return Status::InvalidArgument(
        "checkpoint fault-setup mismatch: seed, profile, keyed mode, or "
        "schedule differs from the checkpointing run");
  }
  uint64_t schedule_pos = reader.ReadU64();
  uint64_t rng_state = reader.ReadU64();
  uint64_t rng_inc = reader.ReadU64();
  if (reader.ok() && schedule_pos > schedule_.size()) {
    reader.MarkCorrupt("fault-schedule position past the schedule's end");
  }
  if (reader.ok() && (rng_inc & 1) == 0) {
    reader.MarkCorrupt("fault RNG increment is even");
  }
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());
  schedule_pos_ = static_cast<size_t>(schedule_pos);
  rng_.RestoreRaw(rng_state, rng_inc);
  keyed_attempts_.clear();
  uint64_t attempts = reader.ReadCount(12);
  uint64_t last_key = 0;
  for (uint64_t i = 0; i < attempts && reader.ok(); ++i) {
    uint64_t page_key = reader.ReadU64();
    uint32_t count = reader.ReadU32();
    // SaveState writes the table sorted, and a key exists only once
    // a page was attempted.
    if (reader.ok() && ((i > 0 && page_key <= last_key) || count == 0)) {
      reader.MarkCorrupt("keyed-attempt table not sorted or has a 0 count");
      break;
    }
    last_key = page_key;
    keyed_attempts_.emplace(page_key, count);
  }
  injected_failure_rounds_ = reader.ReadU64();
  injected_failure_queries_ = reader.ReadU64();
  counters_.unavailable = reader.ReadU64();
  counters_.timeouts = reader.ReadU64();
  counters_.rate_limited = reader.ReadU64();
  counters_.truncated_pages = reader.ReadU64();
  counters_.duplicated_records = reader.ReadU64();
  // Each injected failure bumps exactly one failure counter; ResetMeters
  // zeroes only the injected tallies.
  if (reader.ok() &&
      (injected_failure_queries_ > injected_failure_rounds_ ||
       injected_failure_rounds_ > counters_.unavailable + counters_.timeouts +
                                      counters_.rate_limited)) {
    reader.MarkCorrupt("fault counters do not add up");
  }
  return reader.status();
}

}  // namespace deepcrawl
