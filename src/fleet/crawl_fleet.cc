#include "src/fleet/crawl_fleet.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "src/crawler/checkpoint.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/datagen/canned_workloads.h"
#include "src/util/checkpoint_io.h"
#include "src/util/logging.h"

namespace deepcrawl {

const char* SchedulerPolicyToString(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kMarginalHarvest:
      return "marginal-hr";
    case SchedulerPolicy::kRoundRobin:
      return "round-robin";
    case SchedulerPolicy::kSequential:
      return "sequential";
  }
  return "unknown";
}

StatusOr<SchedulerPolicy> ParseSchedulerPolicy(std::string_view name) {
  if (name == "marginal-hr") return SchedulerPolicy::kMarginalHarvest;
  if (name == "round-robin") return SchedulerPolicy::kRoundRobin;
  if (name == "sequential") return SchedulerPolicy::kSequential;
  return Status::InvalidArgument(
      "unknown scheduler '" + std::string(name) +
      "' (marginal-hr|round-robin|sequential)");
}

// One source's full crawl stack plus its isolation state. The heap
// objects behind the unique_ptrs never move, so the reference chains
// between them survive vector reallocation of Source itself.
struct CrawlFleet::Source {
  std::unique_ptr<WebDbServer> backend;
  std::unique_ptr<FaultyServer> faulty;
  std::unique_ptr<LocalStore> store;
  std::unique_ptr<QuerySelector> selector;
  std::unique_ptr<RetryPolicy> retry;
  std::unique_ptr<CrawlEngine> engine;

  CircuitBreaker breaker;
  // Politeness hard floor: earliest fleet time the source may be
  // scheduled again, pushed forward by the server's retry-after hints.
  uint64_t not_before = 0;
  uint64_t turns = 0;
  // Marginal-harvest score: new records per consumed round over the last
  // granted turn that consumed any.
  double last_hr = 0.0;
  bool finished = false;
  StopReason stop_reason = StopReason::kRoundBudget;
  // Hard failure that abandoned the source (fleet kept going).
  Status error;
};

CrawlFleet::CrawlFleet(std::vector<FleetSourceSpec> specs,
                       FleetOptions options)
    : specs_(std::move(specs)), options_(std::move(options)) {
  DEEPCRAWL_CHECK(!specs_.empty()) << "a fleet needs at least one source";
  DEEPCRAWL_CHECK_GE(options_.batch, 1u);
  DEEPCRAWL_CHECK_GE(options_.turn_rounds, 1u);

  sources_.reserve(specs_.size());
  for (uint32_t i = 0; i < specs_.size(); ++i) {
    const FleetSourceSpec& spec = specs_[i];
    DEEPCRAWL_CHECK(spec.table.num_records() > 0)
        << "source '" << spec.name << "' has an empty table";
    Source& src = sources_.emplace_back();

    uint64_t derived_seed = FaultyServer::DeriveSourceSeed(options_.seed, i);
    src.backend = std::make_unique<WebDbServer>(spec.table, spec.server);
    // Always behind a fault proxy: the chaos schedule needs the
    // forced-action hook even for a zero-rate profile.
    src.faulty =
        std::make_unique<FaultyServer>(*src.backend, spec.faults, derived_seed);

    src.store = std::make_unique<LocalStore>();
    if (spec.policy == "greedy") {
      src.selector = std::make_unique<GreedyLinkSelector>(*src.store);
    } else if (spec.policy == "mmmi") {
      src.selector = std::make_unique<MmmiSelector>(*src.store);
    } else if (spec.policy == "bfs") {
      src.selector = std::make_unique<BfsSelector>();
    } else if (spec.policy == "dfs") {
      src.selector = std::make_unique<DfsSelector>();
    } else {
      DEEPCRAWL_CHECK(false) << "unknown source policy '" << spec.policy
                             << "' (greedy|mmmi|bfs|dfs)";
    }

    RetryPolicyConfig retry_config = options_.retry;
    retry_config.seed = derived_seed;
    src.retry = std::make_unique<RetryPolicy>(retry_config);

    CrawlOptions crawl_options;
    crawl_options.max_rounds = 0;  // re-set before every granted turn
    if (spec.target_coverage > 0.0) {
      crawl_options.target_records = static_cast<uint64_t>(
          spec.target_coverage * static_cast<double>(spec.table.num_records()));
    }
    if (spec.saturation > 0.0) {
      crawl_options.saturation_records = static_cast<uint64_t>(
          spec.saturation * static_cast<double>(spec.table.num_records()));
    }
    EngineOptions engine_options;
    engine_options.batch = options_.batch;
    src.engine = std::make_unique<CrawlEngine>(
        *src.faulty, *src.selector, *src.store, crawl_options, engine_options,
        /*abort_policy=*/nullptr, src.retry.get());
  }
}

CrawlFleet::~CrawlFleet() = default;

uint32_t CrawlFleet::num_sources() const {
  return static_cast<uint32_t>(sources_.size());
}

const FleetSourceSpec& CrawlFleet::spec(uint32_t i) const {
  DEEPCRAWL_CHECK(i < specs_.size()) << "source id out of range";
  return specs_[i];
}
const CrawlEngine& CrawlFleet::engine(uint32_t i) const {
  DEEPCRAWL_CHECK(i < sources_.size()) << "source id out of range";
  return *sources_[i].engine;
}
const LocalStore& CrawlFleet::store(uint32_t i) const {
  DEEPCRAWL_CHECK(i < sources_.size()) << "source id out of range";
  return *sources_[i].store;
}
const CircuitBreaker& CrawlFleet::breaker(uint32_t i) const {
  DEEPCRAWL_CHECK(i < sources_.size()) << "source id out of range";
  return sources_[i].breaker;
}
const FaultyServer& CrawlFleet::faulty(uint32_t i) const {
  DEEPCRAWL_CHECK(i < sources_.size()) << "source id out of range";
  return *sources_[i].faulty;
}

bool CrawlFleet::Active(const Source& source) const {
  return !source.finished && source.error.ok() && !source.breaker.exhausted();
}

bool CrawlFleet::Eligible(const Source& source) const {
  return source.breaker.CanAdmit(clock_) && clock_ >= source.not_before;
}

uint32_t CrawlFleet::Pick(const std::vector<uint32_t>& eligible) const {
  DEEPCRAWL_DCHECK(!eligible.empty());
  switch (options_.scheduler) {
    case SchedulerPolicy::kSequential:
      return eligible.front();
    case SchedulerPolicy::kRoundRobin:
      for (uint32_t i : eligible) {
        if (i > last_picked_) return i;
      }
      return eligible.front();
    case SchedulerPolicy::kMarginalHarvest: {
      // Probes first: a source whose cooldown elapsed gets its half-open
      // turn before any harvest-rate comparison, so flappers are
      // re-admitted promptly instead of starving behind healthy sources.
      for (uint32_t i : eligible) {
        if (sources_[i].breaker.state() == BreakerState::kOpen) return i;
      }
      // Optimism under uncertainty: a source with no granted turn yet
      // outranks any measured rate, so every source gets one exploratory
      // turn before the fleet commits rounds by harvest rate.
      for (uint32_t i : eligible) {
        if (sources_[i].turns == 0) return i;
      }
      uint32_t best = eligible.front();
      for (uint32_t i : eligible) {
        if (sources_[i].last_hr > sources_[best].last_hr) best = i;
      }
      return best;
    }
  }
  return eligible.front();
}

Status CrawlFleet::RunTurn(uint32_t i) {
  Source& src = sources_[i];
  src.breaker.Admit(clock_);

  uint64_t grant = options_.turn_rounds;
  if (options_.source_deadline_rounds > 0) {
    uint64_t used = src.engine->rounds_used();
    DEEPCRAWL_DCHECK(used < options_.source_deadline_rounds);
    grant = std::min(grant, options_.source_deadline_rounds - used);
  }
  if (options_.max_total_rounds > 0) {
    grant = std::min(grant, options_.max_total_rounds - total_rounds_);
  }
  DEEPCRAWL_DCHECK(grant >= 1) << "a turn was granted no rounds";

  // Chaos: the forced action for this turn is a pure function of
  // (schedule, global turn counter), so a replayed fleet recomputes the
  // same window.
  src.faulty->set_forced_action(
      ForcedActionAt(options_.chaos, i, turns_completed_));

  uint64_t rounds_before = src.engine->rounds_used();
  uint64_t records_before = src.store->num_records();
  const ResilienceCounters& res = src.engine->trace().resilience();
  uint64_t failures_before = res.transient_failures;
  uint64_t rate_limits_before = res.rate_limit_rejections;

  src.engine->set_max_rounds(rounds_before + grant);
  StatusOr<StopReason> turn = src.engine->RunToStop();

  uint64_t consumed = src.engine->rounds_used() - rounds_before;
  uint64_t new_records = src.store->num_records() - records_before;
  uint64_t failures = res.transient_failures - failures_before;
  uint64_t rate_limits = res.rate_limit_rejections - rate_limits_before;

  clock_ += consumed;
  total_rounds_ += consumed;
  total_records_ += new_records;
  if (rate_limits > 0) {
    // Politeness: the server's retry-after hint is a hard floor on when
    // this source may be scheduled again.
    src.not_before =
        std::max(src.not_before, clock_ + res.max_retry_after_hint);
  }
  if (consumed > 0) {
    src.last_hr =
        static_cast<double>(new_records) / static_cast<double>(consumed);
  }
  src.breaker.OnTurn(clock_, consumed, failures, new_records);

  if (!turn.ok()) {
    // Fault isolation: a hard per-source failure abandons the source and
    // is reported in its outcome; the fleet keeps crawling the rest.
    src.error = turn.status();
  } else if (*turn != StopReason::kRoundBudget) {
    src.finished = true;
    src.stop_reason = *turn;
  } else if (options_.source_deadline_rounds > 0 &&
             src.engine->rounds_used() >= options_.source_deadline_rounds) {
    // Deadline spent: retire the source so it cannot stall the fleet.
    src.finished = true;
    src.stop_reason = StopReason::kRoundBudget;
  }

  ++src.turns;
  last_picked_ = i;
  ++turns_completed_;
  fleet_trace_.Add(total_rounds_, total_records_);

  if (options_.checkpoint_every_turns > 0 &&
      options_.checkpoint_sink != nullptr &&
      turns_completed_ % options_.checkpoint_every_turns == 0) {
    return options_.checkpoint_sink(*this);
  }
  return Status::OK();
}

void CrawlFleet::AdvanceToNextEligibility() {
  uint64_t best = UINT64_MAX;
  for (const Source& src : sources_) {
    if (!Active(src)) continue;
    uint64_t at = src.breaker.EligibleAt(clock_);
    at = std::max(at, src.not_before);
    best = std::min(best, at);
  }
  // Guard: always make progress, even if a stale bound pointed backwards.
  if (best <= clock_) best = clock_ + 1;
  idle_ticks_ += best - clock_;
  clock_ = best;
}

void CrawlFleet::PlantSeeds() {
  for (uint32_t i = 0; i < sources_.size(); ++i) {
    const FleetSourceSpec& spec = specs_[i];
    uint64_t derived_seed = FaultyServer::DeriveSourceSeed(options_.seed, i);
    uint32_t distinct =
        static_cast<uint32_t>(spec.table.num_distinct_values());
    for (uint32_t j = 0; j < spec.num_seeds; ++j) {
      // Seed j is a pure function of (fleet seed, source id, j): the
      // j-th derived value, probed forward past zero-frequency ids.
      ValueId v = static_cast<ValueId>(
          FaultyServer::DeriveSourceSeed(derived_seed, j) % distinct);
      while (spec.table.value_frequency(v) == 0) {
        v = static_cast<ValueId>((v + 1) % distinct);
      }
      sources_[i].engine->AddSeed(v);
    }
  }
}

void CrawlFleet::MarkBudget() {
  if (budgets_.empty() ||
      budgets_.back().max_total_rounds != options_.max_total_rounds) {
    budgets_.push_back(BudgetMark{turns_completed_, options_.max_total_rounds});
  }
}

StatusOr<FleetResult> CrawlFleet::Run() {
  // The first Run() plants the seeds; a Run() under a new budget marks it.
  if (budgets_.empty()) PlantSeeds();
  MarkBudget();
  DEEPCRAWL_RETURN_IF_ERROR(RunTurns(UINT64_MAX));
  return BuildResult();
}

Status CrawlFleet::RunTurns(uint64_t turn_limit) {
  std::vector<uint32_t> eligible;
  while (turns_completed_ < turn_limit) {
    if (options_.max_total_rounds > 0 &&
        total_rounds_ >= options_.max_total_rounds) {
      break;
    }
    eligible.clear();
    bool any_active = false;
    for (uint32_t i = 0; i < sources_.size(); ++i) {
      if (!Active(sources_[i])) continue;
      any_active = true;
      if (Eligible(sources_[i])) eligible.push_back(i);
    }
    if (!any_active) break;
    if (eligible.empty()) {
      AdvanceToNextEligibility();
      continue;
    }
    DEEPCRAWL_RETURN_IF_ERROR(RunTurn(Pick(eligible)));
  }
  return Status::OK();
}

SourceDegradation CrawlFleet::DegradationOf(uint32_t i) const {
  DEEPCRAWL_CHECK(i < sources_.size()) << "source id out of range";
  const Source& src = sources_[i];
  SourceDegradation d;
  d.source_id = i;
  d.name = specs_[i].name;
  d.finished = src.finished && src.stop_reason != StopReason::kRoundBudget;
  d.quarantined = src.breaker.quarantined();
  d.abandoned = src.breaker.exhausted() || !src.error.ok();
  d.records_harvested = src.store->num_records();
  uint64_t target = src.engine->options().target_records;
  d.records_missing =
      target > d.records_harvested ? target - d.records_harvested : 0;
  d.values_abandoned = src.engine->trace().resilience().abandoned_values;
  d.rounds = src.engine->rounds_used();
  d.turns = src.turns;
  d.ticks_quarantined = src.breaker.TicksOpen(clock_);
  d.breaker = src.breaker.transitions();
  return d;
}

FleetResult CrawlFleet::BuildResult() const {
  FleetResult out;
  out.turns = turns_completed_;
  out.idle_ticks = idle_ticks_;
  out.sources.reserve(sources_.size());
  uint64_t queries = 0;
  bool all_done = true;
  ResilienceCounters merged_res;
  for (uint32_t i = 0; i < sources_.size(); ++i) {
    const Source& src = sources_[i];
    FleetSourceOutcome outcome;
    StopReason reason =
        src.finished ? src.stop_reason : StopReason::kRoundBudget;
    outcome.result = MakeCrawlResult(reason, src.engine->rounds_used(),
                                     src.engine->queries_issued(),
                                     src.store->num_records(),
                                     src.engine->trace());
    outcome.degradation = DegradationOf(i);
    outcome.error = src.error;
    queries += outcome.result.queries;
    const ResilienceCounters& res = outcome.result.resilience;
    merged_res.transient_failures += res.transient_failures;
    merged_res.retries += res.retries;
    merged_res.backoff_ticks += res.backoff_ticks;
    merged_res.requeues += res.requeues;
    merged_res.abandoned_values += res.abandoned_values;
    merged_res.degraded_queries += res.degraded_queries;
    merged_res.rate_limit_rejections += res.rate_limit_rejections;
    merged_res.max_retry_after_hint = std::max(
        merged_res.max_retry_after_hint, res.max_retry_after_hint);
    if (!outcome.degradation.finished && !outcome.degradation.abandoned) {
      all_done = false;
    }
    out.merged.source_reports.push_back(outcome.degradation);
    out.sources.push_back(std::move(outcome));
  }
  out.merged.stop_reason =
      all_done ? StopReason::kTargetReached : StopReason::kRoundBudget;
  out.merged.rounds = total_rounds_;
  out.merged.queries = queries;
  out.merged.records = total_records_;
  out.merged.trace = fleet_trace_;
  out.merged.resilience = merged_res;
  return out;
}

StatusOr<std::vector<FleetSourceSpec>> MakeFleetSourceSpecs(
    uint32_t num_sources, double scale, double target_coverage,
    FaultProfile faults, uint64_t gen_seed) {
  struct Kind {
    const char* name;
    SyntheticDbConfig (*config)(double, uint64_t);
  };
  static constexpr Kind kKinds[] = {
      {"ebay", [](double s, uint64_t seed) { return EbayConfig(s, seed); }},
      {"acm", [](double s, uint64_t seed) { return AcmDlConfig(s, seed); }},
      {"dblp", [](double s, uint64_t seed) { return DblpConfig(s, seed); }},
      {"imdb", [](double s, uint64_t seed) { return ImdbConfig(s, seed); }},
  };
  if (!(scale > 0.0 && scale <= 1.0)) {
    return Status::InvalidArgument("scale must be in (0, 1]");
  }
  std::vector<FleetSourceSpec> specs;
  specs.reserve(num_sources);
  for (uint32_t i = 0; i < num_sources; ++i) {
    const Kind& kind = kKinds[i % (sizeof(kKinds) / sizeof(kKinds[0]))];
    DEEPCRAWL_ASSIGN_OR_RETURN(
        Table table, GenerateTable(kind.config(scale, gen_seed + i)));
    FleetSourceSpec spec(std::string(kind.name) + "-" + std::to_string(i),
                         std::move(table));
    spec.faults = faults;
    spec.target_coverage = target_coverage;
    specs.push_back(std::move(spec));
  }
  return specs;
}

Status WriteFleetTraceCsv(const FleetResult& result, std::ostream& output) {
  output << "source,rounds,records\n";
  for (const FleetSourceOutcome& outcome : result.sources) {
    uint32_t id = outcome.degradation.source_id;
    for (const TracePoint& point : outcome.result.trace.points()) {
      output << id << ',' << point.rounds << ',' << point.records << '\n';
    }
  }
  if (!output) return Status::Internal("fleet trace write failed");
  return Status::OK();
}

// --- checkpointing ----------------------------------------------------

namespace {

// The fleet-level config fingerprint: every knob the scheduler's
// behaviour depends on, then the chaos schedule. Save writes it, and Load
// compares it byte for byte with the loading fleet's own — resuming
// under a different config would silently diverge.
void WriteFingerprint(CheckpointWriter& writer, const FleetOptions& options,
                      uint32_t num_sources) {
  writer.WriteU64(options.seed);
  writer.WriteU32(num_sources);
  writer.WriteU8(static_cast<uint8_t>(options.scheduler));
  writer.WriteU32(options.batch);
  writer.WriteU64(options.turn_rounds);
  writer.WriteU64(options.source_deadline_rounds);
  writer.WriteU32(options.retry.max_attempts);
  writer.WriteU32(options.retry.max_requeues);
  writer.WriteU64(options.chaos.size());
  for (const ChaosEvent& event : options.chaos) {
    writer.WriteU32(event.source);
    writer.WriteU64(event.begin_turn);
    writer.WriteU64(event.end_turn);
    writer.WriteU8(static_cast<uint8_t>(event.action));
  }
}

}  // namespace

Status CrawlFleet::SaveState(CheckpointWriter& writer) const {
  WriteSectionMarker(writer, kSectionFleet);
  WriteFingerprint(writer, options_, num_sources());
  writer.WriteU64(budgets_.size());
  for (const BudgetMark& mark : budgets_) {
    writer.WriteU64(mark.turn);
    writer.WriteU64(mark.max_total_rounds);
  }
  writer.WriteU64(turns_completed_);

  for (uint32_t i = 0; i < sources_.size(); ++i) {
    WriteSectionMarker(writer, kSectionFleetSource);
    writer.WriteString(specs_[i].name);
    // The engine's sections as one length-prefixed blob, so the replay
    // can give each engine a reader of its own.
    const size_t length_at = writer.buffer().size();
    writer.WriteU32(0);
    sources_[i].engine->SaveState(writer);
    const size_t length = writer.buffer().size() - length_at - 4;
    if (length > UINT32_MAX) {
      return Status::ResourceExhausted("source '" + specs_[i].name +
                                       "' has a fetch log over 4 GiB");
    }
    writer.PatchU32(length_at, static_cast<uint32_t>(length));
    sources_[i].faulty->SaveState(writer);
  }
  WriteSectionMarker(writer, kSectionEnd);
  return Status::OK();
}

Status CrawlFleet::LoadState(CheckpointReader& reader) {
  if (turns_completed_ != 0 || clock_ != 0 || !budgets_.empty()) {
    return Status::FailedPrecondition(
        "fleet checkpoint restore requires a freshly constructed fleet "
        "(no turns run, no seeds planted)");
  }
  if (!ExpectSectionMarker(reader, kSectionFleet, "FLET")) {
    return reader.status();
  }
  CheckpointWriter fingerprint;
  WriteFingerprint(fingerprint, options_, num_sources());
  const bool same_config =
      reader.ReadRaw(fingerprint.buffer().size()) == fingerprint.buffer();
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());
  if (!same_config) {
    return Status::InvalidArgument(
        "fleet checkpoint config mismatch: seed, source count, scheduler, "
        "chaos schedule, or an isolation knob (retry/budget) "
        "differs from the checkpointing run");
  }
  std::vector<BudgetMark> budgets(reader.ReadCount(16));
  for (BudgetMark& mark : budgets) {
    mark.turn = reader.ReadU64();
    mark.max_total_rounds = reader.ReadU64();
  }
  const uint64_t turns = reader.ReadU64();
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());

  std::vector<CheckpointReader> logs;
  logs.reserve(sources_.size());
  for (uint32_t i = 0; i < sources_.size(); ++i) {
    if (!ExpectSectionMarker(reader, kSectionFleetSource, "FSRC")) {
      return reader.status();
    }
    std::string name = reader.ReadString();
    DEEPCRAWL_RETURN_IF_ERROR(reader.status());
    if (name != specs_[i].name) {
      return Status::InvalidArgument(
          "fleet checkpoint source mismatch: file has '" + name +
          "' at position " + std::to_string(i) + ", fleet has '" +
          specs_[i].name + "' (source order is part of the contract)");
    }
    logs.emplace_back(reader.ReadBytes());
    DEEPCRAWL_RETURN_IF_ERROR(reader.status());
    // A replay never fetches, so the proxy may be restored before it.
    DEEPCRAWL_RETURN_IF_ERROR(sources_[i].faulty->LoadState(reader));
  }
  if (!ExpectSectionMarker(reader, kSectionEnd, "END!")) {
    return reader.status();
  }

  Status replayed = ReplayTurns(budgets, turns, logs);
  // End every engine's replay, so none keeps a reader into `logs`.
  for (uint32_t i = 0; i < sources_.size(); ++i) {
    Status ended = sources_[i].engine->EndReplay();
    if (replayed.ok()) replayed = ended;
    if (replayed.ok() && !logs[i].AtEnd()) {
      replayed = Status::InvalidArgument(
          "corrupt fleet checkpoint: trailing bytes after the fetch log of "
          "source '" + specs_[i].name + "'");
    }
  }
  DEEPCRAWL_RETURN_IF_ERROR(replayed);
  if (turns_completed_ != turns) {
    return Status::InvalidArgument(
        "inconsistent fleet checkpoint: it claims " + std::to_string(turns) +
        " completed turns, its fetch logs replay " +
        std::to_string(turns_completed_));
  }
  return Status::OK();
}

Status CrawlFleet::ReplayTurns(const std::vector<BudgetMark>& budgets,
                               uint64_t turns,
                               std::vector<CheckpointReader>& logs) {
  for (uint32_t i = 0; i < sources_.size(); ++i) {
    DEEPCRAWL_RETURN_IF_ERROR(sources_[i].engine->BeginReplay(logs[i]));
  }
  // No budget mark: saved before the first Run(), nothing to replay.
  if (budgets.empty()) return Status::OK();
  // The turns run under the recorded budgets, with no checkpoint sink.
  const uint64_t budget = options_.max_total_rounds;
  auto sink = std::move(options_.checkpoint_sink);
  options_.checkpoint_sink = nullptr;
  PlantSeeds();
  Status replayed = Status::OK();
  for (size_t k = 0; k < budgets.size(); ++k) {
    // The first Run() marks its budget at turn 0 and later ones follow in
    // turn order, each where the turns before it stopped.
    if (turns_completed_ != budgets[k].turn) {
      replayed = Status::InvalidArgument(
          "inconsistent fleet checkpoint: a budget takes effect at turn " +
          std::to_string(budgets[k].turn) + ", but its fetch logs replay " +
          std::to_string(turns_completed_) + " turns before it");
      break;
    }
    options_.max_total_rounds = budgets[k].max_total_rounds;
    MarkBudget();
    // RunTurns fails only through the checkpoint sink, unset here.
    (void)RunTurns(k + 1 < budgets.size() ? budgets[k + 1].turn : turns);
  }
  options_.max_total_rounds = budget;
  options_.checkpoint_sink = std::move(sink);
  return replayed;
}

StatusOr<std::string> EncodeFleetCheckpoint(const CrawlFleet& fleet) {
  CheckpointWriter writer;
  const size_t frame = writer.BeginFrame(kFleetCheckpointVersion);
  DEEPCRAWL_RETURN_IF_ERROR(fleet.SaveState(writer));
  writer.EndFrame(frame);
  return writer.TakeBuffer();
}

Status DecodeFleetCheckpoint(std::string_view image, CrawlFleet& fleet) {
  DEEPCRAWL_ASSIGN_OR_RETURN(std::string_view payload,
                             UnframeCheckpoint(image, kFleetCheckpointVersion));
  CheckpointReader reader(payload);
  DEEPCRAWL_RETURN_IF_ERROR(fleet.LoadState(reader));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "corrupt fleet checkpoint: trailing bytes after the end marker");
  }
  return reader.status();
}

Status SaveFleetCheckpoint(const CrawlFleet& fleet, const std::string& path) {
  DEEPCRAWL_ASSIGN_OR_RETURN(std::string image, EncodeFleetCheckpoint(fleet));
  return WriteFileAtomic(path, image);
}

Status LoadFleetCheckpoint(const std::string& path, CrawlFleet& fleet) {
  DEEPCRAWL_ASSIGN_OR_RETURN(std::string image, ReadFileBytes(path));
  return DecodeFleetCheckpoint(image, fleet);
}

}  // namespace deepcrawl
