#include "src/fleet/crawl_fleet.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "src/crawler/checkpoint.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/harvest_rate.h"
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
  Source(const CircuitBreakerConfig& breaker_config,
         const PolitenessConfig& politeness_config)
      : breaker(breaker_config), bucket(politeness_config) {}

  std::unique_ptr<WebDbServer> backend;
  std::unique_ptr<FaultyServer> faulty;
  std::unique_ptr<LockedQueryInterface> locked;
  std::unique_ptr<LocalStore> store;
  std::unique_ptr<QuerySelector> selector;
  std::unique_ptr<RetryPolicy> retry;
  std::unique_ptr<CrawlEngine> engine;

  CircuitBreaker breaker;
  TokenBucket bucket;
  // Politeness hard floor: earliest fleet time the source may be
  // scheduled again, pushed forward by the server's retry-after hints.
  uint64_t not_before = 0;
  uint64_t turns = 0;
  // Marginal-harvest health: EWMAs of records-per-round and
  // failures-per-round over granted turns (shared estimator, see
  // src/crawler/harvest_rate.h; its fields are serialized verbatim).
  HarvestRateEwma health;
  bool finished = false;
  StopReason stop_reason = StopReason::kRoundBudget;
  // Hard failure that abandoned the source (fleet kept going).
  Status error;
};

CrawlFleet::CrawlFleet(std::vector<FleetSourceSpec> specs,
                       FleetOptions options)
    : specs_(std::move(specs)), options_(std::move(options)) {
  DEEPCRAWL_CHECK(!specs_.empty()) << "a fleet needs at least one source";
  DEEPCRAWL_CHECK_GE(options_.threads, 1u);
  DEEPCRAWL_CHECK_GE(options_.batch, 1u);
  DEEPCRAWL_CHECK_GE(options_.turn_rounds, 1u);
  DEEPCRAWL_CHECK(options_.politeness.rounds_per_tick > 0.0)
      << "politeness refill rate must be positive";
  DEEPCRAWL_CHECK(options_.politeness.burst >= 1.0)
      << "politeness burst must afford at least one round";
  DEEPCRAWL_CHECK(options_.hr_ewma_alpha > 0.0 && options_.hr_ewma_alpha <= 1.0)
      << "hr_ewma_alpha must be in (0, 1]";
  DEEPCRAWL_CHECK(options_.hr_floor > 0.0)
      << "hr_floor must be positive (keeps dry sources schedulable)";

  if (options_.threads > 1) {
    executor_ = std::make_unique<ThreadPoolFetchExecutor>(options_.threads);
  } else {
    executor_ = std::make_unique<InlineFetchExecutor>();
  }

  sources_.reserve(specs_.size());
  for (uint32_t i = 0; i < specs_.size(); ++i) {
    const FleetSourceSpec& spec = specs_[i];
    DEEPCRAWL_CHECK(spec.table.num_records() > 0)
        << "source '" << spec.name << "' has an empty table";
    Source& src =
        sources_.emplace_back(options_.breaker, options_.politeness);

    uint64_t derived_seed = FaultyServer::DeriveSourceSeed(options_.seed, i);
    src.backend = std::make_unique<WebDbServer>(spec.table, spec.server);
    // Always behind a fault proxy, always keyed: the chaos schedule needs
    // the forced-action hook even for a zero-rate profile, and keyed mode
    // keeps the fault stream independent of fetch arrival order.
    src.faulty =
        std::make_unique<FaultyServer>(*src.backend, spec.faults, derived_seed);
    src.faulty->set_keyed_faults(true);
    QueryInterface* server = src.faulty.get();
    if (options_.threads > 1 || options_.latency_us > 0) {
      src.locked = std::make_unique<LockedQueryInterface>(
          *src.faulty, options_.latency_us);
      server = src.locked.get();
    }

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
    engine_options.threads = 1;  // ignored: shared executor below
    engine_options.batch = options_.batch;
    engine_options.shared_executor = executor_.get();
    src.engine = std::make_unique<CrawlEngine>(
        *server, *src.selector, *src.store, crawl_options, engine_options,
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
const TokenBucket& CrawlFleet::bucket(uint32_t i) const {
  DEEPCRAWL_CHECK(i < sources_.size()) << "source id out of range";
  return sources_[i].bucket;
}
const FaultyServer& CrawlFleet::faulty(uint32_t i) const {
  DEEPCRAWL_CHECK(i < sources_.size()) << "source id out of range";
  return *sources_[i].faulty;
}

bool CrawlFleet::Active(const Source& source) const {
  return !source.finished && source.error.ok() && !source.breaker.exhausted();
}

bool CrawlFleet::Eligible(const Source& source) const {
  return source.breaker.CanAdmit(clock_) && clock_ >= source.not_before &&
         source.bucket.HasToken();
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
      // Optimism under uncertainty: a never-sampled source outranks any
      // measured score, so every source gets one exploratory turn before
      // the fleet commits rounds by measured harvest rate — otherwise
      // the first source sampled wins every comparison against the
      // others' hr_floor and the policy degenerates to sequential.
      for (uint32_t i : eligible) {
        if (!sources_[i].health.seen) return i;
      }
      uint32_t best = eligible.front();
      double best_score = -1.0;
      for (uint32_t i : eligible) {
        const Source& src = sources_[i];
        double score = src.health.Score(options_.hr_floor);
        if (score > best_score) {
          best_score = score;
          best = i;
        }
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
  grant = std::min(grant, src.bucket.AffordableRounds());
  if (options_.max_total_rounds > 0) {
    grant = std::min(grant, options_.max_total_rounds - total_rounds_);
  }
  DEEPCRAWL_DCHECK(grant >= 1) << "eligibility admitted an unaffordable turn";

  // Chaos: the forced action for this turn is a pure function of
  // (schedule, global turn counter), both checkpointed — a resumed fleet
  // recomputes the same window.
  src.faulty->set_forced_action(
      ForcedActionAt(options_.chaos, i, turns_completed_));

  uint64_t rounds_before = src.engine->rounds_used();
  uint64_t records_before = src.store->num_records();
  const ResilienceCounters& res = src.engine->trace().resilience();
  uint64_t failures_before = res.transient_failures;
  uint64_t rate_limits_before = res.rate_limit_rejections;

  src.engine->set_max_rounds(rounds_before + grant);
  StatusOr<CrawlResult> turn = src.engine->Run();

  uint64_t consumed = src.engine->rounds_used() - rounds_before;
  uint64_t new_records = src.store->num_records() - records_before;
  uint64_t failures = res.transient_failures - failures_before;
  uint64_t rate_limits = res.rate_limit_rejections - rate_limits_before;

  src.bucket.Spend(consumed);
  clock_ += consumed;
  total_rounds_ += consumed;
  total_records_ += new_records;
  if (rate_limits > 0) {
    // Adaptive politeness: the server's retry-after hint is a hard floor
    // on when this source may be scheduled again, whatever the bucket
    // would allow.
    src.not_before =
        std::max(src.not_before, clock_ + res.max_retry_after_hint);
  }
  if (consumed > 0) {
    double hr = static_cast<double>(new_records) /
                static_cast<double>(consumed);
    double err = static_cast<double>(failures) /
                 static_cast<double>(consumed);
    src.health.Observe(options_.hr_ewma_alpha, hr, err);
  }
  src.breaker.OnTurn(clock_, consumed, failures, new_records);

  if (!turn.ok()) {
    // Fault isolation: a hard per-source failure abandons the source and
    // is reported in its outcome; the fleet keeps crawling the rest.
    src.error = turn.status();
  } else if (turn->stop_reason != StopReason::kRoundBudget) {
    src.finished = true;
    src.stop_reason = turn->stop_reason;
  } else if (options_.source_deadline_rounds > 0 &&
             src.engine->rounds_used() >= options_.source_deadline_rounds) {
    // Deadline spent: retire the source so it cannot stall the pool.
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
    at = std::max(at, clock_ + src.bucket.TicksUntilToken(clock_));
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

StatusOr<FleetResult> CrawlFleet::Run() {
  if (!seeded_) {
    PlantSeeds();
    seeded_ = true;
  }
  std::vector<uint32_t> eligible;
  for (;;) {
    if (options_.max_total_rounds > 0 &&
        total_rounds_ >= options_.max_total_rounds) {
      break;
    }
    eligible.clear();
    bool any_active = false;
    for (uint32_t i = 0; i < sources_.size(); ++i) {
      Source& src = sources_[i];
      if (!Active(src)) continue;
      any_active = true;
      src.bucket.Refill(clock_);
      if (Eligible(src)) eligible.push_back(i);
    }
    if (!any_active) break;
    if (eligible.empty()) {
      AdvanceToNextEligibility();
      continue;
    }
    DEEPCRAWL_RETURN_IF_ERROR(RunTurn(Pick(eligible)));
  }
  return BuildResult();
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
// behaviour depends on. Written by Save, compared field-for-field by
// Load — resuming under a different config would silently diverge.
struct FleetFingerprint {
  uint64_t seed;
  uint32_t num_sources;
  uint8_t scheduler;
  uint32_t batch;
  uint64_t turn_rounds;
  uint64_t source_deadline_rounds;
  uint32_t brk_consecutive;
  double brk_error_rate;
  uint32_t brk_min_turns;
  double brk_alpha;
  uint64_t brk_cooldown;
  double brk_multiplier;
  uint64_t brk_max_cooldown;
  uint32_t brk_quarantine;
  uint32_t brk_abandon;
  double pol_rate;
  double pol_burst;
  uint32_t retry_attempts;
  uint64_t retry_initial;
  uint64_t retry_max_backoff;
  double retry_multiplier;
  double retry_jitter;
  uint32_t retry_requeues;
  double hr_alpha;
  double hr_floor;

  bool operator==(const FleetFingerprint&) const = default;
};

FleetFingerprint FingerprintOf(const FleetOptions& options,
                               uint32_t num_sources) {
  FleetFingerprint fp;
  fp.seed = options.seed;
  fp.num_sources = num_sources;
  fp.scheduler = static_cast<uint8_t>(options.scheduler);
  fp.batch = options.batch;
  fp.turn_rounds = options.turn_rounds;
  fp.source_deadline_rounds = options.source_deadline_rounds;
  fp.brk_consecutive = options.breaker.consecutive_failed_turns;
  fp.brk_error_rate = options.breaker.error_rate_to_open;
  fp.brk_min_turns = options.breaker.min_turns_for_rate;
  fp.brk_alpha = options.breaker.ewma_alpha;
  fp.brk_cooldown = options.breaker.cooldown_ticks;
  fp.brk_multiplier = options.breaker.cooldown_multiplier;
  fp.brk_max_cooldown = options.breaker.max_cooldown_ticks;
  fp.brk_quarantine = options.breaker.quarantine_after_trips;
  fp.brk_abandon = options.breaker.abandon_after_trips;
  fp.pol_rate = options.politeness.rounds_per_tick;
  fp.pol_burst = options.politeness.burst;
  fp.retry_attempts = options.retry.max_attempts;
  fp.retry_initial = options.retry.initial_backoff_ticks;
  fp.retry_max_backoff = options.retry.max_backoff_ticks;
  fp.retry_multiplier = options.retry.backoff_multiplier;
  fp.retry_jitter = options.retry.jitter;
  fp.retry_requeues = options.retry.max_requeues;
  fp.hr_alpha = options.hr_ewma_alpha;
  fp.hr_floor = options.hr_floor;
  return fp;
}

void SaveFingerprint(CheckpointWriter& writer, const FleetFingerprint& fp) {
  writer.WriteU64(fp.seed);
  writer.WriteU32(fp.num_sources);
  writer.WriteU8(fp.scheduler);
  writer.WriteU32(fp.batch);
  writer.WriteU64(fp.turn_rounds);
  writer.WriteU64(fp.source_deadline_rounds);
  writer.WriteU32(fp.brk_consecutive);
  writer.WriteDouble(fp.brk_error_rate);
  writer.WriteU32(fp.brk_min_turns);
  writer.WriteDouble(fp.brk_alpha);
  writer.WriteU64(fp.brk_cooldown);
  writer.WriteDouble(fp.brk_multiplier);
  writer.WriteU64(fp.brk_max_cooldown);
  writer.WriteU32(fp.brk_quarantine);
  writer.WriteU32(fp.brk_abandon);
  writer.WriteDouble(fp.pol_rate);
  writer.WriteDouble(fp.pol_burst);
  writer.WriteU32(fp.retry_attempts);
  writer.WriteU64(fp.retry_initial);
  writer.WriteU64(fp.retry_max_backoff);
  writer.WriteDouble(fp.retry_multiplier);
  writer.WriteDouble(fp.retry_jitter);
  writer.WriteU32(fp.retry_requeues);
  writer.WriteDouble(fp.hr_alpha);
  writer.WriteDouble(fp.hr_floor);
}

FleetFingerprint LoadFingerprint(CheckpointReader& reader) {
  FleetFingerprint fp;
  fp.seed = reader.ReadU64();
  fp.num_sources = reader.ReadU32();
  fp.scheduler = reader.ReadU8();
  fp.batch = reader.ReadU32();
  fp.turn_rounds = reader.ReadU64();
  fp.source_deadline_rounds = reader.ReadU64();
  fp.brk_consecutive = reader.ReadU32();
  fp.brk_error_rate = reader.ReadDouble();
  fp.brk_min_turns = reader.ReadU32();
  fp.brk_alpha = reader.ReadDouble();
  fp.brk_cooldown = reader.ReadU64();
  fp.brk_multiplier = reader.ReadDouble();
  fp.brk_max_cooldown = reader.ReadU64();
  fp.brk_quarantine = reader.ReadU32();
  fp.brk_abandon = reader.ReadU32();
  fp.pol_rate = reader.ReadDouble();
  fp.pol_burst = reader.ReadDouble();
  fp.retry_attempts = reader.ReadU32();
  fp.retry_initial = reader.ReadU64();
  fp.retry_max_backoff = reader.ReadU64();
  fp.retry_multiplier = reader.ReadDouble();
  fp.retry_jitter = reader.ReadDouble();
  fp.retry_requeues = reader.ReadU32();
  fp.hr_alpha = reader.ReadDouble();
  fp.hr_floor = reader.ReadDouble();
  return fp;
}

}  // namespace

Status CrawlFleet::SaveState(CheckpointWriter& writer) const {
  WriteSectionMarker(writer, kSectionFleet);
  SaveFingerprint(writer, FingerprintOf(options_, num_sources()));
  writer.WriteU64(options_.chaos.size());
  for (const ChaosEvent& event : options_.chaos) {
    writer.WriteU32(event.source);
    writer.WriteU64(event.begin_turn);
    writer.WriteU64(event.end_turn);
    writer.WriteU8(static_cast<uint8_t>(event.action));
  }
  writer.WriteU64(clock_);
  writer.WriteU64(total_rounds_);
  writer.WriteU64(total_records_);
  writer.WriteU64(turns_completed_);
  writer.WriteU64(idle_ticks_);
  writer.WriteU32(last_picked_);
  writer.WriteU8(seeded_ ? 1 : 0);
  writer.WriteU64(fleet_trace_.points().size());
  for (const TracePoint& point : fleet_trace_.points()) {
    writer.WriteU64(point.rounds);
    writer.WriteU64(point.records);
  }

  for (uint32_t i = 0; i < sources_.size(); ++i) {
    const Source& src = sources_[i];
    WriteSectionMarker(writer, kSectionFleetSource);
    writer.WriteString(specs_[i].name);
    writer.WriteU8(src.finished ? 1 : 0);
    writer.WriteU8(static_cast<uint8_t>(src.stop_reason));
    writer.WriteU8(static_cast<uint8_t>(src.error.code()));
    writer.WriteString(src.error.message());
    writer.WriteU64(src.not_before);
    writer.WriteU64(src.turns);
    writer.WriteU8(src.health.seen ? 1 : 0);
    writer.WriteDouble(src.health.hr);
    writer.WriteDouble(src.health.err);
    writer.WriteDouble(src.bucket.tokens());
    writer.WriteU64(src.bucket.last_refill());
    src.breaker.SaveState(writer);
    src.engine->SaveState(writer);
    src.faulty->SaveState(writer);
  }
  WriteSectionMarker(writer, kSectionEnd);
  return Status::OK();
}

Status CrawlFleet::LoadState(CheckpointReader& reader) {
  if (turns_completed_ != 0 || clock_ != 0 || seeded_) {
    return Status::FailedPrecondition(
        "fleet checkpoint restore requires a freshly constructed fleet "
        "(no turns run, no seeds planted)");
  }
  if (!ExpectSectionMarker(reader, kSectionFleet, "FLET")) {
    return reader.status();
  }
  FleetFingerprint stored = LoadFingerprint(reader);
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());
  if (stored != FingerprintOf(options_, num_sources())) {
    return Status::InvalidArgument(
        "fleet checkpoint config mismatch: seed, source count, scheduler, "
        "or an isolation knob (breaker/politeness/retry/budget) differs "
        "from the checkpointing run");
  }
  uint64_t chaos_events = reader.ReadCount(21);
  if (reader.ok() && chaos_events != options_.chaos.size()) {
    return Status::InvalidArgument(
        "fleet checkpoint chaos-schedule mismatch: event count differs "
        "from the checkpointing run");
  }
  for (uint64_t i = 0; i < chaos_events && reader.ok(); ++i) {
    ChaosEvent event;
    event.source = reader.ReadU32();
    event.begin_turn = reader.ReadU64();
    event.end_turn = reader.ReadU64();
    uint8_t action = reader.ReadU8();
    if (reader.ok() && action > static_cast<uint8_t>(FaultAction::kDuplicate)) {
      reader.MarkCorrupt("chaos event action out of range");
      break;
    }
    event.action = static_cast<FaultAction>(action);
    if (reader.ok() && !(event == options_.chaos[i])) {
      return Status::InvalidArgument(
          "fleet checkpoint chaos-schedule mismatch: event " +
          std::to_string(i) + " differs from the checkpointing run");
    }
  }
  clock_ = reader.ReadU64();
  total_rounds_ = reader.ReadU64();
  total_records_ = reader.ReadU64();
  turns_completed_ = reader.ReadU64();
  idle_ticks_ = reader.ReadU64();
  last_picked_ = reader.ReadU32();
  seeded_ = reader.ReadU8() != 0;
  if (reader.ok() && last_picked_ >= num_sources()) {
    reader.MarkCorrupt("last-picked source id out of range");
  }
  uint64_t num_points = reader.ReadCount(16);
  uint64_t last_rounds = 0;
  uint64_t last_records = 0;
  for (uint64_t i = 0; i < num_points && reader.ok(); ++i) {
    uint64_t rounds = reader.ReadU64();
    uint64_t records = reader.ReadU64();
    if (i > 0 && (rounds <= last_rounds || records < last_records)) {
      reader.MarkCorrupt("fleet trace points not monotone");
      break;
    }
    last_rounds = rounds;
    last_records = records;
    fleet_trace_.Add(rounds, records);
  }
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());

  for (uint32_t i = 0; i < sources_.size(); ++i) {
    Source& src = sources_[i];
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
    src.finished = reader.ReadU8() != 0;
    uint8_t stop_reason = reader.ReadU8();
    if (reader.ok() &&
        stop_reason > static_cast<uint8_t>(StopReason::kTargetReached)) {
      reader.MarkCorrupt("source stop reason out of range");
    }
    src.stop_reason = static_cast<StopReason>(stop_reason);
    uint8_t error_code = reader.ReadU8();
    std::string error_message = reader.ReadString();
    if (reader.ok() &&
        error_code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
      reader.MarkCorrupt("source error code out of range");
    }
    DEEPCRAWL_RETURN_IF_ERROR(reader.status());
    src.error = error_code == 0
                    ? Status::OK()
                    : Status(static_cast<StatusCode>(error_code),
                             std::move(error_message));
    src.not_before = reader.ReadU64();
    src.turns = reader.ReadU64();
    src.health.seen = reader.ReadU8() != 0;
    src.health.hr = reader.ReadDouble();
    src.health.err = reader.ReadDouble();
    if (reader.ok() && (!(src.health.hr >= 0.0) || !(src.health.err >= 0.0) ||
                        src.health.err > 1.0)) {
      reader.MarkCorrupt("source health EWMA out of range");
    }
    double tokens = reader.ReadDouble();
    uint64_t last_refill = reader.ReadU64();
    if (reader.ok() &&
        (!(tokens >= 0.0) || tokens > options_.politeness.burst ||
         last_refill > clock_)) {
      reader.MarkCorrupt("token bucket state out of range");
    }
    DEEPCRAWL_RETURN_IF_ERROR(reader.status());
    src.bucket.Restore(tokens, last_refill);
    DEEPCRAWL_RETURN_IF_ERROR(src.breaker.LoadState(reader));
    // The engine payload replays its fetch log; the fault proxy it was
    // recorded behind is restored after it, since replay never fetches.
    DEEPCRAWL_RETURN_IF_ERROR(src.engine->LoadState(reader));
    DEEPCRAWL_RETURN_IF_ERROR(src.faulty->LoadState(reader));
  }
  if (!ExpectSectionMarker(reader, kSectionEnd, "END!")) {
    return reader.status();
  }
  return reader.status();
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
