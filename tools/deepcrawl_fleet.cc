// deepcrawl_fleet — multi-source fleet crawl driver (DESIGN.md §11).
//
// Builds a heterogeneous fleet of N simulated sources (cycling the
// paper's four canned workloads), crawls them under one global budget
// with per-source fault isolation — circuit breakers, retry-after
// floors, per-source deadlines — and reports each source's degradation
// explicitly.
//
// Examples:
//   # 8 sources, marginal-harvest scheduling, 90% coverage targets.
//   deepcrawl_fleet --sources=8 --scale=0.01 --target-coverage=0.9
//
//   # Same fleet under scripted chaos: source 1 dies at turn 6 forever,
//   # source 2 flaps, source 3 gets rate-limit storms.
//   deepcrawl_fleet --sources=8 --target-coverage=0.9 --chaos=hostile
//
//   # Custom chaos windows (kind:sources@begin[-end]; end exclusive,
//   # omitted = forever).
//   deepcrawl_fleet --sources=4 --chaos='dead:1@6;ratelimit:2,3@10-30'
//
//   # Checkpoint every turn; resume bit-identically after a crash.
//   deepcrawl_fleet --sources=8 --chaos=hostile ...
//       --checkpoint=fleet.ckpt --checkpoint-every=1
//   deepcrawl_fleet --sources=8 --chaos=hostile ...
//       --resume-from=fleet.ckpt --checkpoint=fleet.ckpt ...
//       --checkpoint-every=1

#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "src/fleet/chaos.h"
#include "src/fleet/crawl_fleet.h"
#include "src/server/faulty_server.h"
#include "src/util/flags.h"
#include "src/util/table_printer.h"
#include "tools/workload_setup.h"

namespace deepcrawl {
namespace {

struct Options {
  int64_t sources = 4;
  double scale = 0.01;
  int64_t gen_seed = 1;
  std::string policy = "greedy";
  std::string scheduler = "marginal-hr";
  int64_t batch = 1;
  double target_coverage = 0.9;
  double saturation = 0.85;
  int64_t num_seeds = 1;
  int64_t seed = 1;

  std::string fault_profile = "none";
  int64_t fault_retry_after = 4;
  int64_t retry_attempts = 4;
  int64_t retry_requeues = 2;
  std::string chaos;

  int64_t max_rounds = 0;
  int64_t turn_rounds = 16;
  int64_t source_deadline = 0;

  std::string checkpoint;
  int64_t checkpoint_every = 0;
  std::string resume_from;
  std::string trace_csv;

  bool help = false;
};

Status Run(const Options& options) {
  if (options.checkpoint_every > 0 && options.checkpoint.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every needs --checkpoint=<path>");
  }
  if (options.checkpoint_every == 0 && !options.checkpoint.empty()) {
    return Status::InvalidArgument(
        "--checkpoint needs --checkpoint-every=<turns>");
  }
  if (options.policy != "greedy" && options.policy != "mmmi" &&
      options.policy != "bfs" && options.policy != "dfs") {
    return Status::InvalidArgument("unknown --policy '" + options.policy +
                                   "' (greedy|mmmi|bfs|dfs)");
  }
  uint32_t num_sources = static_cast<uint32_t>(options.sources);

  DEEPCRAWL_ASSIGN_OR_RETURN(FaultProfile profile,
                             FaultPreset(options.fault_profile));
  profile.retry_after_rounds =
      static_cast<uint32_t>(options.fault_retry_after);
  DEEPCRAWL_ASSIGN_OR_RETURN(
      std::vector<FleetSourceSpec> specs,
      MakeFleetSourceSpecs(num_sources, options.scale,
                           options.target_coverage, profile,
                           static_cast<uint64_t>(options.gen_seed)));
  // With no target (--target-coverage=0) the merged line reports
  // coverage of all the sources' records instead.
  uint64_t fleet_target = 0;
  uint64_t fleet_records = 0;
  for (FleetSourceSpec& spec : specs) {
    // Each seed appends to the source's fetch log, and past the distinct
    // values a seed can only repeat one.
    if (static_cast<uint64_t>(options.num_seeds) >
        spec.table.num_distinct_values()) {
      return Status::InvalidArgument(
          "--seeds must be at most every source's distinct values (" +
          spec.name + " has " +
          std::to_string(spec.table.num_distinct_values()) + "), got " +
          std::to_string(options.num_seeds));
    }
    spec.policy = options.policy;
    spec.saturation = options.saturation;
    spec.num_seeds = static_cast<uint32_t>(options.num_seeds);
    fleet_target += static_cast<uint64_t>(
        options.target_coverage *
        static_cast<double>(spec.table.num_records()));
    fleet_records += spec.table.num_records();
  }

  FleetOptions fleet_options;
  fleet_options.seed = static_cast<uint64_t>(options.seed);
  DEEPCRAWL_ASSIGN_OR_RETURN(fleet_options.scheduler,
                             ParseSchedulerPolicy(options.scheduler));
  fleet_options.batch = static_cast<uint32_t>(options.batch);
  fleet_options.turn_rounds = static_cast<uint64_t>(options.turn_rounds);
  fleet_options.max_total_rounds =
      static_cast<uint64_t>(options.max_rounds);
  fleet_options.source_deadline_rounds =
      static_cast<uint64_t>(options.source_deadline);
  fleet_options.retry.max_attempts =
      static_cast<uint32_t>(options.retry_attempts);
  fleet_options.retry.max_requeues =
      static_cast<uint32_t>(options.retry_requeues);
  if (!options.chaos.empty()) {
    DEEPCRAWL_ASSIGN_OR_RETURN(
        fleet_options.chaos,
        ParseChaosSchedule(options.chaos, num_sources));
  }
  fleet_options.checkpoint_every_turns =
      static_cast<uint64_t>(options.checkpoint_every);
  if (options.checkpoint_every > 0) {
    fleet_options.checkpoint_sink =
        [path = options.checkpoint](const CrawlFleet& fleet) {
          return SaveFleetCheckpoint(fleet, path);
        };
  }

  CrawlFleet fleet(std::move(specs), fleet_options);
  std::cout << "fleet: " << num_sources << " sources, scheduler "
            << SchedulerPolicyToString(fleet_options.scheduler)
            << ", batch " << options.batch << ", chaos events "
            << fleet_options.chaos.size() << "\n";
  if (!options.resume_from.empty()) {
    DEEPCRAWL_RETURN_IF_ERROR(
        LoadFleetCheckpoint(options.resume_from, fleet));
    std::cout << "resumed from " << options.resume_from << ": "
              << fleet.total_records() << " records, "
              << fleet.total_rounds() << " rounds, "
              << fleet.turns_completed() << " turns\n";
  }

  DEEPCRAWL_ASSIGN_OR_RETURN(FleetResult result, fleet.Run());

  TablePrinter table({"source", "state", "records", "missing", "rounds",
                      "turns", "trips", "quarantine"});
  for (const FleetSourceOutcome& outcome : result.sources) {
    const SourceDegradation& d = outcome.degradation;
    std::string state = d.finished     ? "finished"
                        : d.abandoned  ? "abandoned"
                        : d.quarantined ? "quarantined"
                                        : "budget";
    if (!outcome.error.ok()) state = "failed";
    table.AddRow(
        {d.name, state, std::to_string(d.records_harvested),
         std::to_string(d.records_missing), std::to_string(d.rounds),
         std::to_string(d.turns),
         std::to_string(d.breaker.opens + d.breaker.reopens),
         std::to_string(d.ticks_quarantined) + " ticks"});
  }
  table.Print(std::cout);

  const bool has_target = options.target_coverage > 0.0;
  const uint64_t denominator = has_target ? fleet_target : fleet_records;
  double coverage = denominator == 0
                        ? 0.0
                        : static_cast<double>(result.merged.records) /
                              static_cast<double>(denominator);
  std::cout << "\nmerged: " << result.merged.records << " records ("
            << TablePrinter::FormatPercent(coverage, 1)
            << (has_target ? " of fleet target), "
                           : " of the sources' records), ")
            << result.merged.rounds << " rounds, " << result.turns
            << " turns, " << result.idle_ticks << " idle ticks\n";
  const ResilienceCounters& res = result.merged.resilience;
  std::cout << "resilience: " << res.transient_failures << " failures, "
            << res.retries << " retries, " << res.rate_limit_rejections
            << " rate-limited, " << res.abandoned_values
            << " values abandoned\n";

  if (!options.trace_csv.empty()) {
    std::ofstream file(options.trace_csv);
    if (!file) {
      return Status::NotFound("cannot create '" + options.trace_csv + "'");
    }
    DEEPCRAWL_RETURN_IF_ERROR(WriteFleetTraceCsv(result, file));
    std::cout << "trace written to: " << options.trace_csv << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace deepcrawl

int main(int argc, char** argv) {
  using namespace deepcrawl;
  Options options;
  FlagParser parser;
  parser.AddInt64("sources", &options.sources, 1, kFlagUint32Max,
                  "number of simulated sources (cycles ebay/acm/dblp/imdb)");
  parser.AddDouble("scale", &options.scale,
                   std::numeric_limits<double>::min(), 1.0,
                   "workload scale factor (1.0 = paper sizes)");
  parser.AddInt64("gen-seed", &options.gen_seed, INT64_MIN, INT64_MAX,
                  "base generator seed (offset per source)");
  parser.AddString("policy", &options.policy,
                   "per-source query selection: greedy|mmmi|bfs|dfs");
  parser.AddString("scheduler", &options.scheduler,
                   "turn scheduler: marginal-hr|round-robin|sequential");
  parser.AddInt64("batch", &options.batch, 1, kFlagUint32Max,
                  "per-source engine wave width");
  parser.AddDouble("target-coverage", &options.target_coverage, 0.0, 1.0,
                   "per-source stop target as a fraction of its records "
                   "(0 = crawl to exhaustion)");
  parser.AddDouble("saturation", &options.saturation, 0.0, 1.0,
                   "coverage at which MMMI switches on (0 = never)");
  parser.AddInt64("seeds", &options.num_seeds, 1, kFlagUint32Max,
                  "seed values planted per source (at most the smallest "
                  "source's distinct values)");
  parser.AddInt64("seed", &options.seed, INT64_MIN, INT64_MAX,
                  "fleet seed (per-source fault/retry streams derive "
                  "from it)");
  parser.AddString("fault-profile", &options.fault_profile,
                   "background fault preset on every source: "
                   "none|flaky|lossy|hostile");
  parser.AddInt64("fault-retry-after", &options.fault_retry_after, 0,
                  kFlagUint32Max,
                  "retry-after hint (rounds) on rate-limit rejections");
  parser.AddInt64("retry-attempts", &options.retry_attempts, 1,
                  kFlagUint32Max,
                  "max fetch attempts per value drain");
  parser.AddInt64("retry-requeues", &options.retry_requeues, 0,
                  kFlagUint32Max,
                  "times a failed value is re-queued before abandonment");
  parser.AddString("chaos", &options.chaos,
                   "scripted fault windows: 'hostile' or "
                   "'kind:src[,src...]@begin[-end];...' with kinds "
                   "dead|timeout|ratelimit (turn numbers, end exclusive)");
  parser.AddInt64("max-rounds", &options.max_rounds, 0, INT64_MAX,
                  "global communication-round budget (0 = unbounded)");
  parser.AddInt64("turn-rounds", &options.turn_rounds, 1, INT64_MAX,
                  "rounds granted per scheduler turn");
  parser.AddInt64("source-deadline", &options.source_deadline, 0, INT64_MAX,
                  "per-source total round deadline (0 = unbounded)");
  parser.AddString("checkpoint", &options.checkpoint,
                   "write a resumable whole-fleet checkpoint here");
  parser.AddInt64("checkpoint-every", &options.checkpoint_every, 0,
                  INT64_MAX,
                  "checkpoint after every N completed turns "
                  "(0 = never; needs --checkpoint)");
  parser.AddString("resume-from", &options.resume_from,
                   "resume the fleet from this checkpoint (other flags "
                   "must rebuild the same fleet)");
  parser.AddString("trace-csv", &options.trace_csv,
                   "write the per-source rounds/records trace CSV here");
  parser.AddBool("help", &options.help, "print this help");

  Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.ToString() << "\n\nflags:\n"
              << parser.HelpText();
    return 2;
  }
  if (options.help) {
    std::cout << "deepcrawl_fleet — fault-isolated multi-source fleet "
                 "crawling\n\nflags:\n"
              << parser.HelpText();
    return 0;
  }
  Status status = Run(options);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
