// deepcrawl_crawl — a command-line hidden-Web crawl driver.
//
// The paper's conclusion names "the implementation and deployment of a
// real world product database crawler" as future work; this tool is that
// front end for the simulated substrate: load (or generate) a target
// database, put it behind the query-interface simulator, crawl it with
// any of the library's selection policies, and export the harvest and
// the coverage trace.
//
// Examples:
//   # Crawl a TSV dump with greedy-link selection, write the harvest.
//   deepcrawl_crawl --input=cars.tsv --policy=greedy ...
//       --output-tsv=harvest.tsv --trace-csv=trace.csv
//
//   # Generate the paper's eBay workload and crawl to 90% coverage.
//   deepcrawl_crawl --workload=ebay --scale=0.1 --policy=mmmi ...
//       --target-coverage=0.9
//
//   # Domain-knowledge crawl: the DT comes from a second TSV.
//   deepcrawl_crawl --input=amazon.tsv --policy=domain ...
//       --domain-input=imdb.tsv
//
//   # Crawl a source that fails 10% of the time, with retries.
//   deepcrawl_crawl --workload=ebay --scale=0.1 --policy=greedy ...
//       --fault-profile=flaky --fault-seed=7
//
//   # Checkpoint every 64 waves; later resume from the last checkpoint
//   # (same flags!) and continue bit-identically.
//   deepcrawl_crawl --workload=ebay --policy=greedy ...
//       --checkpoint=crawl.ckpt --checkpoint-every=64
//   deepcrawl_crawl --workload=ebay --policy=greedy ...
//       --resume-from=crawl.ckpt --checkpoint=crawl.ckpt --checkpoint-every=64
//
//   # Crawl a remote WebDB served by deepcrawl_serve, pipelining each
//   # wave over 8 TCP connections. The workload flags must match the
//   # server's so selector bookkeeping (catalog, hierarchy, coverage
//   # accounting) lines up with the pages coming off the wire; fault
//   # flags describe what the SERVER injects (they size the client's
//   # retry budget and jitter seed — faults themselves live
//   # server-side).
//   deepcrawl_crawl --workload=ebay --policy=greedy ...
//       --connect=127.0.0.1:9317 --connections=8 --batch=32

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/domain/domain_table.h"
#include "src/estimate/chao.h"
#include "src/net/net_client.h"
#include "src/relation/tsv.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/flags.h"
#include "src/util/random.h"
#include "src/util/table_printer.h"
#include "tools/selector_factory.h"
#include "tools/workload_setup.h"

namespace deepcrawl {
namespace {

struct Options {
  WorkloadFlagOptions workload;
  ServerFlagOptions server;
  FaultFlagOptions fault;

  std::string policy = "greedy";
  std::string rank_attribute = "range";
  std::string domain_input;
  bool counts = true;
  bool keyword = false;
  int64_t max_rounds = 0;
  double target_coverage = 0.0;
  double saturation = 0.85;
  int64_t num_seeds = 1;
  int64_t seed = 1;
  std::string trace_csv;
  std::string output_tsv;

  int64_t retry_attempts = 4;
  int64_t retry_requeues = 2;

  // EngineOptions::batch (src/crawler/crawl_engine.h); batch=1 is the
  // serial crawl order.
  int64_t batch = 1;

  // Network crawl (src/net/net_client.h): fetch pages from a
  // deepcrawl_serve process instead of an in-process simulator.
  std::string connect;
  int64_t connections = 4;
  int64_t connect_retry_ms = 15000;

  // Checkpoint/resume (src/crawler/checkpoint.h).
  std::string checkpoint;
  int64_t checkpoint_every = 0;
  std::string resume_from;

  bool help = false;
  bool list_selectors = false;
};

// Splits host:port; host may be omitted ("9317" = 127.0.0.1:9317).
Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port) {
  std::string port_text = spec;
  *host = "127.0.0.1";
  size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) *host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  int value = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') value = -1;
    if (value >= 0) value = value * 10 + (c - '0');
    if (value > 65535) value = -1;
  }
  if (port_text.empty() || value <= 0) {
    return Status::InvalidArgument("bad --connect '" + spec +
                                   "' (want host:port)");
  }
  *port = static_cast<uint16_t>(value);
  return Status::OK();
}

// Writes the harvested records back out as a TSV, reconstructing cells
// through the target's catalog.
Status WriteHarvest(const Table& target, const LocalStore& store,
                    const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::NotFound("cannot create '" + path + "'");
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    WriteTsvRow(target, store.RecordValues(slot), file);
  }
  if (!file) return Status::Internal("write failed");
  return Status::OK();
}

// Wall-clock seconds since `start`, printed with millisecond precision.
std::string SecondsSince(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  char text[32];
  std::snprintf(text, sizeof(text), "%.3f s", elapsed.count());
  return text;
}

Status Run(const Options& options) {
  if (options.checkpoint_every > 0 && options.checkpoint.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every needs --checkpoint=<path>");
  }
  if (options.checkpoint_every == 0 && !options.checkpoint.empty()) {
    return Status::InvalidArgument(
        "--checkpoint needs --checkpoint-every=<waves>");
  }
  std::optional<AdversarialGroundTruth> adv;
  const auto generate_start = std::chrono::steady_clock::now();
  DEEPCRAWL_ASSIGN_OR_RETURN(Table target,
                             LoadTargetTable(options.workload, adv));
  const std::string generate_time = SecondsSince(generate_start);
  // Each seed appends to the fetch log, and past the distinct values a
  // seed can only repeat one.
  if (static_cast<uint64_t>(options.num_seeds) >
      target.num_distinct_values()) {
    return Status::InvalidArgument(
        "--seeds must be at most the target's " +
        std::to_string(target.num_distinct_values()) +
        " distinct values, got " + std::to_string(options.num_seeds));
  }
  // An adversarial crawl always seeds from the hierarchy root (below).
  if (adv.has_value() && options.num_seeds != 1) {
    return Status::InvalidArgument(
        "--seeds is unused by --workload=adversarial, which seeds from the "
        "hierarchy root; got " + std::to_string(options.num_seeds));
  }
  std::cout << "target: " << target.num_records() << " records, "
            << target.num_distinct_values() << " distinct values, "
            << target.schema().num_attributes() << " attributes\n";
  if (adv.has_value()) {
    std::cout << "adversarial: family=" << options.workload.adv_family
              << " opt=" << adv->opt_queries << " queries (result limit "
              << adv->result_limit << ")\n";
  }

  // Optional domain table (required by --policy=domain).
  std::optional<DomainTable> dt;
  std::optional<Table> domain_sample;
  if (!options.domain_input.empty()) {
    DEEPCRAWL_ASSIGN_OR_RETURN(Table sample,
                               ReadTableTsvFile(options.domain_input));
    domain_sample = std::move(sample);
    dt = DomainTable::Build(*domain_sample, target.schema(),
                            target.mutable_catalog());
    std::cout << "domain table: " << dt->num_entries()
              << " candidate queries from " << dt->num_domain_records()
              << " sample records\n";
  }

  ServerOptions server_options = BuildServerOptions(options.server, adv);
  server_options.reports_total_count = options.counts;
  const auto index_start = std::chrono::steady_clock::now();
  WebDbServer backend(target, server_options);
  // Wall-clock, so outside the determinism contract (traces and CSVs
  // carry no time).
  std::cout << "setup: generate " << generate_time << ", index "
            << SecondsSince(index_start) << "\n";

  const bool network = !options.connect.empty();

  // With faults configured, the crawler talks to the fault proxy and
  // survives the failures through its retry policy. Over --connect the
  // proxy lives in the SERVER process; the flags here only size the
  // client's retry machinery identically to the in-process run.
  DEEPCRAWL_ASSIGN_OR_RETURN(FaultProfile profile,
                             BuildFaultProfile(options.fault));
  bool faults_enabled = !profile.IsAllZero();
  std::optional<FaultyServer> faulty;
  if (faults_enabled && !network) {
    faulty.emplace(backend, profile,
                   static_cast<uint64_t>(options.fault.fault_seed));
    std::cout << "faults: unavailable=" << profile.unavailable_rate
              << " timeout=" << profile.timeout_rate
              << " rate-limit=" << profile.rate_limit_rate
              << " truncate=" << profile.truncate_rate
              << " duplicate=" << profile.duplicate_rate << "\n";
  }

  // Assemble the query stack: either the in-process simulator (behind
  // the optional fault proxy) or a network client talking to a
  // deepcrawl_serve process.
  std::unique_ptr<NetQueryClient> net_client;
  std::optional<NetFetchExecutor> net_executor;
  QueryInterface* server = nullptr;
  if (network) {
    NetClientOptions net_options;
    DEEPCRAWL_RETURN_IF_ERROR(
        ParseHostPort(options.connect, &net_options.host, &net_options.port));
    net_options.connections = static_cast<uint32_t>(options.connections);
    net_options.reconnect_window_ms =
        static_cast<uint64_t>(options.connect_retry_ms);
    DEEPCRAWL_ASSIGN_OR_RETURN(net_client,
                               NetQueryClient::Connect(net_options));
    net_executor.emplace(*net_client);
    server = net_client.get();
    const ServerOptions& remote = net_client->options();
    std::cout << "connected: " << net_options.host << ":" << net_options.port
              << " (" << options.connections << " connections, page size "
              << remote.page_size << ", result limit " << remote.result_limit
              << ", " << net_client->server_info().num_values
              << " values)\n";
    // The selector plans against the locally built catalog; a server
    // with a different schema would silently desynchronize the crawl,
    // so mismatches are errors, not warnings.
    if (remote.page_size != server_options.page_size ||
        remote.result_limit != server_options.result_limit ||
        remote.reports_total_count != server_options.reports_total_count ||
        net_client->server_info().num_values != target.num_distinct_values()) {
      return Status::FailedPrecondition(
          "server interface mismatch: the deepcrawl_serve process was "
          "started with different workload/interface flags than this crawl");
    }
  } else if (faulty.has_value()) {
    server = &*faulty;
  } else {
    server = &backend;
  }

  RetryPolicyConfig retry_config;
  retry_config.max_attempts = static_cast<uint32_t>(options.retry_attempts);
  retry_config.max_requeues = static_cast<uint32_t>(options.retry_requeues);
  retry_config.seed = static_cast<uint64_t>(options.fault.fault_seed);
  RetryPolicy retry_policy(retry_config);

  LocalStore store;
  SelectorContext selector_context;
  selector_context.store = &store;
  selector_context.seed = static_cast<uint64_t>(options.seed);
  selector_context.page_size = server_options.page_size;
  selector_context.result_limit = server_options.result_limit;
  selector_context.target = &target;
  selector_context.rank_attribute = options.rank_attribute;
  selector_context.oracle_index = &backend.index();
  if (dt.has_value()) selector_context.domain = &*dt;
  DEEPCRAWL_ASSIGN_OR_RETURN(
      std::unique_ptr<QuerySelector> selector,
      MakeSelectorByName(options.policy, selector_context));

  CrawlOptions crawl_options;
  crawl_options.max_rounds = static_cast<uint64_t>(options.max_rounds);
  crawl_options.use_keyword_interface = options.keyword;
  if (options.target_coverage > 0.0) {
    crawl_options.target_records = static_cast<uint64_t>(
        options.target_coverage *
        static_cast<double>(target.num_records()));
  }
  if (options.saturation > 0.0) {
    crawl_options.saturation_records = static_cast<uint64_t>(
        options.saturation * static_cast<double>(target.num_records()));
  }

  FaultyServer* faulty_ptr = faulty.has_value() ? &*faulty : nullptr;
  EngineOptions engine_options;
  engine_options.batch = static_cast<uint32_t>(options.batch);
  engine_options.checkpoint_every_waves =
      static_cast<uint64_t>(options.checkpoint_every);
  if (net_executor.has_value()) {
    engine_options.shared_executor = &*net_executor;
  }
  if (options.checkpoint_every > 0) {
    engine_options.checkpoint_sink =
        [faulty_ptr, path = options.checkpoint](const CrawlEngine& engine) {
          return SaveCrawlCheckpoint(engine, faulty_ptr, path);
        };
  }
  // A network crawl keeps the retry policy even without local fault
  // flags: transient socket-level kUnavailable must be paced, not fatal.
  bool use_retry = faults_enabled || network;
  CrawlEngine engine(*server, *selector, store, crawl_options, engine_options,
                     /*abort_policy=*/nullptr,
                     use_retry ? &retry_policy : nullptr);
  if (options.batch > 1) {
    std::cout << "batched engine: " << options.batch
              << " drain slots per wave\n";
  }
  // The seeds this command line plants. Every policy on the adversarial
  // workload starts from the hierarchy root: it matches every record, so
  // the comparison is fair and no policy luckily seeds inside a decoy
  // cluster. A resumed crawl must name the checkpointing run's seeds.
  std::vector<ValueId> seeds;
  if (adv.has_value()) {
    seeds.push_back(adv->root_value);
  } else {
    Pcg32 rng(static_cast<uint64_t>(options.seed));
    for (int64_t i = 0; i < options.num_seeds; ++i) {
      ValueId seed_value = rng.NextBounded(
          static_cast<uint32_t>(target.num_distinct_values()));
      while (target.value_frequency(seed_value) == 0) {
        seed_value = static_cast<ValueId>(
            (seed_value + 1) % target.num_distinct_values());
      }
      seeds.push_back(seed_value);
    }
  }
  if (!options.resume_from.empty()) {
    // Rebuilds the crawl state (store, selector, retry queues, parked
    // slots, trace) by replaying the checkpoint's fetch log, and
    // restores the fault proxy's per-page attempt table. The command
    // line must rebuild the same stack the checkpoint was taken from;
    // the budgets below are then re-applied so a resume can raise them.
    DEEPCRAWL_RETURN_IF_ERROR(
        LoadCrawlCheckpoint(options.resume_from, engine, faulty_ptr));
    if (engine.seeds() != seeds) {
      return Status::InvalidArgument(
          "--seeds/--seed plant other seeds than the checkpoint's crawl "
          "did; resume with the checkpointing run's --seeds and --seed");
    }
    engine.set_max_rounds(crawl_options.max_rounds);
    engine.set_target_records(crawl_options.target_records);
    std::cout << "resumed from " << options.resume_from << ": "
              << engine.store().num_records() << " records, "
              << engine.rounds_used() << " rounds, "
              << engine.waves_completed() << " waves\n";
  } else {
    for (ValueId seed : seeds) engine.AddSeed(seed);
  }

  DEEPCRAWL_ASSIGN_OR_RETURN(CrawlResult result, engine.Run());
  if (options.checkpoint_every > 0) {
    std::cout << "checkpoints: every " << options.checkpoint_every
              << " waves to " << options.checkpoint << " ("
              << engine.waves_completed() << " waves completed)\n";
  }

  double coverage = target.num_records() == 0
                        ? 0.0
                        : static_cast<double>(result.records) /
                              static_cast<double>(target.num_records());
  ChaoEstimate chao = Chao1Estimate(store);
  std::cout << "\npolicy " << selector->name() << " ("
            << StopReasonToString(result.stop_reason) << ")\n"
            << "  records harvested:  " << result.records << " ("
            << TablePrinter::FormatPercent(coverage, 1) << " coverage)\n"
            << "  communication:      " << result.rounds << " rounds, "
            << result.queries << " queries\n"
            << "  online size est.:   "
            << TablePrinter::FormatDouble(chao.estimated_total, 0)
            << " records (Chao1)\n";
  if (result.rtt.fetches > 0) {
    // Measured socket round trips of a --connect crawl (see
    // RttCounters).
    std::cout << "  round-trip time:    mean "
              << TablePrinter::FormatDouble(result.rtt.MeanUs(), 1)
              << "us (min " << result.rtt.min_rtt_us << "us, max "
              << result.rtt.max_rtt_us << "us, over " << result.rtt.fetches
              << " fetches)\n";
  }
  if (net_client) {
    std::cout << "  network:            " << options.connections
              << " connections, " << net_client->reconnects()
              << " reconnects\n";
  }
  if (adv.has_value() && adv->opt_queries > 0) {
    double ratio = static_cast<double>(result.queries) /
                   static_cast<double>(adv->opt_queries);
    std::cout << "  competitive: queries=" << result.queries
              << " opt=" << adv->opt_queries
              << " ratio=" << TablePrinter::FormatDouble(ratio, 3) << "\n";
  }
  if (use_retry) {
    const ResilienceCounters& res = result.resilience;
    std::cout << "  resilience:         " << res.transient_failures
              << " failures, " << res.retries << " retries ("
              << res.backoff_ticks << " backoff ticks), " << res.requeues
              << " re-queues, " << res.abandoned_values << " abandoned\n";
  }

  if (!options.trace_csv.empty()) {
    std::ofstream file(options.trace_csv);
    if (!file) {
      return Status::NotFound("cannot create '" + options.trace_csv + "'");
    }
    DEEPCRAWL_RETURN_IF_ERROR(WriteTraceCsv(result.trace, file));
    std::cout << "  trace written to:   " << options.trace_csv << "\n";
  }
  if (!options.output_tsv.empty()) {
    DEEPCRAWL_RETURN_IF_ERROR(
        WriteHarvest(target, store, options.output_tsv));
    std::cout << "  harvest written to: " << options.output_tsv << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace deepcrawl

int main(int argc, char** argv) {
  using namespace deepcrawl;
  Options options;
  FlagParser parser;
  RegisterWorkloadFlags(parser, &options.workload);
  parser.AddString("policy", &options.policy, kKnownPolicies);
  parser.AddString("rank-attribute", &options.rank_attribute,
                   "attribute carrying r<lo>-<hi> interval values for "
                   "--policy=opt-rank/opt-threshold");
  parser.AddString("domain-input", &options.domain_input,
                   "TSV with a same-domain sample database (builds the "
                   "domain statistics table)");
  RegisterServerFlags(parser, &options.server);
  parser.AddBool("counts", &options.counts,
                 "server reports total match counts (--no-counts to "
                 "disable)");
  parser.AddBool("keyword", &options.keyword,
                 "crawl through the keyword box instead of typed fields");
  parser.AddInt64("max-rounds", &options.max_rounds, 0, INT64_MAX,
                  "communication-round budget (0 = unbounded)");
  parser.AddDouble("target-coverage", &options.target_coverage, 0.0, 1.0,
                   "stop at this fraction of the target's records "
                   "(0 = crawl to exhaustion)");
  parser.AddDouble("saturation", &options.saturation, 0.0, 1.0,
                   "coverage at which MMMI switches on (0 = never)");
  parser.AddInt64("seeds", &options.num_seeds, 1, INT64_MAX,
                  "number of random seed values (at most the target's "
                  "distinct values)");
  parser.AddInt64("seed", &options.seed, INT64_MIN, INT64_MAX,
                  "RNG seed for seed-value choice");
  parser.AddString("trace-csv", &options.trace_csv,
                   "write the rounds/records trace to this CSV");
  parser.AddString("output-tsv", &options.output_tsv,
                   "write the harvested records to this TSV");
  RegisterFaultFlags(parser, &options.fault);
  parser.AddInt64("retry-attempts", &options.retry_attempts, 1,
                  kFlagUint32Max,
                  "max fetch attempts per value drain under faults");
  parser.AddInt64("retry-requeues", &options.retry_requeues, 0,
                  kFlagUint32Max,
                  "times a failed value is re-queued before abandonment");
  parser.AddInt64("batch", &options.batch, 1, kFlagUint32Max,
                  "drain slots per wave, each wave planned from the last "
                  "one's knowledge (batch=1 reproduces the serial crawl "
                  "order exactly; with --connect a wave is pipelined "
                  "over the connections)");
  parser.AddString("connect", &options.connect,
                   "crawl a remote WebDB at host:port (deepcrawl_serve) "
                   "instead of simulating in-process; workload flags must "
                   "match the server's");
  parser.AddInt64("connections", &options.connections, 1, kFlagUint32Max,
                  "TCP connections the network executor pipelines each "
                  "wave over (with --connect)");
  parser.AddInt64("connect-retry-ms", &options.connect_retry_ms, 0,
                  INT64_MAX,
                  "total budget for re-reaching a dead server before a "
                  "fetch fails with unavailable (with --connect)");
  parser.AddString("checkpoint", &options.checkpoint,
                   "write a resumable crawl checkpoint to this path "
                   "(atomically replaced at every boundary)");
  parser.AddInt64("checkpoint-every", &options.checkpoint_every, 0,
                  INT64_MAX,
                  "checkpoint after every N completed waves "
                  "(0 = never; needs --checkpoint)");
  parser.AddString("resume-from", &options.resume_from,
                   "resume a crawl from this checkpoint file by replaying "
                   "its fetch log (no source call; any policy); the other "
                   "flags must rebuild the stack it was taken from "
                   "(--max-rounds/--target-coverage may be raised)");
  parser.AddBool("list-selectors", &options.list_selectors,
                 "print every registered selection policy and exit");
  parser.AddBool("help", &options.help, "print this help");

  Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.ToString() << "\n\nflags:\n"
              << parser.HelpText();
    return 2;
  }
  if (options.help) {
    std::cout << "deepcrawl_crawl — query-selection crawling of a "
                 "(simulated) hidden-Web database\n\nflags:\n"
              << parser.HelpText();
    return 0;
  }
  if (options.list_selectors) {
    std::cout << FormatSelectorList();
    return 0;
  }
  Status status = Run(options);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
