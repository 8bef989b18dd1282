#include "tools/workload_setup.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <utility>

#include "src/datagen/adversarial_workload.h"
#include "src/datagen/canned_workloads.h"
#include "src/datagen/textual_workload.h"
#include "src/datagen/workload_config.h"
#include "src/relation/tsv.h"

namespace deepcrawl {

void RegisterWorkloadFlags(FlagParser& parser, WorkloadFlagOptions* options) {
  parser.AddString("input", &options->input,
                   "TSV file with the target database (see src/relation/"
                   "tsv.h for the format)");
  parser.AddString("workload", &options->workload,
                   "generate a canned workload instead: "
                   "ebay|acm|dblp|imdb|adversarial|textual|mixed");
  // Generators size tables by --scale relative to the paper's: (0, 1],
  // with the smallest positive normal double standing in for the open end.
  parser.AddDouble("scale", &options->scale,
                   std::numeric_limits<double>::min(), 1.0,
                   "scale factor for --workload (1.0 = paper size)");
  parser.AddInt64("gen-seed", &options->gen_seed, INT64_MIN, INT64_MAX,
                  "generator seed for --workload");
  parser.AddString("adv-family", &options->adv_family,
                   "adversarial family: trap (greedy pays ω(OPT)) | skew "
                   "(additive-log descent overhead)");
  parser.AddInt64("adv-buckets", &options->adv_buckets, 1, kFlagUint32Max,
                  "adversarial: requested non-decoy rank buckets "
                  "(rounded up to a power of two with the decoys)");
  parser.AddInt64("adv-records", &options->adv_records, 1, kFlagUint32Max,
                  "adversarial: records per occupied bucket (= the "
                  "server result limit the instance assumes)");
  parser.AddInt64("adv-decoy-buckets", &options->adv_decoy_buckets, 0,
                  kFlagUint32Max,
                  "adversarial trap: buckets carrying decoy mass");
  parser.AddInt64("adv-decoy-width", &options->adv_decoy_width, 0,
                  kFlagUint32Max,
                  "adversarial trap: unique decoy values per trapped "
                  "record");
  parser.AddInt64("adv-occupied", &options->adv_occupied, 1, kFlagUint32Max,
                  "adversarial skew: occupied lowest buckets");
  parser.AddInt64("txt-topics", &options->txt_topics, 1, kFlagUint32Max,
                  "textual/mixed: number of topic slices in the "
                  "vocabulary");
  parser.AddDouble("txt-affinity", &options->txt_affinity, 0.0, 1.0,
                   "textual/mixed: probability a term draw comes from "
                   "the document's topic slice");
}

StatusOr<Table> LoadTargetTable(const WorkloadFlagOptions& options,
                                std::optional<AdversarialGroundTruth>& adv) {
  if (!options.input.empty()) return ReadTableTsvFile(options.input);
  if (options.workload == "adversarial") {
    AdversarialConfig config;
    if (options.adv_family == "trap") {
      config.family = AdversarialFamily::kGreedyTrap;
    } else if (options.adv_family == "skew") {
      config.family = AdversarialFamily::kSkewedChain;
    } else {
      return Status::InvalidArgument("unknown --adv-family '" +
                                     options.adv_family + "' (trap|skew)");
    }
    config.leaf_buckets = static_cast<uint32_t>(options.adv_buckets);
    config.bucket_records = static_cast<uint32_t>(options.adv_records);
    config.decoy_buckets =
        static_cast<uint32_t>(options.adv_decoy_buckets);
    config.decoy_width = static_cast<uint32_t>(options.adv_decoy_width);
    config.occupied_leaves = static_cast<uint32_t>(options.adv_occupied);
    config.seed = static_cast<uint64_t>(options.gen_seed);
    DEEPCRAWL_ASSIGN_OR_RETURN(AdversarialInstance instance,
                               GenerateAdversarialInstance(config));
    adv.emplace();
    adv->opt_queries = instance.opt_queries;
    adv->result_limit = instance.result_limit;
    adv->root_value = instance.root_value;
    return std::move(instance.table);
  }
  static constexpr std::pair<std::string_view,
                             SyntheticDbConfig (*)(double, uint64_t)>
      kCanned[] = {{"ebay", EbayConfig},
                   {"acm", AcmDlConfig},
                   {"dblp", DblpConfig},
                   {"imdb", ImdbConfig}};
  for (const auto& [name, config] : kCanned) {
    if (options.workload != name) continue;
    return GenerateTable(config(options.scale, options.gen_seed));
  }
  if (options.workload == "textual" || options.workload == "mixed") {
    TextualDbConfig config;
    config.num_documents = static_cast<uint32_t>(
        std::max(1.0, 20000.0 * options.scale));
    config.vocabulary = static_cast<uint32_t>(
        std::max(16.0, 30000.0 * options.scale));
    config.num_topics = static_cast<uint32_t>(
        std::min<int64_t>(options.txt_topics, config.vocabulary));
    config.topic_affinity = options.txt_affinity;
    config.mixed = options.workload == "mixed";
    config.seed = static_cast<uint64_t>(options.gen_seed);
    return GenerateTextualTable(config);
  }
  return Status::InvalidArgument(
      "give --input=<tsv> or "
      "--workload=ebay|acm|dblp|imdb|adversarial|textual|mixed");
}

void RegisterServerFlags(FlagParser& parser, ServerFlagOptions* options) {
  parser.AddInt64("page-size", &options->page_size, 1, kFlagUint32Max,
                  "records per result page (k)");
  parser.AddInt64("result-limit", &options->result_limit, 0, kFlagUint32Max,
                  "max retrievable records per query (0 = unlimited)");
}

ServerOptions BuildServerOptions(
    const ServerFlagOptions& options,
    const std::optional<AdversarialGroundTruth>& adv) {
  ServerOptions server;
  server.page_size = static_cast<uint32_t>(options.page_size);
  server.result_limit = static_cast<uint32_t>(options.result_limit);
  if (adv.has_value() && options.result_limit == 0) {
    server.result_limit = adv->result_limit;
  }
  return server;
}

void RegisterFaultFlags(FlagParser& parser, FaultFlagOptions* options) {
  parser.AddString("fault-profile", &options->fault_profile,
                   "fault-injection preset: none|flaky|lossy|hostile");
  parser.AddDouble("fault-unavailable", &options->fault_unavailable, -1.0,
                   1.0,
                   "per-round probability of transient unavailability "
                   "(overrides the preset; negative = keep preset)");
  parser.AddDouble("fault-timeout", &options->fault_timeout, -1.0, 1.0,
                   "per-round probability of a deadline timeout");
  parser.AddDouble("fault-rate-limit", &options->fault_rate_limit, -1.0, 1.0,
                   "per-round probability of a rate-limit rejection");
  parser.AddDouble("fault-truncate", &options->fault_truncate, -1.0, 1.0,
                   "per-round probability of a silently truncated page");
  parser.AddDouble("fault-duplicate", &options->fault_duplicate, -1.0, 1.0,
                   "per-round probability of a duplicate-record echo");
  parser.AddInt64("fault-retry-after", &options->fault_retry_after, 0,
                  kFlagUint32Max,
                  "retry-after hint (rounds) on rate-limit rejections");
  parser.AddInt64("fault-seed", &options->fault_seed, INT64_MIN, INT64_MAX,
                  "RNG seed for fault injection and retry jitter");
  parser.AddBool("fault-keyed", &options->fault_keyed,
                 "key fault decisions by (query, page, attempt) instead "
                 "of fetch arrival order (forced on at --batch>1 and by "
                 "deepcrawl_serve: the inline executor and a wave "
                 "pipelined over TCP fetch in different orders)");
}

StatusOr<FaultProfile> FaultPreset(std::string_view name) {
  FaultProfile profile;
  if (name == "flaky") {
    // ~10% of rounds lost to transient failures, mixed kinds.
    profile.unavailable_rate = 0.05;
    profile.timeout_rate = 0.03;
    profile.rate_limit_rate = 0.02;
  } else if (name == "lossy") {
    // Pages silently lose or repeat records; no hard failures.
    profile.truncate_rate = 0.05;
    profile.duplicate_rate = 0.05;
  } else if (name == "hostile") {
    // Both at once, at rates that make retries and re-queues routine.
    profile.unavailable_rate = 0.10;
    profile.timeout_rate = 0.05;
    profile.rate_limit_rate = 0.05;
    profile.truncate_rate = 0.05;
    profile.duplicate_rate = 0.02;
  } else if (name != "none") {
    return Status::InvalidArgument("unknown --fault-profile '" +
                                   std::string(name) +
                                   "' (none|flaky|lossy|hostile)");
  }
  return profile;
}

StatusOr<FaultProfile> BuildFaultProfile(const FaultFlagOptions& options) {
  DEEPCRAWL_ASSIGN_OR_RETURN(FaultProfile profile,
                             FaultPreset(options.fault_profile));
  if (options.fault_unavailable >= 0.0) {
    profile.unavailable_rate = options.fault_unavailable;
  }
  if (options.fault_timeout >= 0.0) profile.timeout_rate = options.fault_timeout;
  if (options.fault_rate_limit >= 0.0) {
    profile.rate_limit_rate = options.fault_rate_limit;
  }
  if (options.fault_truncate >= 0.0) {
    profile.truncate_rate = options.fault_truncate;
  }
  if (options.fault_duplicate >= 0.0) {
    profile.duplicate_rate = options.fault_duplicate;
  }
  profile.retry_after_rounds =
      static_cast<uint32_t>(options.fault_retry_after);
  double sum = profile.unavailable_rate + profile.timeout_rate +
               profile.rate_limit_rate + profile.truncate_rate +
               profile.duplicate_rate;
  if (sum > 1.0) {
    return Status::InvalidArgument(
        "--fault-* rates must sum to at most 1 (got " + std::to_string(sum) +
        ")");
  }
  return profile;
}

}  // namespace deepcrawl
