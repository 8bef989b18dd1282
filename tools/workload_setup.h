// Shared target-database, query-interface and fault-injection setup for
// the command-line tools. deepcrawl_crawl and deepcrawl_serve must
// assemble IDENTICAL workloads, server options and fault profiles from
// identical flags — a TCP crawl is only comparable to an in-process one
// if the server process built the same database the client run would
// have built locally — so the flag registration, the table construction,
// the ServerOptions and the FaultProfile assembly live here once.

#ifndef DEEPCRAWL_TOOLS_WORKLOAD_SETUP_H_
#define DEEPCRAWL_TOOLS_WORKLOAD_SETUP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/relation/table.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/flags.h"
#include "src/util/status.h"

namespace deepcrawl {

// Flags selecting the target database: a TSV dump or a generated
// workload (see src/datagen/).
struct WorkloadFlagOptions {
  std::string input;
  std::string workload;
  double scale = 0.1;
  int64_t gen_seed = 1;

  // --workload=adversarial knobs (src/datagen/adversarial_workload.h).
  std::string adv_family = "trap";
  int64_t adv_buckets = 16;
  int64_t adv_records = 8;
  int64_t adv_decoy_buckets = 4;
  int64_t adv_decoy_width = 16;
  int64_t adv_occupied = 2;

  // --workload=textual|mixed knobs (src/datagen/textual_workload.h);
  // document and vocabulary counts follow --scale.
  int64_t txt_topics = 12;
  double txt_affinity = 0.7;
};

// Ground truth carried out of an adversarial generation: the crawl
// seeds from the hierarchy root and reports its query cost against OPT.
struct AdversarialGroundTruth {
  uint64_t opt_queries = 0;
  uint32_t result_limit = 0;
  ValueId root_value = kInvalidValueId;
};

void RegisterWorkloadFlags(FlagParser& parser, WorkloadFlagOptions* options);

// Loads --input or generates --workload; fills `adv` for
// --workload=adversarial.
StatusOr<Table> LoadTargetTable(const WorkloadFlagOptions& options,
                                std::optional<AdversarialGroundTruth>& adv);

// Flags shaping the query interface (src/server/web_db_server.h).
struct ServerFlagOptions {
  int64_t page_size = 10;
  int64_t result_limit = 0;
};

void RegisterServerFlags(FlagParser& parser, ServerFlagOptions* options);

// The flags as ServerOptions. An adversarial target with no
// --result-limit gets the per-bucket limit its OPT bookkeeping assumes.
ServerOptions BuildServerOptions(
    const ServerFlagOptions& options,
    const std::optional<AdversarialGroundTruth>& adv);

// Flags configuring the fault-injection proxy (src/server/
// faulty_server.h): a preset profile plus per-rate overrides.
struct FaultFlagOptions {
  std::string fault_profile = "none";
  double fault_unavailable = -1.0;
  double fault_timeout = -1.0;
  double fault_rate_limit = -1.0;
  double fault_truncate = -1.0;
  double fault_duplicate = -1.0;
  int64_t fault_retry_after = 4;
  int64_t fault_seed = 1;
  bool fault_keyed = false;
};

void RegisterFaultFlags(FlagParser& parser, FaultFlagOptions* options);

// The rates of a named preset: none|flaky|lossy|hostile.
StatusOr<FaultProfile> FaultPreset(std::string_view name);

// Resolves the preset + overrides into a validated FaultProfile.
StatusOr<FaultProfile> BuildFaultProfile(const FaultFlagOptions& options);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_TOOLS_WORKLOAD_SETUP_H_
