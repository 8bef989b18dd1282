// crawlbench — end-to-end crawl benchmark, one workload per process.
//
//   crawlbench --workload greedy-imdb --seed 1 --seconds 30 --trace 0
//
// Crawls the workload again and again (a fresh setup each time) for
// --seconds, checks every crawl's output, and prints the end-to-end
// metrics (--trace 0) or, from one extra traced crawl, the per-layer
// metrics (--trace 1). The last line of stdout is the JSON result. Exits 1
// when any output check failed, 2 on a usage error. See README.md; run it
// through run.py, which builds it first.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "crawlbench/metric_math.h"
#include "crawlbench/tracing.h"
#include "crawlbench/workloads.h"

#ifndef CRAWLBENCH_COMPILER
#define CRAWLBENCH_COMPILER "unknown"
#endif
#ifndef CRAWLBENCH_BUILD_TYPE
#define CRAWLBENCH_BUILD_TYPE "unknown"
#endif

namespace crawlbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  int trace = 0;
  // Parent of the per-crawl checkpoint directories and the spans file.
  std::string scratch = ".bench_build/scratch";
  // Identifies the sources measured (git commit or a source digest).
  std::string source = "unknown";
};

// Crawls per run, however short --seconds is: medians need a few samples.
constexpr size_t kMinCrawls = 3;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--scratch") {
      args->scratch = value;
    } else if (key == "--source") {
      args->source = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string EnvJson(const Args& args) {
  char text[1024];
  std::snprintf(text, sizeof(text),
                "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"seconds\": %g, \"nproc\": %ld, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"source\": \"%s\"}",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace,
                args.seconds, sysconf(_SC_NPROCESSORS_ONLN),
                CRAWLBENCH_COMPILER, CRAWLBENCH_BUILD_TYPE,
                args.source.c_str());
  return text;
}

// Runs `work` in a forked child and waits for it. Every untraced crawl
// thus starts from a fresh process, allocator state included, as a
// deepcrawl_crawl run does, and wait4's peak RSS is that crawl's alone.
deepcrawl::StatusOr<CrawlSample> RunInChild(
    const std::function<deepcrawl::StatusOr<CrawlSample>()>& work) {
  static_assert(std::is_trivially_copyable_v<CrawlSample>);
  int fds[2];
  if (pipe(fds) != 0) return deepcrawl::Status::Internal("pipe failed");
  std::fflush(stdout);  // the child must not inherit buffered output
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return deepcrawl::Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    deepcrawl::StatusOr<CrawlSample> sample = work();
    std::string reply =
        sample.ok() ? std::string(reinterpret_cast<const char*>(&*sample),
                                  sizeof(CrawlSample))
                    : sample.status().ToString();
    bool written = write(fds[1], reply.data(), reply.size()) ==
                   static_cast<ssize_t>(reply.size());
    _exit(sample.ok() && written ? 0 : 1);
  }
  close(fds[1]);
  std::string reply;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof(buffer))) != 0) {
    if (n > 0) reply.append(buffer, static_cast<size_t>(n));
    if (n < 0 && errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status)) {
    return deepcrawl::Status::Internal("crawl process killed by signal " +
                                       std::to_string(WTERMSIG(status)));
  }
  if (WEXITSTATUS(status) != 0 || reply.size() != sizeof(CrawlSample)) {
    return deepcrawl::Status::Internal("crawl process failed: " + reply);
  }
  CrawlSample sample;
  std::memcpy(&sample, reply.data(), sizeof(sample));
  sample.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return sample;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Human-readable context: sample count, share base.
  std::string note;
};

// Output checks; every failure is printed and makes the run incorrect.
struct Checks {
  bool all_ok = true;
  uint64_t failed_crawls = 0;

  void Expect(bool ok, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    all_ok = all_ok && ok;
  }
};

std::string Hex(uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

// Runs untraced crawls until both kMinCrawls ran and `seconds` passed.
std::vector<CrawlSample> RunUntraced(const WorkloadSpec& spec,
                                     const Args& args, double seconds,
                                     Checks& checks, uint64_t& attempted) {
  std::vector<CrawlSample> samples;
  const int64_t start = NowNs();
  while (samples.size() < kMinCrawls || SecondsSince(start) < seconds) {
    ++attempted;
    bool check_reach = samples.empty() && spec.check_reachability;
    deepcrawl::StatusOr<CrawlSample> sample = RunInChild([&] {
      return RunOneCrawl(spec, args.seed, args.scratch, nullptr, check_reach);
    });
    if (!sample.ok()) {
      ++checks.failed_crawls;
      checks.Expect(false, "crawl " + std::to_string(attempted) + ": " +
                               sample.status().ToString());
      break;
    }
    const CrawlSample& s = sample.value();
    std::printf(
        "crawl %2llu: setup %.3f s, crawl %.3f s (cpu %.3f s), peak rss "
        "%.1f MB, %llu rounds, %llu/%llu records, trace %s\n",
        static_cast<unsigned long long>(attempted), s.setup_s, s.crawl_s,
        s.crawl_cpu_s, s.peak_rss_mb,
        static_cast<unsigned long long>(s.rounds),
        static_cast<unsigned long long>(s.records),
        static_cast<unsigned long long>(s.target_records),
        Hex(s.trace_digest).c_str());
    std::fflush(stdout);
    samples.push_back(s);
  }
  return samples;
}

// Checks shared by both modes: repeated crawls agree, the harvest is the
// reachable set, and a TCP crawl equals its in-process twin.
void CheckOutputs(const WorkloadSpec& spec, const Args& args,
                  const std::vector<CrawlSample>& samples, Checks& checks) {
  if (samples.empty()) return;
  const CrawlSample& first = samples.front();
  uint64_t mismatched = 0;
  for (const CrawlSample& s : samples) {
    if (s.trace_digest != first.trace_digest) ++mismatched;
  }
  checks.failed_crawls += mismatched;
  checks.Expect(mismatched == 0,
                "trace digest identical across " +
                    std::to_string(samples.size()) + " crawls");
  if (spec.check_reachability) {
    bool ok = first.reachable_records.has_value() &&
              *first.reachable_records == first.records;
    if (!ok) ++checks.failed_crawls;
    checks.Expect(ok, "harvest " + std::to_string(first.records) +
                          " == reachable records " +
                          std::to_string(first.reachable_records.value_or(0)));
  }
  if (spec.tcp) {
    deepcrawl::StatusOr<CrawlSample> twin = RunInChild([&] {
      return RunOneCrawl(InProcessTwin(spec), args.seed, args.scratch, nullptr,
                         false);
    });
    bool ok = twin.ok() && twin.value().trace_digest == first.trace_digest;
    if (!ok) checks.failed_crawls += samples.size();
    checks.Expect(ok, "TCP trace == in-process trace " +
                          (twin.ok() ? Hex(twin.value().trace_digest)
                                     : twin.status().ToString()));
  }
}

// Setup times of the crawls, topped up with setup-only runs until there
// are kMinSetups, spending at most a tenth of the run's time on them.
constexpr size_t kMinSetups = 10;
std::vector<double> SetupSamples(const WorkloadSpec& spec, const Args& args,
                                 const std::vector<CrawlSample>& samples,
                                 Checks& checks) {
  std::vector<double> setups;
  for (const CrawlSample& s : samples) setups.push_back(s.setup_s);
  const int64_t start = NowNs();
  while (setups.size() < kMinSetups &&
         SecondsSince(start) < args.seconds / 10) {
    deepcrawl::StatusOr<CrawlSample> setup =
        RunInChild([&]() -> deepcrawl::StatusOr<CrawlSample> {
          deepcrawl::StatusOr<double> seconds = MeasureSetup(spec, args.seed);
          if (!seconds.ok()) return seconds.status();
          CrawlSample sample;
          sample.setup_s = seconds.value();
          return sample;
        });
    if (!setup.ok()) {
      checks.Expect(false, "setup: " + setup.status().ToString());
      break;
    }
    setups.push_back(setup.value().setup_s);
  }
  return setups;
}

std::vector<Metric> EndToEndMetrics(const std::vector<CrawlSample>& samples,
                                    const std::vector<double>& setup_s) {
  std::vector<double> crawl_s;
  std::vector<double> peak_rss_mb;
  for (const CrawlSample& s : samples) {
    crawl_s.push_back(s.crawl_s);
    peak_rss_mb.push_back(s.peak_rss_mb);
  }
  const CrawlSample& first = samples.front();
  const std::string of_n =
      "median of " + std::to_string(samples.size()) + " crawls";
  Share coverage{static_cast<double>(first.records),
                 static_cast<double>(first.target_records), "target records"};
  Share fetch_ok{static_cast<double>(first.rounds -
                                     first.resilience.transient_failures),
                 static_cast<double>(first.rounds), "rounds"};
  Share kept{static_cast<double>(first.queries -
                                 first.resilience.abandoned_values),
             static_cast<double>(first.queries), "queries"};
  return {
      {"crawl_s", Median(crawl_s), "s", of_n},
      {"setup_s", Median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " setups"},
      {"peak_rss_mb", Median(peak_rss_mb), "MB",
       of_n + ", one process each"},
      {"rounds", static_cast<double>(first.rounds), "count", ""},
      {"rounds_to_90", static_cast<double>(first.rounds_to_90), "count",
       "rounds until 90% of the target records"},
      {"coverage", coverage.value(), "fraction", coverage.Describe()},
      {"fetch_ok_share", fetch_ok.value(), "fraction", fetch_ok.Describe()},
      {"values_kept_share", kept.value(), "fraction", kept.Describe()},
  };
}

std::vector<Metric> PerLayerMetrics(const CrawlSample& traced,
                                    const CrawlTracer& tracer,
                                    double untraced_crawl_s, Checks& checks) {
  const std::vector<Span>& main_spans = tracer.main.spans();
  const LayerTimes times = SumLayerTimes(main_spans);
  const LayerCounters& layers = traced.layers;
  // Server-side fetches run on the event-loop thread over TCP.
  const std::vector<Span>& fetch_spans = tracer.server.spans().empty()
                                             ? main_spans
                                             : tracer.server.spans();

  auto percentile = [&](const std::vector<double>& samples, double p,
                        const std::string& what) {
    std::optional<double> value = SupportedPercentile(samples, p);
    if (!value.has_value()) {
      checks.Expect(false, what + ": " + std::to_string(samples.size()) +
                               " samples cannot support p" +
                               std::to_string(static_cast<int>(p * 100)));
    }
    return value.value_or(0.0);
  };
  const std::vector<double> select_us =
      DurationsUs(main_spans, SpanName::kSelect);
  const std::vector<double> wave_us =
      StartIntervalsUs(main_spans, SpanName::kFetchWave);
  const std::vector<double> server_us =
      DurationsUs(fetch_spans, SpanName::kServerFetch);

  const double events_s = static_cast<double>(layers.event_ns) * 1e-9;
  const double select_s = times.TotalSeconds(SpanName::kSelect);
  const double fetch_s = times.TotalSeconds(SpanName::kFetchWave);
  const double checkpoint_s = times.TotalSeconds(SpanName::kCheckpoint);
  const double engine_self_s = times.SelfSeconds(SpanName::kCrawl) - events_s;
  const double crawl_s = times.TotalSeconds(SpanName::kCrawl);
  const size_t checkpoint = static_cast<size_t>(SpanName::kCheckpoint);
  const deepcrawl::ResilienceCounters& res = traced.resilience;
  Share new_per_returned{static_cast<double>(layers.replay_records),
                         static_cast<double>(layers.records_returned),
                         "records returned"};

  Share selector{select_s + events_s, crawl_s, "s traced crawl"};
  Share engine_store{engine_self_s, crawl_s, "s traced crawl"};
  Share transport{fetch_s + checkpoint_s, crawl_s, "s traced crawl"};
  std::printf("layer share selector            %s\n",
              selector.Describe().c_str());
  std::printf("layer share engine+store        %s\n",
              engine_store.Describe().c_str());
  std::printf("layer share fetch+net+checkpoint %s\n",
              transport.Describe().c_str());

  auto count = [](uint64_t n) { return static_cast<double>(n); };
  return {
      {"datagen.generate_s", times.TotalSeconds(SpanName::kDatagen), "s", ""},
      {"index.build_s", times.TotalSeconds(SpanName::kIndexBuild), "s", ""},
      {"net.setup_s", times.TotalSeconds(SpanName::kNetSetup), "s", ""},
      {"engine.self_s", engine_self_s, "s",
       "crawl minus fetch, selector and checkpoint"},
      {"engine.waves", count(traced.waves), "count", ""},
      {"engine.wave_p50_us", percentile(wave_us, 0.50, "engine.wave"), "us",
       std::to_string(wave_us.size()) + " waves"},
      {"engine.wave_p99_us", percentile(wave_us, 0.99, "engine.wave"), "us",
       std::to_string(wave_us.size()) + " waves"},
      {"store.replay_ingest_s", times.TotalSeconds(SpanName::kStoreReplay),
       "s", ""},
      {"store.records", count(layers.replay_records), "count", ""},
      {"store.values_seen", count(layers.replay_values), "count", ""},
      {"store.new_per_returned", new_per_returned.value(), "fraction",
       new_per_returned.Describe()},
      {"selector.select_s", select_s, "s", ""},
      {"selector.select_calls", count(select_us.size()), "count", ""},
      {"selector.select_p50_us", percentile(select_us, 0.50, "select"), "us",
       ""},
      {"selector.select_p99_us", percentile(select_us, 0.99, "select"), "us",
       ""},
      {"selector.events_s", events_s, "s", ""},
      {"selector.event_calls", count(layers.event_calls), "count", ""},
      {"fetch.wave_s", fetch_s, "s", ""},
      {"fetch.requests", count(layers.fetch_requests), "count", ""},
      {"server.fetch_p50_us", percentile(server_us, 0.50, "server.fetch"),
       "us", std::to_string(server_us.size()) + " fetches"},
      {"server.fetch_p99_us", percentile(server_us, 0.99, "server.fetch"),
       "us", std::to_string(server_us.size()) + " fetches"},
      {"server.records_returned", count(layers.records_returned), "count", ""},
      {"net.rtt_mean_us", traced.rtt.MeanUs(), "us", ""},
      {"net.rtt_max_us", count(traced.rtt.max_rtt_us), "us", ""},
      {"net.reconnects", count(traced.reconnects), "count", ""},
      {"net.requests_served", count(traced.requests_served), "count", ""},
      {"net.protocol_errors", count(traced.protocol_errors), "count", ""},
      {"retry.transient_failures", count(res.transient_failures), "count", ""},
      {"retry.retries", count(res.retries), "count", ""},
      {"retry.backoff_ticks", count(res.backoff_ticks), "count", ""},
      {"retry.requeues", count(res.requeues), "count", ""},
      {"retry.abandoned", count(res.abandoned_values), "count", ""},
      {"checkpoint.saves", count(times.count[checkpoint]), "count", ""},
      {"checkpoint.save_s", checkpoint_s, "s", ""},
      {"checkpoint.save_max_ms",
       static_cast<double>(times.max_ns[checkpoint]) * 1e-6, "ms", ""},
      {"checkpoint.bytes", count(layers.checkpoint_bytes), "bytes", ""},
      {"trace.crawl_s", traced.crawl_s, "s", ""},
      {"trace.overhead_s", traced.crawl_s - untraced_crawl_s, "s",
       "traced crawl_s minus the untraced median"},
  };
}

void PrintResult(const std::vector<Metric>& metrics, const Checks& checks,
                 uint64_t attempted) {
  for (const Metric& m : metrics) {
    std::printf("%-26s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.all_ok ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(checks.failed_crawls));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: crawlbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--scratch DIR] "
                 "[--source ID]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Pin the benchmark, and so every crawl process and thread it starts, to
  // the CPU it is running on. tcp-flaky's client and server threads then
  // hand each wave to each other on one CPU instead of waking an idle
  // one. On a shared VM host, unpinned, its crawl_s doubled for minutes at
  // a time while setup and the in-process workloads ran at normal speed.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(sched_getcpu(), &cpus);
  sched_setaffinity(0, sizeof(cpus), &cpus);
  const std::string env = EnvJson(args);
  std::printf("# crawlbench %s: %s\n# env %s\n", spec->name, spec->why,
              env.c_str());

  Checks checks;
  uint64_t attempted = 0;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    std::vector<CrawlSample> samples =
        RunUntraced(*spec, args, args.seconds, checks, attempted);
    CheckOutputs(*spec, args, samples, checks);
    if (!samples.empty()) {
      metrics = EndToEndMetrics(
          samples, SetupSamples(*spec, args, samples, checks));
    }
  } else {
    // Half the time on untraced crawls for the overhead baseline, then one
    // traced crawl.
    std::vector<CrawlSample> samples =
        RunUntraced(*spec, args, args.seconds / 2, checks, attempted);
    CheckOutputs(*spec, args, samples, checks);
    if (!samples.empty()) {
      std::vector<double> crawl_s;
      for (const CrawlSample& s : samples) crawl_s.push_back(s.crawl_s);
      CrawlTracer tracer;
      const uint32_t run = static_cast<uint32_t>(attempted);
      tracer.main.set_run(run);
      tracer.server.set_run(run);
      ++attempted;
      deepcrawl::StatusOr<CrawlSample> traced =
          RunOneCrawl(*spec, args.seed, args.scratch, &tracer, false);
      if (!traced.ok()) {
        ++checks.failed_crawls;
        checks.Expect(false, "traced crawl: " + traced.status().ToString());
      } else {
        const CrawlSample& t = traced.value();
        bool same = t.trace_digest == samples.front().trace_digest;
        if (!same) ++checks.failed_crawls;
        checks.Expect(same, "traced trace == untraced trace " +
                                Hex(t.trace_digest));
        bool replayed = t.layers.replay_records == t.records &&
                        t.layers.replay_values == t.values_seen;
        checks.Expect(replayed, "store replay == crawl store (" +
                                    std::to_string(t.layers.replay_records) +
                                    " records)");
        metrics = PerLayerMetrics(t, tracer, Median(crawl_s), checks);
        std::string spans_out =
            args.scratch + "/spans-" + args.workload + ".json";
        const SpanLog* logs[] = {&tracer.main, &tracer.server};
        deepcrawl::Status written = WriteSpansJson(logs, env, spans_out);
        checks.Expect(written.ok(), "spans written to " + spans_out);
      }
    }
  }
  if (metrics.empty()) checks.Expect(false, "no crawl completed");
  PrintResult(metrics, checks, attempted);
  return checks.all_ok ? 0 : 1;
}

}  // namespace
}  // namespace crawlbench

int main(int argc, char** argv) { return crawlbench::Main(argc, argv); }
