// CrawlCheckpoint: versioned binary serialization of a crawl's full
// state, so a long-running crawl survives process restarts (DESIGN.md
// §10).
//
// The paper's crawls are long conversations with live, rate-limited
// sources (§2.3 cost model, §5.4 result-size limits); a production
// crawler must be able to stop after any wave and continue later — on
// another process, days later — as if it had never stopped. The
// checkpoint layer captures everything the unified CrawlEngine needs
// for that: the LocalStore statistics table, the selector's frontier /
// MMMI co-occurrence rows, the retry queue and re-queue budgets,
// parked drain slots and the wave cursor, the simulated clock, trace
// points, resilience counters, and (optionally) the fault proxy's keyed
// attempt table and RNG. The restore contract is *bit-identity*:
// checkpoint + restore + continue emits the same trace CSV as the
// uninterrupted run, under every selector, fault profile, and executor
// (proven by the sweep in tests/crawler_parallel_differential_test.cc).
//
// File format (little-endian; framing lives in src/util/checkpoint_io.h):
//
//   offset 0   magic "DCPK"
//          4   u32 format version (kCrawlCheckpointVersion)
//          8   u64 payload size N
//         16   payload (N bytes of section data)
//       16+N   u64 FNV-1a checksum of the payload
//
// The payload is a fixed sequence of sections, each introduced by a
// fourcc marker: CONFIG (construction fingerprint, verified before any
// state is touched), ENGINE (loop state incl. store + selector,
// serialized by CrawlEngine::SaveState), FAULTY (optional fault-proxy
// state), END. Any mangled byte — truncation, flipped bits, a wrong
// version, a size/checksum mismatch — is rejected with a clean Status
// before any section is decoded; decode itself is sticky-failure
// bounds-checked, so even a file that forges the checksum can only
// produce an error, never a crash or a silent partial load. Versioning
// rule: any change to the payload layout bumps kCrawlCheckpointVersion;
// old versions are rejected, never half-read.
//
// Files are written atomically (temp file + rename), so a crawl killed
// mid-save leaves the previous checkpoint intact.

#ifndef DEEPCRAWL_CRAWLER_CHECKPOINT_H_
#define DEEPCRAWL_CRAWLER_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/checkpoint_io.h"
#include "src/util/status.h"

namespace deepcrawl {

class CrawlEngine;
class FaultyServer;

// Bump on ANY payload-layout change; readers reject other versions.
// v2: ResilienceCounters grew rate_limit_rejections / max_retry_after_hint.
// v3: STOR section gained the kPaged manifest form (counters + the
//     paged store's MANIFEST stamp instead of logical record replay).
// v4: new SELC payload kinds — term-weight (frontier + batch queue) and
//     adaptive (chain fingerprint + switch estimator + nested children).
// v5: the on-disk store was removed — CONF lost its layout byte and
//     STOR has only the logical replay form again.
// v6: CONF lost the exact-degrees byte (LocalStore has one degree mode)
//     and SELC lost MMMI's scoring-path byte and co-bump counter.
// v7: the greedy selector's SELC payload is the frontier alone; its heap
//     (and the last-pushed-degree table and push counter) is rebuilt
//     from the restored store instead of being stored.
inline constexpr uint32_t kCrawlCheckpointVersion = 7;

// Section markers (fourcc, little-endian u32). Sections appear in file
// order: CONFIG, ENGINE (store + selector nested inside), optional
// FAULTY, END.
inline constexpr uint32_t kSectionConfig = 0x464e4f43;    // "CONF"
inline constexpr uint32_t kSectionEngine = 0x49474e45;    // "ENGI"
inline constexpr uint32_t kSectionStore = 0x524f5453;     // "STOR"
inline constexpr uint32_t kSectionSelector = 0x434c4553;  // "SELC"
inline constexpr uint32_t kSectionFaulty = 0x544c4146;    // "FALT"
inline constexpr uint32_t kSectionEnd = 0x21444e45;       // "END!"

void WriteSectionMarker(CheckpointWriter& writer, uint32_t marker);
// Consumes a marker and latches the reader corrupt (naming the expected
// section) on mismatch. Returns reader.ok() afterwards.
bool ExpectSectionMarker(CheckpointReader& reader, uint32_t marker,
                         const char* name);

// --- whole-crawl orchestration ---------------------------------------
//
// One checkpoint covers the engine (which serializes its own state plus
// the LocalStore and selector sections) and, when the crawl runs behind
// a fault-injecting proxy, the proxy's keyed-attempt/RNG state — without
// it, a resumed crawl would re-draw fault decisions for re-fetched pages
// and diverge from the uninterrupted run.

// Serializes engine (+ proxy) state into a framed checkpoint image.
// `faulty` may be null (no fault proxy in the stack).
StatusOr<std::string> EncodeCrawlCheckpoint(const CrawlEngine& engine,
                                            const FaultyServer* faulty);

// Restores a framed checkpoint image into a freshly constructed engine
// (+ proxy). The engine must have an empty store and no rounds used;
// construction parameters (selector policy, batch, store options, fault
// setup) must match the checkpointing run, or a clean error is
// returned. On error the engine may be partially populated and must be
// discarded.
Status DecodeCrawlCheckpoint(std::string_view image, CrawlEngine& engine,
                             FaultyServer* faulty);

// File-level convenience wrappers around Encode/Decode.
Status SaveCrawlCheckpoint(const CrawlEngine& engine,
                           const FaultyServer* faulty,
                           const std::string& path);
Status LoadCrawlCheckpoint(const std::string& path, CrawlEngine& engine,
                           FaultyServer* faulty);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_CHECKPOINT_H_
