// CrawlCheckpoint: a crawl's inputs, saved so a long-running crawl
// survives process restarts (DESIGN.md §10).
//
// The paper's crawls are long conversations with live, rate-limited
// sources (§2.3 cost model, §5.4 result-size limits); a production
// crawler must be able to stop after any wave and continue later — on
// another process, days later — as if it had never stopped, without
// paying again for the rounds it already spent. Everything a crawl
// holds (local store, selector statistics and frontier, retry queue,
// trace, resilience counters) is a pure function of what it was
// given: its seeds, its Run() budgets and the pages the source
// returned. So a checkpoint holds exactly that — the engine's fetch
// log — plus the fault proxy's per-page attempt table, which lives on
// the server side. Restore replays the log through the real engine
// with no server call. The restore contract is *bit-identity*:
// checkpoint + restore + continue emits the same trace CSV as the
// uninterrupted run, under every selector, fault profile, and executor
// (proven by the sweeps in tests/crawler_parallel_differential_test.cc).
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
// fourcc marker: CONFIG (construction fingerprint, verified before the
// replay starts), LOG (the fetch log, written by CrawlEngine::SaveState),
// FAULTY (optional fault-proxy state: the fault fingerprint, schedule
// position, per-page attempt table and fault counters), END. Any
// mangled byte — truncation, flipped bits, a wrong version, a
// size/checksum mismatch — is rejected with a clean Status before any
// section is decoded. A file that forges the checksum can only produce
// an error too: the log reader is sticky-failure bounds-checked, each
// logged fetch drives exactly one commit and must be the fetch the
// replayed engine asks for, and the replay must end at the logged
// totals. Versioning rule: any change to the payload layout bumps
// kCrawlCheckpointVersion; old versions are rejected, never half-read.
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
// v8: the state sections (ENGI, STOR, SELC) are replaced by LOG, the
//     fetch log that LoadState replays; no component serializes itself.
// v9: FALT lost the keyed-mode byte and the two fault-RNG words; every
//     fault decision is keyed, so the attempt table is its only state.
// v10: FALT lost the proxy's two meter words (injected-failure rounds and
//     queries); the engine is the only cost meter.
inline constexpr uint32_t kCrawlCheckpointVersion = 10;

// Section markers (fourcc, little-endian u32). Sections appear in file
// order: CONFIG, LOG, FAULTY, END.
inline constexpr uint32_t kSectionConfig = 0x464e4f43;  // "CONF"
inline constexpr uint32_t kSectionLog = 0x20474f4c;     // "LOG "
inline constexpr uint32_t kSectionFaulty = 0x544c4146;  // "FALT"
inline constexpr uint32_t kSectionEnd = 0x21444e45;     // "END!"

// LOG entries, each opened by a one-byte tag; "var" is an LEB128 varint.
// The engine holds its fetch log in this form, appending each entry as
// the seed, Run() or fetch happens; CrawlEngine::SaveState copies the
// held bytes and adds a trailing cut (when one is due) and the end entry.
//   kLogSeed     var value: AddSeed(value)
//   kLogRun      u64 max_rounds, u64 target_records: a Run() whose
//                budgets differ from the last logged ones
//   kLogCut      a Run() interrupted at a wave boundary before its stop
//                checks (saved from a checkpoint sink, or resumed there)
//   kLogPage     var value, u8 flags (kLogHasMore | kLogHasTotal),
//                [var total_matches], var n, then n records in page
//                order, each var (id << 1 | kind): kRecordNew (the
//                record's first occurrence) is followed by var k and k
//                var values, kRecordRepeat by nothing
//   kLogFailure  var value, u8 status code, u8 flags (kLogHasHint),
//                [var retry-after hint]
//   kLogEnd      u64 rounds, u64 waves, u64 records: the totals the
//                replay must reach
inline constexpr uint8_t kLogSeed = 1;
inline constexpr uint8_t kLogRun = 2;
inline constexpr uint8_t kLogCut = 3;
inline constexpr uint8_t kLogPage = 4;
inline constexpr uint8_t kLogFailure = 5;
inline constexpr uint8_t kLogEnd = 6;
inline constexpr uint8_t kLogHasMore = 1;
inline constexpr uint8_t kLogHasTotal = 2;
inline constexpr uint8_t kLogHasHint = 4;
inline constexpr uint8_t kRecordRepeat = 0;
inline constexpr uint8_t kRecordNew = 1;

void WriteSectionMarker(CheckpointWriter& writer, uint32_t marker);
// Consumes a marker and latches the reader corrupt (naming the expected
// section) on mismatch. Returns reader.ok() afterwards.
bool ExpectSectionMarker(CheckpointReader& reader, uint32_t marker,
                         const char* name);

// --- whole-crawl orchestration ---------------------------------------
//
// One checkpoint covers the engine (its CONF and LOG sections) and, when
// the crawl runs behind a fault-injecting proxy, the proxy's per-page
// attempt table — without it, a resumed crawl would re-draw fault
// decisions for retried pages and diverge from the uninterrupted run.

// Serializes engine (+ proxy) state into a framed checkpoint image.
// `faulty` may be null (no fault proxy in the stack).
StatusOr<std::string> EncodeCrawlCheckpoint(const CrawlEngine& engine,
                                            const FaultyServer* faulty);

// Restores a framed checkpoint image into a freshly constructed engine
// (+ proxy) by replaying its fetch log. The engine must have an empty
// store and no rounds used; construction parameters (selector policy
// and options, batch, retry and abort policies, fault setup) must match
// the checkpointing run, or a clean error is returned. On error the
// engine may be partially populated and must be discarded.
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
