#include "src/crawler/checkpoint.h"

#include "src/crawler/crawl_engine.h"
#include "src/server/faulty_server.h"
#include "src/util/checkpoint_io.h"

namespace deepcrawl {

void WriteSectionMarker(CheckpointWriter& writer, uint32_t marker) {
  writer.WriteU32(marker);
}

bool ExpectSectionMarker(CheckpointReader& reader, uint32_t marker,
                         const char* name) {
  uint32_t got = reader.ReadU32();
  if (reader.ok() && got != marker) {
    reader.MarkCorrupt(std::string("missing '") + name +
                       "' section marker (layout mismatch)");
  }
  return reader.ok();
}

StatusOr<std::string> EncodeCrawlCheckpoint(const CrawlEngine& engine,
                                            const FaultyServer* faulty) {
  CheckpointWriter writer;
  const size_t frame = writer.BeginFrame(kCrawlCheckpointVersion);
  DEEPCRAWL_RETURN_IF_ERROR(engine.SaveState(writer));
  WriteSectionMarker(writer, kSectionFaulty);
  writer.WriteU8(faulty != nullptr ? 1 : 0);
  if (faulty != nullptr) faulty->SaveState(writer);
  WriteSectionMarker(writer, kSectionEnd);
  writer.EndFrame(frame);
  return writer.TakeBuffer();
}

Status DecodeCrawlCheckpoint(std::string_view image, CrawlEngine& engine,
                             FaultyServer* faulty) {
  DEEPCRAWL_ASSIGN_OR_RETURN(std::string_view payload,
                             UnframeCheckpoint(image, kCrawlCheckpointVersion));
  CheckpointReader reader(payload);
  DEEPCRAWL_RETURN_IF_ERROR(engine.LoadState(reader));
  if (!ExpectSectionMarker(reader, kSectionFaulty, "FALT")) {
    return reader.status();
  }
  bool has_faulty = reader.ReadU8() != 0;
  if (has_faulty != (faulty != nullptr)) {
    return Status::InvalidArgument(
        has_faulty
            ? "checkpoint was taken behind a fault proxy, but this crawl "
              "has none; re-run with the same fault configuration"
            : "checkpoint was taken without a fault proxy, but this crawl "
              "has one; re-run with the same fault configuration");
  }
  if (faulty != nullptr) {
    DEEPCRAWL_RETURN_IF_ERROR(faulty->LoadState(reader));
  }
  if (!ExpectSectionMarker(reader, kSectionEnd, "END!")) {
    return reader.status();
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "corrupt checkpoint: trailing bytes after the end marker");
  }
  return reader.status();
}

Status SaveCrawlCheckpoint(const CrawlEngine& engine,
                           const FaultyServer* faulty,
                           const std::string& path) {
  DEEPCRAWL_ASSIGN_OR_RETURN(std::string image,
                             EncodeCrawlCheckpoint(engine, faulty));
  return WriteFileAtomic(path, image);
}

Status LoadCrawlCheckpoint(const std::string& path, CrawlEngine& engine,
                           FaultyServer* faulty) {
  DEEPCRAWL_ASSIGN_OR_RETURN(std::string image, ReadFileBytes(path));
  return DecodeCrawlCheckpoint(image, engine, faulty);
}

}  // namespace deepcrawl
