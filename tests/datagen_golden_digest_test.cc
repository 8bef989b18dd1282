// Golden digests of every canned generator's table.
//
// Each digest is FNV-1a over a table's schema, its value catalog in id
// order (attribute, text) and its records in id order (sorted value
// ids). Any change to value ids, first-sight order, texts, records or
// the generators' RNG streams changes a digest, so a generator rewrite
// that must keep tables byte-identical is checked here in one place.
// The pinned values were taken from the generators as they stood before
// the string-free generation path; update one only for a deliberate
// change of a workload, and say so where the change is recorded.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>

#include "src/datagen/adversarial_workload.h"
#include "src/datagen/canned_workloads.h"
#include "src/datagen/movie_domain.h"
#include "src/datagen/publication_domain.h"
#include "src/datagen/textual_workload.h"
#include "src/datagen/workload_config.h"

namespace deepcrawl {
namespace {

constexpr double kScale = 0.05;

class Fnv1a {
 public:
  void Bytes(std::string_view bytes) {
    for (char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  // Length-prefixed, so adjacent texts cannot run together.
  void Text(std::string_view text) {
    U64(text.size());
    Bytes(text);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t TableDigest(const Table& table) {
  Fnv1a h;
  const Schema& schema = table.schema();
  h.U64(schema.num_attributes());
  for (const AttributeDef& def : schema.attributes()) {
    h.Text(def.name);
    h.U64(def.multi_valued ? 1 : 0);
  }
  const ValueCatalog& catalog = table.catalog();
  h.U64(catalog.size());
  for (ValueId v = 0; v < catalog.size(); ++v) {
    h.U64(catalog.attribute_of(v));
    h.Text(catalog.text_of(v));
  }
  h.U64(table.num_records());
  for (RecordId r = 0; r < table.num_records(); ++r) {
    std::span<const ValueId> record = table.record(r);
    h.U64(record.size());
    for (ValueId v : record) h.U64(v);
  }
  return h.value();
}

uint64_t SyntheticDigest(const SyntheticDbConfig& config) {
  StatusOr<Table> table = GenerateTable(config);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? TableDigest(*table) : 0;
}

TEST(GoldenTableDigestTest, ControlledWorkloads) {
  EXPECT_EQ(SyntheticDigest(EbayConfig(kScale, 1)), 0xde28f125441c4967ULL);
  EXPECT_EQ(SyntheticDigest(AcmDlConfig(kScale, 1)), 0x8ccb0b22165f556aULL);
  EXPECT_EQ(SyntheticDigest(DblpConfig(kScale, 1)), 0x7b5f7f77814d923aULL);
  EXPECT_EQ(SyntheticDigest(ImdbConfig(kScale, 1)), 0xa7ff1a48c75dcfbbULL);
  // The canned default seeds, as the experiment harnesses use them.
  EXPECT_EQ(SyntheticDigest(ImdbConfig(kScale)), 0x90471ed6935c2480ULL);
}

// The textual/mixed sizing of the command-line tools at --scale=0.05.
uint64_t TextualDigest(bool mixed) {
  TextualDbConfig config;
  config.num_documents = static_cast<uint32_t>(20000.0 * kScale);
  config.vocabulary = static_cast<uint32_t>(30000.0 * kScale);
  config.mixed = mixed;
  config.seed = 1;
  StatusOr<Table> table = GenerateTextualTable(config);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? TableDigest(*table) : 0;
}

TEST(GoldenTableDigestTest, TextualAndMixed) {
  EXPECT_EQ(TextualDigest(false), 0x348d6e4383aece5fULL);
  EXPECT_EQ(TextualDigest(true), 0xfbcea01b106fd185ULL);
}

uint64_t AdversarialDigest(AdversarialFamily family) {
  AdversarialConfig config;
  config.family = family;
  StatusOr<AdversarialInstance> instance = GenerateAdversarialInstance(config);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return instance.ok() ? TableDigest(instance->table) : 0;
}

TEST(GoldenTableDigestTest, AdversarialTrapAndSkew) {
  EXPECT_EQ(AdversarialDigest(AdversarialFamily::kGreedyTrap),
            0xd48e288ff1b2168aULL);
  EXPECT_EQ(AdversarialDigest(AdversarialFamily::kSkewedChain),
            0x9953076c810d92dcULL);
}

TEST(GoldenTableDigestTest, MovieDomainPair) {
  MovieDomainPairConfig config;
  config.universe_size = static_cast<uint32_t>(40000 * kScale);
  config.target_size = static_cast<uint32_t>(12000 * kScale);
  StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(TableDigest(pair->universe), 0xac6c4a26b0b4c695ULL);
  EXPECT_EQ(TableDigest(pair->target), 0x31af28bdc297f617ULL);
  EXPECT_EQ(TableDigest(pair->dm1), 0xa44038cc1110f32cULL);
  EXPECT_EQ(TableDigest(pair->dm2), 0xf26d86b3c1696e0bULL);
}

TEST(GoldenTableDigestTest, PublicationDomainPair) {
  PublicationDomainPairConfig config;
  config.universe_size = static_cast<uint32_t>(30000 * kScale);
  StatusOr<PublicationDomainPair> pair = GeneratePublicationDomainPair(config);
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(TableDigest(pair->universe), 0x9ea053682c4fda19ULL);
  EXPECT_EQ(TableDigest(pair->target), 0xe0a1db6b9d110a56ULL);
  EXPECT_EQ(TableDigest(pair->sample), 0x5583af8d0f3625b0ULL);
}

}  // namespace
}  // namespace deepcrawl
