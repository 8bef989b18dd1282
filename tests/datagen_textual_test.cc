// Tests of the textual-database generator: config validation,
// determinism, the shared title/body vocabulary (what gives the keyword
// box real cross-attribute unions), and the mixed structured+textual
// mode.

#include "src/datagen/textual_workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>

#include "src/server/web_db_server.h"

namespace deepcrawl {
namespace {

TextualDbConfig SmallConfig() {
  TextualDbConfig config;
  config.num_documents = 200;
  config.vocabulary = 120;
  config.num_topics = 4;
  config.seed = 7;
  return config;
}

TEST(TextualWorkloadTest, RejectsNonsensicalConfigs) {
  TextualDbConfig config = SmallConfig();
  config.num_documents = 0;
  EXPECT_FALSE(GenerateTextualTable(config).ok());

  config = SmallConfig();
  config.vocabulary = 0;
  EXPECT_FALSE(GenerateTextualTable(config).ok());

  config = SmallConfig();
  config.num_topics = config.vocabulary + 1;
  EXPECT_FALSE(GenerateTextualTable(config).ok());

  config = SmallConfig();
  config.topic_affinity = 1.5;
  EXPECT_FALSE(GenerateTextualTable(config).ok());

  config = SmallConfig();
  config.title_terms_min = 3;
  config.title_terms_max = 2;
  EXPECT_FALSE(GenerateTextualTable(config).ok());

  config = SmallConfig();
  config.body_terms_min = 0;
  EXPECT_FALSE(GenerateTextualTable(config).ok());

  config = SmallConfig();
  config.mixed = true;
  config.num_categories = 0;
  EXPECT_FALSE(GenerateTextualTable(config).ok());
}

TEST(TextualWorkloadTest, GeneratesRequestedShape) {
  StatusOr<Table> table = GenerateTextualTable(SmallConfig());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_records(), 200u);
  ASSERT_EQ(table->schema().num_attributes(), 2u);
  EXPECT_EQ(table->schema().attribute(0).name, "title");
  EXPECT_EQ(table->schema().attribute(1).name, "body");
  // Every document carries at least title_min + nothing guaranteed
  // beyond dedup, but never an empty record.
  for (RecordId r = 0; r < table->num_records(); ++r) {
    EXPECT_FALSE(table->record(r).empty());
  }
}

TEST(TextualWorkloadTest, SameSeedIsDeterministic) {
  StatusOr<Table> a = GenerateTextualTable(SmallConfig());
  StatusOr<Table> b = GenerateTextualTable(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_records(), b->num_records());
  ASSERT_EQ(a->num_distinct_values(), b->num_distinct_values());
  for (RecordId r = 0; r < a->num_records(); ++r) {
    std::span<const ValueId> ra = a->record(r);
    std::span<const ValueId> rb = b->record(r);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i], rb[i]);
      EXPECT_EQ(a->catalog().text_of(ra[i]), b->catalog().text_of(rb[i]));
    }
  }
  TextualDbConfig other = SmallConfig();
  other.seed = 8;
  StatusOr<Table> c = GenerateTextualTable(other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->num_distinct_values(), c->num_distinct_values());
}

TEST(TextualWorkloadTest, TitleAndBodyShareVocabulary) {
  // The same raw term texts appear under both attributes, so the
  // keyword token dictionary genuinely merges columns: at least one
  // token must span both title and body.
  StatusOr<Table> table = GenerateTextualTable(SmallConfig());
  ASSERT_TRUE(table.ok());
  WebDbServer server(*table, ServerOptions{});
  EXPECT_LT(server.num_keyword_tokens(), table->num_distinct_values());
  bool any_cross = false;
  for (ValueId v = 0; v < table->num_distinct_values() && !any_cross; ++v) {
    any_cross = server.KeywordAttributeSpan(v) > 1;
  }
  EXPECT_TRUE(any_cross);
}

TEST(TextualWorkloadTest, TermPopularityIsSkewed) {
  // Zipf popularity: the most popular term should match far more
  // documents than the median one.
  StatusOr<Table> table = GenerateTextualTable(SmallConfig());
  ASSERT_TRUE(table.ok());
  uint32_t max_freq = 0;
  uint64_t total = 0;
  uint32_t n = table->num_distinct_values();
  for (ValueId v = 0; v < n; ++v) {
    uint32_t f = table->value_frequency(v);
    max_freq = std::max(max_freq, f);
    total += f;
  }
  double mean = static_cast<double>(total) / n;
  EXPECT_GT(max_freq, 4.0 * mean);
}

TEST(TextualWorkloadTest, MixedModeAddsStructuredColumns) {
  TextualDbConfig config = SmallConfig();
  config.mixed = true;
  config.num_categories = 5;
  StatusOr<Table> table = GenerateTextualTable(config);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->schema().num_attributes(), 4u);
  EXPECT_EQ(table->schema().attribute(2).name, "docid");
  EXPECT_EQ(table->schema().attribute(3).name, "category");
  AttributeId docid = 2, category = 3;
  std::set<std::string> ids, categories;
  for (RecordId r = 0; r < table->num_records(); ++r) {
    for (ValueId v : table->record(r)) {
      AttributeId attr = table->catalog().attribute_of(v);
      if (attr == docid) ids.emplace(table->catalog().text_of(v));
      if (attr == category) categories.emplace(table->catalog().text_of(v));
    }
  }
  // Doc ids are unique; categories come from the small pool.
  EXPECT_EQ(ids.size(), table->num_records());
  EXPECT_LE(categories.size(), 5u);
  EXPECT_GE(categories.size(), 2u);
}

}  // namespace
}  // namespace deepcrawl
