// Calibration tests: the statistical properties the paper's experiments
// depend on, checked directly on the generated workloads.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/datagen/canned_workloads.h"
#include "src/datagen/workload_config.h"
#include "src/index/inverted_index.h"

namespace deepcrawl {
namespace {

TEST(CalibrationTest, EbayValueToRecordRatioMatchesTable2) {
  // Paper Table 2: eBay has 22,950 distinct values over 20,000 records
  // (ratio ~1.15). The generated eBay must land near that ratio — it is
  // what makes the §3.3 marginal phase dependency-dominated.
  StatusOr<Table> table = GenerateTable(EbayConfig(0.1, 5));
  ASSERT_TRUE(table.ok());
  double ratio = static_cast<double>(table->num_distinct_values()) /
                 static_cast<double>(table->num_records());
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.45);
}

TEST(CalibrationTest, PresenceControlsAttributeSparsity) {
  SyntheticDbConfig config;
  config.name = "sparsity";
  config.num_records = 4000;
  config.seed = 3;
  config.attributes = {
      {.name = "Always", .num_distinct = 50, .zipf_exponent = 0.5},
      {.name = "Sometimes",
       .num_distinct = 50,
       .zipf_exponent = 0.5,
       .presence = 0.4},
  };
  StatusOr<Table> table = GenerateTable(config);
  ASSERT_TRUE(table.ok());
  // Count records carrying each attribute.
  size_t with_sometimes = 0;
  StatusOr<AttributeId> sometimes = table->schema().FindAttribute("Sometimes");
  ASSERT_TRUE(sometimes.ok());
  for (RecordId r = 0; r < table->num_records(); ++r) {
    for (ValueId v : table->record(r)) {
      if (table->catalog().attribute_of(v) == *sometimes) {
        ++with_sometimes;
        break;
      }
    }
  }
  double fraction = static_cast<double>(with_sometimes) /
                    static_cast<double>(table->num_records());
  EXPECT_NEAR(fraction, 0.4, 0.03);
}

TEST(CalibrationTest, DerivedAttributeIsDeterministicFunctionOfSource) {
  // Every record carrying Seller "Seller#i" must carry Store
  // "Store#(i/2)" (when the store attribute is present), and stores
  // carry no other information.
  StatusOr<Table> table = GenerateTable(EbayConfig(0.05, 7));
  ASSERT_TRUE(table.ok());
  StatusOr<AttributeId> seller_attr = table->schema().FindAttribute("Seller");
  StatusOr<AttributeId> store_attr = table->schema().FindAttribute("Store");
  ASSERT_TRUE(seller_attr.ok() && store_attr.ok());

  size_t checked = 0;
  for (RecordId r = 0; r < table->num_records(); ++r) {
    int seller_index = -1;
    std::string store_text;
    for (ValueId v : table->record(r)) {
      const std::string text(table->catalog().text_of(v));
      if (table->catalog().attribute_of(v) == *seller_attr) {
        seller_index = std::stoi(text.substr(text.find('#') + 1));
      } else if (table->catalog().attribute_of(v) == *store_attr) {
        store_text = text;
      }
    }
    ASSERT_GE(seller_index, 0) << "seller is a presence=1 attribute";
    if (store_text.empty()) continue;  // store presence < 1
    EXPECT_EQ(store_text, "Store#" + std::to_string(seller_index / 2))
        << "record " << r;
    ++checked;
  }
  EXPECT_GT(checked, table->num_records() / 2);  // presence 0.8
}

TEST(CalibrationTest, DerivedAttributeCreatesStrongDependency) {
  // Co-occurrence(store, its seller) == frequency of the pair: the §3.3
  // "other author name is not a good choice" structure, measurable as
  // posting containment.
  StatusOr<Table> table = GenerateTable(EbayConfig(0.05, 7));
  ASSERT_TRUE(table.ok());
  InvertedIndex index(*table);
  StatusOr<AttributeId> store_attr = table->schema().FindAttribute("Store");
  StatusOr<AttributeId> seller_attr = table->schema().FindAttribute("Seller");
  ASSERT_TRUE(store_attr.ok() && seller_attr.ok());

  int strong = 0, total = 0;
  for (ValueId v = 0; v < table->num_distinct_values() && total < 50; ++v) {
    if (table->catalog().attribute_of(v) != *store_attr) continue;
    const std::string text(table->catalog().text_of(v));
    int store_index = std::stoi(text.substr(text.find('#') + 1));
    // The two sellers aliased to this store.
    uint32_t contained = 0;
    for (int s = store_index * 2; s <= store_index * 2 + 1; ++s) {
      ValueId seller = table->catalog().Find(
          *seller_attr, "Seller#" + std::to_string(s));
      if (seller == kInvalidValueId) continue;
      contained += index.CooccurrenceCount(v, seller);
    }
    // Every record of the store carries one of its two sellers.
    if (contained == index.MatchCount(v)) ++strong;
    ++total;
  }
  ASSERT_GT(total, 10);
  EXPECT_EQ(strong, total);
}

TEST(CalibrationTest, RecordCommunityCorrelatesAttributes) {
  // Cross-attribute dependency: a record's Category and Seller come
  // from the same community slice far more often than independence
  // would allow.
  StatusOr<Table> table = GenerateTable(EbayConfig(0.1, 5));
  ASSERT_TRUE(table.ok());
  StatusOr<AttributeId> category_attr =
      table->schema().FindAttribute("Category");
  StatusOr<AttributeId> seller_attr = table->schema().FindAttribute("Seller");
  ASSERT_TRUE(category_attr.ok() && seller_attr.ok());
  // eBay at scale 0.1: Category pool 120 over 6 communities (slice 20),
  // Seller pool 1200 over 30 communities (slice 40). The shared record
  // community u maps via floor(u * communities) in both.
  size_t same = 0, counted = 0;
  for (RecordId r = 0; r < table->num_records(); ++r) {
    int category = -1, seller = -1;
    for (ValueId v : table->record(r)) {
      const std::string text(table->catalog().text_of(v));
      if (table->catalog().attribute_of(v) == *category_attr) {
        category = std::stoi(text.substr(text.find('#') + 1));
      } else if (table->catalog().attribute_of(v) == *seller_attr) {
        seller = std::stoi(text.substr(text.find('#') + 1));
      }
    }
    if (category < 0 || seller < 0) continue;
    ++counted;
    // Project both onto the coarser (6-community) grid.
    if (category / 20 == (seller / 40) * 6 / 30) ++same;
  }
  ASSERT_GT(counted, 100u);
  double fraction = static_cast<double>(same) / static_cast<double>(counted);
  EXPECT_GT(fraction, 0.4) << "expected strong cross-attribute correlation";
}

TEST(CalibrationTest, AllCannedConfigsGenerateAtTinyScale) {
  // Guard: every canned workload must remain generable at its floors.
  for (const SyntheticDbConfig& config : AllControlledConfigs(0.001)) {
    StatusOr<Table> table = GenerateTable(config);
    EXPECT_TRUE(table.ok()) << config.name << ": "
                            << table.status().ToString();
    if (table.ok()) {
      EXPECT_GT(table->num_records(), 0u);
    }
  }
}

}  // namespace
}  // namespace deepcrawl
