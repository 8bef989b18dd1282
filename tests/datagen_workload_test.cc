// Tests of the synthetic database generator and canned workloads,
// including the statistical properties the paper's experiments rely on
// (power-law degrees, connectivity, correlation).

#include <gtest/gtest.h>

#include "src/datagen/canned_workloads.h"
#include "src/datagen/workload_config.h"
#include "src/graph/attribute_value_graph.h"
#include "src/graph/components.h"
#include "src/graph/power_law.h"
#include "src/index/inverted_index.h"

namespace deepcrawl {
namespace {

SyntheticDbConfig TinyConfig() {
  SyntheticDbConfig config;
  config.name = "tiny";
  config.num_records = 500;
  config.seed = 9;
  config.attributes = {
      {.name = "Hub", .num_distinct = 20, .zipf_exponent = 1.0},
      {.name = "Tail",
       .num_distinct = 400,
       .zipf_exponent = 0.8,
       .min_per_record = 1,
       .max_per_record = 3},
  };
  return config;
}

TEST(GenerateTableTest, ProducesRequestedShape) {
  StatusOr<Table> table = GenerateTable(TinyConfig());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_records(), 500u);
  EXPECT_EQ(table->schema().num_attributes(), 2u);
  EXPECT_LE(table->DistinctValuesPerAttribute()[0], 20u);
  EXPECT_LE(table->DistinctValuesPerAttribute()[1], 400u);
}

TEST(GenerateTableTest, DeterministicForFixedSeed) {
  StatusOr<Table> a = GenerateTable(TinyConfig());
  StatusOr<Table> b = GenerateTable(TinyConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_records(), b->num_records());
  ASSERT_EQ(a->num_distinct_values(), b->num_distinct_values());
  for (RecordId r = 0; r < a->num_records(); ++r) {
    auto ra = a->record(r);
    auto rb = b->record(r);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "record " << r << " differs";
  }
}

TEST(GenerateTableTest, DifferentSeedsDiffer) {
  SyntheticDbConfig config = TinyConfig();
  config.seed = 10;
  StatusOr<Table> a = GenerateTable(TinyConfig());
  StatusOr<Table> b = GenerateTable(config);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_difference = false;
  for (RecordId r = 0; r < a->num_records() && !any_difference; ++r) {
    auto ra = a->record(r);
    auto rb = b->record(r);
    any_difference = ra.size() != rb.size() ||
                     !std::equal(ra.begin(), ra.end(), rb.begin());
  }
  EXPECT_TRUE(any_difference);
}

TEST(GenerateTableTest, ZipfSkewShowsInFrequencies) {
  StatusOr<Table> table = GenerateTable(TinyConfig());
  ASSERT_TRUE(table.ok());
  // The most frequent Hub value should appear far more often than the
  // median one.
  StatusOr<AttributeId> hub = table->schema().FindAttribute("Hub");
  ASSERT_TRUE(hub.ok());
  uint32_t max_freq = 0;
  std::vector<uint32_t> frequencies;
  for (ValueId v = 0; v < table->num_distinct_values(); ++v) {
    if (table->catalog().attribute_of(v) == *hub) {
      frequencies.push_back(table->value_frequency(v));
      max_freq = std::max(max_freq, table->value_frequency(v));
    }
  }
  ASSERT_GE(frequencies.size(), 5u);
  std::sort(frequencies.begin(), frequencies.end());
  uint32_t median = frequencies[frequencies.size() / 2];
  EXPECT_GT(max_freq, 3 * median);
}

TEST(GenerateTableTest, UniquePerRecordGivesOneValueEach) {
  SyntheticDbConfig config;
  config.name = "unique";
  config.num_records = 50;
  config.attributes = {{.name = "Title", .unique_per_record = true}};
  StatusOr<Table> table = GenerateTable(config);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_distinct_values(), 50u);
  for (RecordId r = 0; r < 50; ++r) {
    EXPECT_EQ(table->record(r).size(), 1u);
    EXPECT_EQ(table->value_frequency(table->record(r)[0]), 1u);
  }
}

TEST(GenerateTableTest, CommunityBiasRaisesCooccurrence) {
  // With strong community bias, values from the same community co-occur
  // much more than under the unbiased configuration.
  SyntheticDbConfig biased;
  biased.name = "biased";
  biased.num_records = 2000;
  biased.seed = 4;
  biased.attributes = {{.name = "Member",
                        .num_distinct = 200,
                        .zipf_exponent = 0.5,
                        .min_per_record = 2,
                        .max_per_record = 2,
                        .community_bias = 0.95,
                        .num_communities = 20}};
  SyntheticDbConfig unbiased = biased;
  unbiased.attributes[0].community_bias = 0.0;
  unbiased.attributes[0].num_communities = 0;

  auto same_community_pairs = [](const Table& table) {
    InvertedIndex index(table);
    // Count record pairs of values drawn from the same community slice
    // (slice size = 200/20 = 10).
    uint64_t same = 0, total = 0;
    for (RecordId r = 0; r < table.num_records(); ++r) {
      auto values = table.record(r);
      if (values.size() != 2) continue;
      // Recover pool indices from the value texts "Member#<i>".
      auto pool_of = [&](ValueId v) {
        const std::string text(table.catalog().text_of(v));
        return std::stoi(text.substr(text.find('#') + 1));
      };
      ++total;
      if (pool_of(values[0]) / 10 == pool_of(values[1]) / 10) ++same;
    }
    return static_cast<double>(same) / static_cast<double>(total);
  };

  StatusOr<Table> table_biased = GenerateTable(biased);
  StatusOr<Table> table_unbiased = GenerateTable(unbiased);
  ASSERT_TRUE(table_biased.ok() && table_unbiased.ok());
  EXPECT_GT(same_community_pairs(*table_biased),
            same_community_pairs(*table_unbiased) + 0.3);
}

TEST(GenerateTableTest, InvalidConfigsRejected) {
  SyntheticDbConfig config;
  config.name = "bad";
  config.num_records = 0;
  config.attributes = {{.name = "A", .num_distinct = 5}};
  EXPECT_FALSE(GenerateTable(config).ok());

  config.num_records = 5;
  config.attributes.clear();
  EXPECT_FALSE(GenerateTable(config).ok());

  config.attributes = {{.name = "A", .num_distinct = 0}};
  EXPECT_FALSE(GenerateTable(config).ok());

  config.attributes = {{.name = "A",
                        .num_distinct = 5,
                        .min_per_record = 3,
                        .max_per_record = 2}};
  EXPECT_FALSE(GenerateTable(config).ok());

  config.attributes = {{.name = "A",
                        .num_distinct = 5,
                        .community_bias = 0.5,
                        .num_communities = 0}};
  EXPECT_FALSE(GenerateTable(config).ok());
}

class CannedWorkloadTest
    : public ::testing::TestWithParam<SyntheticDbConfig> {};

TEST_P(CannedWorkloadTest, GeneratesWellConnectedPowerLawDatabase) {
  StatusOr<Table> table = GenerateTable(GetParam());
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  // §5: "99% of all the records are connected". At small scales we still
  // require a dominant component.
  ConnectivityReport connectivity = AnalyzeConnectivity(*table);
  EXPECT_GT(connectivity.largest_component_record_fraction, 0.95)
      << GetParam().name;

  // Figure 2: log-log degree distribution close to a power law.
  AttributeValueGraph graph = AttributeValueGraph::Build(*table);
  PowerLawFit fit =
      FitPowerLaw(ToLogBinnedPoints(graph.DegreeHistogram(), 2.0));
  EXPECT_GT(fit.exponent, 0.4) << GetParam().name;
  EXPECT_GT(fit.r_squared, 0.6) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperDatabases, CannedWorkloadTest,
    ::testing::Values(EbayConfig(0.05), AcmDlConfig(0.02), DblpConfig(0.01),
                      ImdbConfig(0.0125)),
    [](const ::testing::TestParamInfo<SyntheticDbConfig>& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace deepcrawl
