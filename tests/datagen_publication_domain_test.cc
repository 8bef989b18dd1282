#include "src/datagen/publication_domain.h"

#include <gtest/gtest.h>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/domain/domain_selector.h"
#include "src/domain/domain_table.h"
#include "src/graph/components.h"
#include "src/server/web_db_server.h"

namespace deepcrawl {
namespace {

PublicationDomainPairConfig SmallConfig() {
  PublicationDomainPairConfig config;
  config.universe_size = 4000;
  config.seed = 33;
  return config;
}

TEST(PublicationDomainTest, SizesFollowTheConfiguredFractions) {
  StatusOr<PublicationDomainPair> pair =
      GeneratePublicationDomainPair(SmallConfig());
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(pair->universe.num_records(), 4000u);
  // DBLP coverage 0.8 of the universe (Bernoulli, generous tolerance).
  EXPECT_NEAR(static_cast<double>(pair->sample.num_records()), 3200.0,
              250.0);
  // ACM venues ~0.3 of venues; papers land in them per the venue zipf,
  // so the target is a substantial strict subset.
  EXPECT_GT(pair->target.num_records(), 400u);
  EXPECT_LT(pair->target.num_records(), pair->universe.num_records());
}

TEST(PublicationDomainTest, TargetSchemaHasSponsorOnly) {
  StatusOr<PublicationDomainPair> pair =
      GeneratePublicationDomainPair(SmallConfig());
  ASSERT_TRUE(pair.ok());
  EXPECT_TRUE(pair->target.schema().FindAttribute("Sponsor").ok());
  EXPECT_FALSE(pair->sample.schema().FindAttribute("Sponsor").ok());
  EXPECT_FALSE(pair->universe.schema().FindAttribute("Sponsor").ok());
}

TEST(PublicationDomainTest, DomainTableCoversMostTargetValues) {
  StatusOr<PublicationDomainPair> pair =
      GeneratePublicationDomainPair(SmallConfig());
  ASSERT_TRUE(pair.ok());
  Table& target = pair->target;
  size_t values_before = target.num_distinct_values();
  DomainTable dt = DomainTable::Build(pair->sample, target.schema(),
                                      target.mutable_catalog());
  size_t shared = 0;
  for (ValueId v = 0; v < values_before; ++v) {
    if (dt.Contains(v)) ++shared;
  }
  // DBLP indexes 80% of everything: most target values must be known.
  EXPECT_GT(static_cast<double>(shared) /
                static_cast<double>(values_before),
            0.6);
  // And DBLP contributes candidates the target never matches.
  EXPECT_GT(dt.num_entries(), shared);
}

TEST(PublicationDomainTest, DeterministicForFixedSeed) {
  StatusOr<PublicationDomainPair> a =
      GeneratePublicationDomainPair(SmallConfig());
  StatusOr<PublicationDomainPair> b =
      GeneratePublicationDomainPair(SmallConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->target.num_records(), b->target.num_records());
  EXPECT_EQ(a->sample.num_records(), b->sample.num_records());
  EXPECT_EQ(a->universe.num_distinct_values(),
            b->universe.num_distinct_values());
}

TEST(PublicationDomainTest, InvalidConfigsRejected) {
  PublicationDomainPairConfig config = SmallConfig();
  config.universe_size = 0;
  EXPECT_FALSE(GeneratePublicationDomainPair(config).ok());
  config = SmallConfig();
  config.acm_venue_fraction = 0.0;
  EXPECT_FALSE(GeneratePublicationDomainPair(config).ok());
  config = SmallConfig();
  config.dblp_coverage = 1.5;
  EXPECT_FALSE(GeneratePublicationDomainPair(config).ok());
}

TEST(PublicationDomainTest, DomainKnowledgeBeatsGreedyOnThisDomainToo) {
  // The §4.1 transfer claim at test scale: within a tight budget the
  // DBLP-informed crawler covers more of the ACM-like target.
  StatusOr<PublicationDomainPair> pair =
      GeneratePublicationDomainPair(SmallConfig());
  ASSERT_TRUE(pair.ok());
  Table& target = pair->target;
  DomainTable dt = DomainTable::Build(pair->sample, target.schema(),
                                      target.mutable_catalog());
  ServerOptions server_options;
  WebDbServer server(target, server_options);
  CrawlOptions options;
  options.max_rounds = target.num_records() / 5;

  uint64_t records_dm, records_gl;
  {
    LocalStore store;
    DomainSelector selector(store, dt);
    CrawlEngine crawler(server, selector, store, options);
    records_dm = crawler.Run()->records;
  }
  {
    LocalStore store;
    GreedyLinkSelector selector(store);
    CrawlEngine crawler(server, selector, store, options);
    ValueId seed = 0;
    while (target.value_frequency(seed) == 0) ++seed;
    crawler.AddSeed(seed);
    records_gl = crawler.Run()->records;
  }
  EXPECT_GT(records_dm, records_gl);
}

}  // namespace
}  // namespace deepcrawl
