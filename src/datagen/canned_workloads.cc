#include "src/datagen/canned_workloads.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace deepcrawl {

namespace {

uint32_t Scaled(double scale, uint32_t paper_value, uint32_t floor_value) {
  double scaled = std::round(scale * static_cast<double>(paper_value));
  return std::max(floor_value, static_cast<uint32_t>(scaled));
}

void RequireScaleInRange(double scale) {
  DEEPCRAWL_CHECK_GT(scale, 0.0) << "scale must be positive";
  DEEPCRAWL_CHECK_LE(scale, 1.0) << "scale must not exceed 1";
}

}  // namespace

SyntheticDbConfig EbayConfig(double scale, uint64_t seed) {
  RequireScaleInRange(scale);
  SyntheticDbConfig config;
  config.name = "ebay";
  config.num_records = Scaled(scale, 20000, 200);
  config.seed = seed;
  // Pool sizes are calibrated so the distinct-value count matches the
  // paper's Table 2 ratio (eBay: 22,950 distinct values over 20,000
  // records — most values are rare, average frequency ~3.5), which is
  // what makes the §3.3 marginal phase dependency-dominated.
  config.attributes = {
      // Categories form a shallow hub layer: few values, heavy reuse.
      // Sellers list inside their niche of categories (shared record
      // community), producing the §3.3 cross-attribute dependency.
      {.name = "Category",
       .num_distinct = Scaled(scale, 1200, 24),
       .zipf_exponent = 1.05,
       .presence = 0.85,
       .community_bias = 0.75,
       .num_communities = Scaled(scale, 60, 4)},
      {.name = "Seller",
       .num_distinct = Scaled(scale, 12000, 120),
       .zipf_exponent = 0.75,
       .presence = 1.0,
       .community_bias = 0.75,
       .num_communities = Scaled(scale, 300, 6)},
      {.name = "Location",
       .num_distinct = Scaled(scale, 400, 12),
       .zipf_exponent = 0.95,
       .presence = 0.35,
       .community_bias = 0.5,
       .num_communities = Scaled(scale, 40, 4)},
      {.name = "Price",
       .num_distinct = Scaled(scale, 8000, 80),
       .zipf_exponent = 0.45,
       .presence = 0.55},
      // Store names are a near-duplicate of sellers (a seller has one
      // storefront; a few sellers share one): the paper's canonical
      // "strongly dependent value" whose high degree fools plain greedy
      // selection after its seller was already queried (§3.3).
      {.name = "Store", .presence = 0.8, .derived_from = 1, .derive_group = 2},
  };
  return config;
}

SyntheticDbConfig AcmDlConfig(double scale, uint64_t seed) {
  RequireScaleInRange(scale);
  SyntheticDbConfig config;
  config.name = "acm-dl";
  config.num_records = Scaled(scale, 150000, 300);
  config.seed = seed;
  config.attributes = {
      {.name = "Title", .unique_per_record = true},
      {.name = "Venue",
       .num_distinct = Scaled(scale, 800, 16),
       .zipf_exponent = 1.0,
       .presence = 0.95,
       .community_bias = 0.6,
       .num_communities = Scaled(scale, 100, 4)},
      {.name = "Author",
       .num_distinct = Scaled(scale, 120000, 240),
       .zipf_exponent = 0.85,
       .min_per_record = 1,
       .max_per_record = 4,
       .community_bias = 0.8,
       .num_communities = Scaled(scale, 8000, 16)},
      {.name = "Keyword",
       .num_distinct = Scaled(scale, 6000, 60),
       .zipf_exponent = 1.1,
       .min_per_record = 1,
       .max_per_record = 3,
       .presence = 0.7},
  };
  return config;
}

SyntheticDbConfig DblpConfig(double scale, uint64_t seed) {
  RequireScaleInRange(scale);
  SyntheticDbConfig config;
  config.name = "dblp";
  config.num_records = Scaled(scale, 500000, 500);
  config.seed = seed;
  config.attributes = {
      {.name = "Title", .unique_per_record = true},
      {.name = "Venue",
       .num_distinct = Scaled(scale, 1500, 30),
       .zipf_exponent = 1.0,
       .presence = 0.9,
       .community_bias = 0.6,
       .num_communities = Scaled(scale, 180, 4)},
      {.name = "Author",
       .num_distinct = Scaled(scale, 400000, 800),
       .zipf_exponent = 0.9,
       .min_per_record = 1,
       .max_per_record = 5,
       .community_bias = 0.8,
       .num_communities = Scaled(scale, 25000, 50)},
      {.name = "Volume",
       .num_distinct = Scaled(scale, 120, 10),
       .zipf_exponent = 0.5,
       .presence = 0.5},
  };
  return config;
}

SyntheticDbConfig ImdbConfig(double scale, uint64_t seed) {
  RequireScaleInRange(scale);
  SyntheticDbConfig config;
  config.name = "imdb";
  config.num_records = Scaled(scale, 400000, 400);
  config.seed = seed;
  config.attributes = {
      {.name = "Title", .unique_per_record = true},
      // Casts cluster strongly: actors work within national/genre
      // communities, the paper's canonical dependency example.
      {.name = "Actor",
       .num_distinct = Scaled(scale, 500000, 1000),
       .zipf_exponent = 0.9,
       .min_per_record = 2,
       .max_per_record = 6,
       .community_bias = 0.75,
       .num_communities = Scaled(scale, 20000, 40)},
      {.name = "Director",
       .num_distinct = Scaled(scale, 60000, 120),
       .zipf_exponent = 0.9,
       .presence = 0.9,
       .community_bias = 0.7,
       .num_communities = Scaled(scale, 8000, 24)},
      {.name = "Language",
       .num_distinct = Scaled(scale, 150, 8),
       .zipf_exponent = 1.2,
       .presence = 0.6},
      {.name = "Company",
       .num_distinct = Scaled(scale, 30000, 60),
       .zipf_exponent = 1.0,
       .presence = 0.7,
       .community_bias = 0.5,
       .num_communities = Scaled(scale, 2000, 12)},
  };
  return config;
}

std::vector<SyntheticDbConfig> AllControlledConfigs(double scale) {
  return {EbayConfig(scale), AcmDlConfig(scale), DblpConfig(scale),
          ImdbConfig(scale)};
}

}  // namespace deepcrawl
