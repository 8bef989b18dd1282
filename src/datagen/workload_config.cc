#include "src/datagen/workload_config.h"

#include <algorithm>
#include <charconv>
#include <memory>
#include <string>
#include <string_view>

#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace deepcrawl {

namespace {

// Decimal digits of `v`.
uint64_t Digits(uint32_t v) {
  uint64_t digits = 1;
  for (; v >= 10; v /= 10) ++digits;
  return digits;
}

Status ValidateConfig(const SyntheticDbConfig& config) {
  if (config.num_records == 0) {
    return Status::InvalidArgument("config needs at least one record");
  }
  if (config.attributes.empty()) {
    return Status::InvalidArgument("config needs at least one attribute");
  }
  for (const AttributeSpec& spec : config.attributes) {
    if (spec.name.empty()) {
      return Status::InvalidArgument("attribute name must be non-empty");
    }
    if (!spec.unique_per_record && spec.derived_from < 0 &&
        spec.num_distinct == 0) {
      return Status::InvalidArgument("attribute '" + spec.name +
                                     "' has an empty value pool");
    }
    if (spec.min_per_record == 0 || spec.min_per_record > spec.max_per_record) {
      return Status::InvalidArgument("attribute '" + spec.name +
                                     "' has an invalid per-record range");
    }
    if (spec.community_bias < 0.0 || spec.community_bias > 1.0) {
      return Status::InvalidArgument("attribute '" + spec.name +
                                     "' has community bias outside [0,1]");
    }
    if (spec.presence <= 0.0 || spec.presence > 1.0) {
      return Status::InvalidArgument("attribute '" + spec.name +
                                     "' has presence outside (0,1]");
    }
    if (spec.community_bias > 0.0 && spec.num_communities == 0) {
      return Status::InvalidArgument("attribute '" + spec.name +
                                     "' sets bias without communities");
    }
  }
  bool has_always_present = false;
  for (const AttributeSpec& spec : config.attributes) {
    if (spec.presence >= 1.0) has_always_present = true;
  }
  if (!has_always_present) {
    return Status::InvalidArgument(
        "at least one attribute must have presence == 1 so every record "
        "is non-empty");
  }
  for (size_t a = 0; a < config.attributes.size(); ++a) {
    const AttributeSpec& spec = config.attributes[a];
    if (spec.derived_from < 0) continue;
    size_t source = static_cast<size_t>(spec.derived_from);
    if (source >= config.attributes.size() || source == a) {
      return Status::InvalidArgument("attribute '" + spec.name +
                                     "' derives from an invalid attribute");
    }
    const AttributeSpec& source_spec = config.attributes[source];
    if (source_spec.derived_from >= 0 || source_spec.unique_per_record) {
      return Status::InvalidArgument(
          "attribute '" + spec.name +
          "' must derive from a plain (non-derived, non-unique) attribute");
    }
    if (spec.derive_group == 0) {
      return Status::InvalidArgument("attribute '" + spec.name +
                                     "' has derive_group == 0");
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<Table> GenerateTable(const SyntheticDbConfig& config) {
  DEEPCRAWL_RETURN_IF_ERROR(ValidateConfig(config));

  Schema schema;
  for (const AttributeSpec& spec : config.attributes) {
    StatusOr<AttributeId> added =
        schema.AddAttribute(spec.name, spec.max_per_record > 1);
    if (!added.ok()) return added.status();
  }
  Table table(std::move(schema));
  ValueCatalog& catalog = table.mutable_catalog();

  Pcg32 rng(config.seed);
  // One sampler per non-unique attribute; community draws reuse the
  // global sampler's rank, folded into the community slice.
  std::vector<std::unique_ptr<ZipfSampler>> samplers(
      config.attributes.size());
  // Per pooled attribute (plain or derived), the value id of each pool
  // index, kInvalidValueId until the index is first drawn. A value's
  // text is formatted and interned once, on first sight, so ids follow
  // the order cells are drawn in — the same order interning every cell
  // of every record would give.
  std::vector<std::vector<ValueId>> pool_ids(config.attributes.size());
  // Upper bounds on distinct values and their text bytes, so the
  // catalog's arrays are allocated once.
  uint64_t max_values = 0;
  uint64_t max_text_bytes = 0;
  for (size_t a = 0; a < config.attributes.size(); ++a) {
    const AttributeSpec& spec = config.attributes[a];
    uint32_t pool = spec.num_distinct;
    uint64_t max_draws = uint64_t{config.num_records} * spec.max_per_record;
    if (spec.derived_from >= 0) {
      const AttributeSpec& source =
          config.attributes[static_cast<size_t>(spec.derived_from)];
      pool = (source.num_distinct - 1) / spec.derive_group + 1;
      max_draws = uint64_t{config.num_records} * source.max_per_record;
    } else if (spec.unique_per_record) {
      max_values += config.num_records;
      max_text_bytes += uint64_t{config.num_records} *
                        (spec.name.size() + 2 + Digits(config.num_records - 1));
      continue;
    } else {
      samplers[a] = std::make_unique<ZipfSampler>(spec.num_distinct,
                                                  spec.zipf_exponent);
    }
    pool_ids[a].assign(pool, kInvalidValueId);
    const uint64_t distinct = std::min<uint64_t>(pool, max_draws);
    max_values += distinct;
    max_text_bytes += distinct * (spec.name.size() + 1 + Digits(pool - 1));
  }
  catalog.Reserve(max_values, max_text_bytes);

  std::string text;  // scratch: "<attr>#<i>" or "<attr>#u<r>"
  auto intern = [&](size_t a, std::string_view marker, uint32_t i) {
    text.assign(config.attributes[a].name);
    text += marker;
    char digits[10];
    text.append(digits, std::to_chars(digits, digits + 10, i).ptr);
    return catalog.Intern(static_cast<AttributeId>(a), text);
  };
  auto pool_value = [&](size_t a, uint32_t index) {
    ValueId& id = pool_ids[a][index];
    if (id == kInvalidValueId) id = intern(a, "#", index);
    return id;
  };

  std::vector<ValueId> values;
  std::vector<std::vector<uint32_t>> drawn(config.attributes.size());
  for (uint32_t r = 0; r < config.num_records; ++r) {
    values.clear();
    for (auto& d : drawn) d.clear();
    // One community draw per RECORD, shared by every biased attribute:
    // this induces CROSS-attribute value dependency (a seller lists in
    // its niche of categories; co-authors share venues), which is what
    // makes the §3.3 duplicate problem — and MMMI's remedy — real.
    double community_u = rng.NextDouble();
    // Pass 1: plain attributes.
    for (size_t a = 0; a < config.attributes.size(); ++a) {
      const AttributeSpec& spec = config.attributes[a];
      if (spec.derived_from >= 0) continue;
      if (spec.presence < 1.0 && !rng.NextBool(spec.presence)) continue;
      if (spec.unique_per_record) {
        values.push_back(intern(a, "#u", r));
        continue;
      }
      uint32_t count = spec.min_per_record;
      if (spec.max_per_record > spec.min_per_record) {
        count += rng.NextBounded(spec.max_per_record - spec.min_per_record +
                                 1);
      }
      // Project the record's community onto this attribute's own
      // community count; biased draws land in the community's
      // contiguous pool slice.
      uint32_t community = 0;
      if (spec.community_bias > 0.0) {
        community = std::min(
            spec.num_communities - 1,
            static_cast<uint32_t>(community_u * spec.num_communities));
      }
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t pool_index;
        if (spec.community_bias > 0.0 && rng.NextBool(spec.community_bias)) {
          // Slice the pool evenly; sample a Zipf rank inside the slice so
          // communities have their own local hubs.
          uint32_t slice = spec.num_distinct / spec.num_communities;
          if (slice == 0) slice = 1;
          uint32_t base = community * slice;
          uint32_t rank = samplers[a]->Sample(rng) % slice;
          pool_index = std::min(base + rank, spec.num_distinct - 1);
        } else {
          pool_index = samplers[a]->Sample(rng);
        }
        drawn[a].push_back(pool_index);
        values.push_back(pool_value(a, pool_index));
      }
    }
    // Pass 2: derived attributes — deterministic functions of the source
    // draws (strong value dependency, §3.3).
    for (size_t a = 0; a < config.attributes.size(); ++a) {
      const AttributeSpec& spec = config.attributes[a];
      if (spec.derived_from < 0) continue;
      if (spec.presence < 1.0 && !rng.NextBool(spec.presence)) continue;
      for (uint32_t source_index :
           drawn[static_cast<size_t>(spec.derived_from)]) {
        values.push_back(pool_value(a, source_index / spec.derive_group));
      }
    }
    StatusOr<RecordId> added = table.AddRecordFromValueIds(values);
    if (!added.ok()) return added.status();
  }
  return table;
}

}  // namespace deepcrawl
