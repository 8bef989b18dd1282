#include "src/server/web_db_server.h"

#include <algorithm>
#include <string_view>

#include "src/util/flat_hash.h"
#include "src/util/logging.h"

namespace deepcrawl {

WebDbServer::WebDbServer(const Table& table, ServerOptions options)
    : table_(table), options_(std::move(options)), index_(table) {
  DEEPCRAWL_CHECK_GT(options_.page_size, 0u) << "page size must be positive";
  if (options_.queriable_attributes.empty()) {
    attribute_queriable_.assign(table_.schema().num_attributes(), 1);
  } else {
    attribute_queriable_.assign(table_.schema().num_attributes(), 0);
    for (AttributeId attr : options_.queriable_attributes) {
      DEEPCRAWL_CHECK_LT(attr, table_.schema().num_attributes())
          << "queriable attribute id out of range";
      attribute_queriable_[attr] = 1;
    }
  }
  BuildTokenDictionary();
}

void WebDbServer::BuildTokenDictionary() {
  const ValueCatalog& catalog = table_.catalog();
  size_t num_values = catalog.size();
  tokens_.reserve(num_values);
  token_of_value_.resize(num_values);
  // Text -> the first value carrying it, whose token is then the text's
  // token. Only construction needs it: queries address tokens by value.
  FlatIdIndex token_by_text;
  token_by_text.Reserve(num_values);
  for (ValueId v = 0; v < num_values; ++v) {
    const std::string_view text = catalog.text_of(v);
    const ValueId first = token_by_text.FindOrInsert(
        FlatHashText(text), v,
        [&](ValueId u) { return catalog.text_of(u) == text; });
    if (first == v) {
      token_of_value_[v] = static_cast<uint32_t>(tokens_.size());
      tokens_.push_back(Token{});
    } else {
      token_of_value_[v] = token_of_value_[first];
    }
    Token& token = tokens_[token_of_value_[v]];
    ++token.attribute_span;
    token.single_value = token.attribute_span == 1 ? v : kInvalidValueId;
  }
  // Pre-merge the postings of every multi-attribute token with the same
  // attribute-ordered set_union fold the per-query path used to run, so
  // pages come out byte-identical to the old implementation. Gather the
  // member value ids per token CSR-style (one counting pass, one fill
  // pass), then sort each group by attribute: interning follows record
  // order, not attribute order, and the old path unioned attributes
  // ascending.
  std::vector<uint32_t> offsets(tokens_.size() + 1, 0);
  for (ValueId v = 0; v < num_values; ++v) ++offsets[token_of_value_[v] + 1];
  for (size_t t = 0; t < tokens_.size(); ++t) offsets[t + 1] += offsets[t];
  std::vector<ValueId> members(num_values);
  std::vector<uint32_t> cursor = offsets;
  for (ValueId v = 0; v < num_values; ++v) {
    members[cursor[token_of_value_[v]]++] = v;
  }
  std::vector<RecordId> merged;
  std::vector<RecordId> next;
  for (size_t t = 0; t < tokens_.size(); ++t) {
    Token& token = tokens_[t];
    if (token.single_value != kInvalidValueId) continue;  // single-attr
    std::span<ValueId> group(members.data() + offsets[t],
                             offsets[t + 1] - offsets[t]);
    std::sort(group.begin(), group.end(), [&catalog](ValueId a, ValueId b) {
      return catalog.attribute_of(a) < catalog.attribute_of(b);
    });
    merged.clear();
    for (ValueId u : group) {
      std::span<const RecordId> postings = index_.Postings(u);
      next.clear();
      next.reserve(merged.size() + postings.size());
      std::set_union(merged.begin(), merged.end(), postings.begin(),
                     postings.end(), std::back_inserter(next));
      std::swap(merged, next);
    }
    token.merged_offset = static_cast<uint32_t>(merged_postings_.size());
    token.merged_length = static_cast<uint32_t>(merged.size());
    merged_postings_.insert(merged_postings_.end(), merged.begin(),
                            merged.end());
  }
}

std::span<const RecordId> WebDbServer::TokenPostings(
    const Token& token) const {
  if (token.single_value != kInvalidValueId) {
    return index_.Postings(token.single_value);
  }
  return std::span<const RecordId>(merged_postings_)
      .subspan(token.merged_offset, token.merged_length);
}

std::span<const RecordId> WebDbServer::KeywordPostings(ValueId value) const {
  if (value >= token_of_value_.size()) return {};
  return TokenPostings(tokens_[token_of_value_[value]]);
}

uint32_t WebDbServer::KeywordAttributeSpan(ValueId value) const {
  if (value >= token_of_value_.size()) return 0;
  return tokens_[token_of_value_[value]].attribute_span;
}

bool WebDbServer::IsQueriableValue(ValueId value) const {
  if (value >= table_.catalog().size()) return false;
  AttributeId attr = table_.catalog().attribute_of(value);
  return attr < attribute_queriable_.size() &&
         attribute_queriable_[attr] != 0;
}

StatusOr<ResultPage> WebDbServer::BuildPage(std::span<const RecordId> postings,
                                            uint32_t total_matches,
                                            uint32_t page_number) {
  uint32_t retrievable = static_cast<uint32_t>(postings.size());
  if (options_.result_limit > 0) {
    retrievable = std::min(retrievable, options_.result_limit);
  }
  uint64_t begin = static_cast<uint64_t>(page_number) * options_.page_size;
  if (begin >= retrievable && !(page_number == 0 && retrievable == 0)) {
    return Status::OutOfRange("page " + std::to_string(page_number) +
                              " is past the last retrievable page");
  }
  uint64_t end = std::min<uint64_t>(begin + options_.page_size, retrievable);
  ResultPage page;
  page.page_number = page_number;
  page.has_more = end < retrievable;
  if (options_.reports_total_count) page.total_matches = total_matches;
  page.records.reserve(end - begin);
  for (uint64_t i = begin; i < end; ++i) {
    RecordId id = postings[i];
    page.records.push_back(ReturnedRecord{id, table_.record(id)});
  }
  return page;
}

StatusOr<ResultPage> WebDbServer::FetchPage(ValueId value,
                                            uint32_t page_number) {
  if (value >= table_.num_distinct_values() || !IsQueriableValue(value)) {
    // Unknown value, or an attribute the form has no field for: the
    // site answers "no results".
    return BuildPage({}, 0, page_number);
  }
  std::span<const RecordId> postings = index_.Postings(value);
  return BuildPage(postings, static_cast<uint32_t>(postings.size()),
                   page_number);
}

StatusOr<ResultPage> WebDbServer::FetchPageKeywordOf(ValueId value,
                                                     uint32_t page_number) {
  if (value >= token_of_value_.size()) {
    return BuildPage({}, 0, page_number);
  }
  // The site's own query processor decides which column matches (§2.2):
  // the token's postings are the all-attributes union, precomputed at
  // construction. The keyword box deliberately ignores
  // queriable_attributes: a site's search box reaches columns its form
  // has no field for.
  std::span<const RecordId> postings =
      TokenPostings(tokens_[token_of_value_[value]]);
  return BuildPage(postings, static_cast<uint32_t>(postings.size()),
                   page_number);
}

uint32_t WebDbServer::FullRetrievalCost(ValueId value) const {
  uint32_t matches = value < table_.num_distinct_values()
                         ? index_.MatchCount(value)
                         : 0;
  if (options_.result_limit > 0) {
    matches = std::min(matches, options_.result_limit);
  }
  if (matches == 0) return 1;  // one round to learn there is nothing
  return (matches + options_.page_size - 1) / options_.page_size;
}

}  // namespace deepcrawl
