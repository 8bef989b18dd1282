// WebDbServer: a simulated structured Web database behind a query
// interface.
//
// This module plays the role of the paper's "controlled database
// servers" (§5): server programs that mimic Web-site behaviour on top of
// a relational backend. The crawler may interact with a database ONLY
// through the QueryInterface this class implements, which exposes
// exactly what a real site would:
//
//   * single-attribute equality queries (Definition 2.2), addressed by
//     interned value id (FetchPage);
//   * keyword-box queries (§2.2's "fading schema"): a value's text
//     matched against every attribute (FetchPageKeywordOf);
//   * paginated results, at most `page_size` (k) records per page
//     (Definition 2.3's cost model: one page fetch = one communication
//     round);
//   * an optional result-size limit: most real sources cap how many of
//     the matched records can actually be retrieved (§5.4; Amazon used
//     3200, Yahoo Automobile ~20 pages);
//   * an optional total-match count on every page, as most sources
//     report "N results found" (exploited by the §3.4 abort heuristics).
//
// The server keeps no meters: the paper's cost measure is counted by the
// crawler that pays it (CrawlEngine's rounds and queries). Unlike a real
// source, WebDbServer answers every query perfectly; wrap it in a
// FaultyServer (faulty_server.h) to model transient failures.

#ifndef DEEPCRAWL_SERVER_WEB_DB_SERVER_H_
#define DEEPCRAWL_SERVER_WEB_DB_SERVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/index/inverted_index.h"
#include "src/relation/table.h"
#include "src/relation/types.h"
#include "src/server/query_interface.h"
#include "src/util/status.h"

namespace deepcrawl {

class WebDbServer : public QueryInterface {
 public:
  // `table` must outlive the server and must not change afterwards.
  WebDbServer(const Table& table, ServerOptions options);

  WebDbServer(const WebDbServer&) = delete;
  WebDbServer& operator=(const WebDbServer&) = delete;

  // QueryInterface implementation; see query_interface.h for contracts.
  StatusOr<ResultPage> FetchPage(ValueId value, uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageKeywordOf(ValueId value,
                                          uint32_t page_number) override;

  const ServerOptions& options() const override { return options_; }
  bool IsQueriableValue(ValueId value) const override;
  uint32_t num_values() const override {
    return static_cast<uint32_t>(table_.catalog().size());
  }

  // --- harness-only introspection (not visible to selectors) -----------

  const Table& table() const { return table_; }
  const InvertedIndex& index() const { return index_; }

  // Number of result pages a full retrieval of `value` costs, i.e.
  // cost(q, DB) of Definition 2.3, under the configured page size and
  // result limit. Zero-match queries still cost one round to learn that.
  uint32_t FullRetrievalCost(ValueId value) const;

  // --- keyword token dictionary ---------------------------------------
  // The keyword box treats a document as a bag of terms: the same raw
  // text under any attribute is one *token*, and a keyword query returns
  // the union of the token's postings across every attribute (the
  // query processor decides which column matches, §2.2). The dictionary
  // below is built once at construction, so a keyword query is one
  // array read instead of a per-query catalog probe + set_union fold
  // over all attributes.

  // Distinct raw texts in the catalog.
  size_t num_keyword_tokens() const { return tokens_.size(); }

  // Record ids matching the token of `value`'s text, sorted ascending.
  // Empty span when the value id is out of range.
  std::span<const RecordId> KeywordPostings(ValueId value) const;

  // Number of attributes `value`'s text appears under (≥1 for any valid
  // id); >1 means the keyword union genuinely merges columns.
  uint32_t KeywordAttributeSpan(ValueId value) const;

 private:
  // One token = one distinct raw text. Tokens backed by a single catalog
  // value alias that value's index postings; multi-attribute tokens own
  // a precomputed merged slice of merged_postings_.
  struct Token {
    ValueId single_value = kInvalidValueId;
    uint32_t merged_offset = 0;
    uint32_t merged_length = 0;
    uint32_t attribute_span = 0;
  };

  StatusOr<ResultPage> BuildPage(std::span<const RecordId> postings,
                                 uint32_t total_matches,
                                 uint32_t page_number);

  void BuildTokenDictionary();
  std::span<const RecordId> TokenPostings(const Token& token) const;

  const Table& table_;
  ServerOptions options_;
  InvertedIndex index_;
  std::vector<char> attribute_queriable_;  // indexed by AttributeId
  std::vector<Token> tokens_;
  std::vector<uint32_t> token_of_value_;  // by ValueId
  std::vector<RecordId> merged_postings_;  // arena for multi-attr tokens
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_SERVER_WEB_DB_SERVER_H_
