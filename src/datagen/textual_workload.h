// Textual-database workload generation.
//
// The paper's Table 1 justifies single-attribute equality queries for
// structured sources, but the related work (Gupta & Bhatia's term-weight
// crawler; Calì et al.'s "Keyword Search in the Deep Web") targets
// free-text sources: a document is a bag of terms, a query is one term
// typed into a search box, and the source answers with every document
// containing it — under any field. This generator produces such sources
// as ordinary Tables so the whole stack (WebDbServer's keyword token
// dictionary, FaultyServer, the TCP wire protocol, the fleet) works
// unchanged:
//
//   * one global term vocabulary with Zipf-distributed popularity
//     (realistic term frequency; exponent ~1 per the classic fit);
//   * every document carries a short "title" and a longer "body" term
//     bag drawn from the SAME vocabulary, so a term's keyword postings
//     genuinely union two columns;
//   * topic structure: each document samples its terms from a biased
//     slice of the vocabulary chosen by a per-document topic draw — the
//     co-occurrence dependency (§3.3) that makes popular terms return
//     overlapping documents;
//   * mixed mode adds structured columns (a unique doc id and a small
//     category pool), modelling sources that expose both a search box
//     and form fields.
//
// Ground truth for harvest accounting is simply the generated Table:
// its num_records() flows through the existing coverage machinery.
// There is no exact OPT ground truth for these workloads (computing the
// optimal keyword cover is the set-cover instance the paper dodges), so
// comparison tools print n/a for cost/OPT.

#ifndef DEEPCRAWL_DATAGEN_TEXTUAL_WORKLOAD_H_
#define DEEPCRAWL_DATAGEN_TEXTUAL_WORKLOAD_H_

#include <cstdint>

#include "src/relation/table.h"
#include "src/util/status.h"

namespace deepcrawl {

struct TextualDbConfig {
  uint32_t num_documents = 2000;
  // Global vocabulary size; term texts are "t<rank>".
  uint32_t vocabulary = 3000;
  // Zipf exponent of term popularity within a topic slice.
  double term_exponent = 1.0;
  // Number of topics; each document draws one topic uniformly and takes
  // a fraction of its terms from that topic's vocabulary slice.
  uint32_t num_topics = 12;
  // Probability a term draw comes from the document's topic slice
  // (the rest come from the global vocabulary).
  double topic_affinity = 0.7;
  // Term-bag lengths, inclusive ranges; duplicates within one field are
  // dropped (a document lists each term once per field).
  uint32_t title_terms_min = 2;
  uint32_t title_terms_max = 4;
  uint32_t body_terms_min = 6;
  uint32_t body_terms_max = 14;
  // Mixed mode: add structured columns next to the term bags.
  bool mixed = false;
  // Category pool size for mixed mode (Zipf-popular, presence 1.0).
  uint32_t num_categories = 20;
  uint64_t seed = 1u;
};

// Generates a textual (or mixed structured+textual) database. Columns:
// "title" and "body" term bags; mixed mode adds "docid" (unique) and
// "category". Returns InvalidArgument on nonsensical configs.
StatusOr<Table> GenerateTextualTable(const TextualDbConfig& config);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_DATAGEN_TEXTUAL_WORKLOAD_H_
