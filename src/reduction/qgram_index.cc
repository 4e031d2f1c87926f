#include "reduction/qgram_index.h"

#include <algorithm>
#include <map>
#include <set>

#include "reduction/blocking.h"
#include "util/string_util.h"

namespace pdd {

Result<std::vector<std::vector<size_t>>> QGramIndexReduction::Postings(
    const XRelation& rel) const {
  if (options_.q == 0) {
    return Status::InvalidArgument("q must be at least 1");
  }
  if (options_.min_shared_grams == 0) {
    return Status::InvalidArgument("min_shared_grams must be at least 1");
  }
  KeyBuilder builder(spec_, &rel.schema());
  // Distinct grams per tuple (set semantics across all alternative keys).
  std::map<std::string, std::vector<size_t>> postings;
  for (size_t i = 0; i < rel.size(); ++i) {
    std::set<std::string> grams;
    for (const std::string& key : builder.AlternativeKeys(rel.xtuple(i))) {
      for (std::string& gram : QGrams(key, options_.q)) {
        grams.insert(std::move(gram));
      }
    }
    for (const std::string& gram : grams) {
      postings[gram].push_back(i);
    }
  }
  size_t max_posting = std::max(
      options_.stop_gram_floor,
      static_cast<size_t>(options_.max_posting_fraction *
                          static_cast<double>(rel.size())));
  if (max_posting == 0) max_posting = 1;
  std::vector<std::vector<size_t>> kept;
  for (auto& [gram, tuples] : postings) {
    if (tuples.size() <= max_posting) kept.push_back(std::move(tuples));
  }
  return kept;
}

Result<std::vector<CandidatePair>> QGramIndexReduction::Generate(
    const XRelation& rel) const {
  PDD_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> postings,
                       Postings(rel));
  // One code per (pair, shared gram); sorted, a pair's codes form one
  // run as long as its shared-gram count, in canonical pair order.
  std::vector<uint64_t> codes;
  for (const std::vector<size_t>& tuples : postings) {
    for (size_t a = 0; a < tuples.size(); ++a) {
      for (size_t b = a + 1; b < tuples.size(); ++b) {
        codes.push_back((static_cast<uint64_t>(tuples[a]) << 32) |
                        static_cast<uint64_t>(tuples[b]));
      }
    }
  }
  std::sort(codes.begin(), codes.end());
  std::vector<CandidatePair> pairs;
  for (size_t run = 0; run < codes.size();) {
    size_t next = run + 1;
    while (next < codes.size() && codes[next] == codes[run]) ++next;
    if (next - run >= options_.min_shared_grams) {
      pairs.push_back({static_cast<size_t>(codes[run] >> 32),
                       static_cast<size_t>(codes[run] & 0xffffffffu)});
    }
    run = next;
  }
  return pairs;
}

Result<std::unique_ptr<PairBatchSource>> QGramIndexReduction::Stream(
    const XRelation& rel) const {
  PDD_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> postings,
                       Postings(rel));
  return std::unique_ptr<PairBatchSource>(std::make_unique<BlockPairSource>(
      std::move(postings), rel.size(), options_.min_shared_grams));
}

}  // namespace pdd
