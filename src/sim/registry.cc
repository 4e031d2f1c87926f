#include "sim/registry.h"

#include <algorithm>
#include <map>

#include "sim/edit_distance.h"
#include "sim/jaro.h"
#include "sim/numeric_similarity.h"
#include "sim/phonetic.h"
#include "sim/token_similarity.h"

namespace pdd {

namespace {

const std::map<std::string, const Comparator*, std::less<>>& BuiltinMap() {
  static const auto* map = [] {
    static ExactComparator exact;
    static ExactIgnoreCaseComparator exact_nocase;
    static PrefixComparator prefix;
    static NormalizedHammingComparator hamming;
    static LevenshteinComparator levenshtein;
    static DamerauLevenshteinComparator damerau;
    static LcsComparator lcs;
    static JaroComparator jaro;
    static JaroWinklerComparator jaro_winkler;
    static QGramComparator qgram2(2);
    static QGramComparator qgram3(3);
    static JaccardTokenComparator jaccard;
    static DiceTokenComparator dice;
    static CosineQGramComparator cosine(2);
    static MongeElkanComparator monge_elkan(&jaro_winkler);
    static SoundexComparator soundex;
    static NumericComparator numeric(1.0);
    static RelativeNumericComparator numeric_rel;
    auto* m = new std::map<std::string, const Comparator*, std::less<>>{
        {"exact", &exact},
        {"exact_nocase", &exact_nocase},
        {"prefix", &prefix},
        {"hamming", &hamming},
        {"levenshtein", &levenshtein},
        {"damerau", &damerau},
        {"lcs", &lcs},
        {"jaro", &jaro},
        {"jaro_winkler", &jaro_winkler},
        {"qgram2", &qgram2},
        {"qgram3", &qgram3},
        {"jaccard", &jaccard},
        {"dice", &dice},
        {"cosine", &cosine},
        {"monge_elkan", &monge_elkan},
        {"soundex", &soundex},
        {"numeric", &numeric},
        {"numeric_rel", &numeric_rel},
    };
    return m;
  }();
  return *map;
}

}  // namespace

Result<const Comparator*> GetComparator(std::string_view name) {
  const auto& map = BuiltinMap();
  auto it = map.find(name);
  if (it == map.end()) {
    return Status::NotFound("no comparator named '" + std::string(name) + "'");
  }
  return it->second;
}

std::vector<std::string> ComparatorNames() {
  std::vector<std::string> names;
  for (const auto& [name, cmp] : BuiltinMap()) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace pdd
