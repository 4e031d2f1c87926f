#include "reduction/pair_generator.h"

#include <algorithm>
#include <cassert>

namespace pdd {

CandidatePair MakePair(size_t a, size_t b) {
  assert(a != b);
  return a < b ? CandidatePair{a, b} : CandidatePair{b, a};
}

void SortAndDedupPairs(std::vector<CandidatePair>* pairs) {
  std::sort(pairs->begin(), pairs->end());
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

bool ContainsPair(const std::vector<CandidatePair>& sorted_pairs,
                  const CandidatePair& pair) {
  return std::binary_search(sorted_pairs.begin(), sorted_pairs.end(), pair);
}

}  // namespace pdd
