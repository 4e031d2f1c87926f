#include "verify/gold_standard.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_map>

namespace pdd {

IdPair MakeIdPair(std::string a, std::string b) {
  if (b < a) std::swap(a, b);
  return {std::move(a), std::move(b)};
}

void GoldStandard::AddMatch(const std::string& a, const std::string& b) {
  if (a == b) return;
  pairs_.insert(MakeIdPair(a, b));
}

bool GoldStandard::IsMatch(const std::string& a, const std::string& b) const {
  if (a == b) return false;
  return pairs_.count(MakeIdPair(a, b)) > 0;
}

size_t GoldStandard::CountCovered(const std::vector<IdPair>& candidates) const {
  size_t covered = 0;
  for (const IdPair& pair : candidates) {
    if (pairs_.count(MakeIdPair(pair.first, pair.second)) > 0) ++covered;
  }
  return covered;
}

ResolvedGold::ResolvedGold(const GoldStandard& gold,
                           const std::vector<std::string>* ids) {
  if (ids == nullptr || gold.size() == 0) return;
  // Lookups only; the pairs are sorted below, so bucket order never
  // shows.
  std::unordered_multimap<std::string_view, uint32_t> tuples_named;
  tuples_named.reserve(ids->size());
  for (size_t i = 0; i < ids->size(); ++i) {
    tuples_named.emplace((*ids)[i], static_cast<uint32_t>(i));
  }
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  // (i, j), i < j
  for (const IdPair& pair : gold.pairs_) {
    auto [a_begin, a_end] = tuples_named.equal_range(pair.first);
    if (a_begin == a_end) continue;
    auto [b_begin, b_end] = tuples_named.equal_range(pair.second);
    for (auto a = a_begin; a != a_end; ++a) {
      for (auto b = b_begin; b != b_end; ++b) {
        pairs.push_back(std::minmax(a->second, b->second));
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  offsets_.assign(ids->size() + 1, 0);
  partners_.reserve(pairs.size());
  for (const auto& [i, j] : pairs) {
    ++offsets_[i + 1];
    partners_.push_back(j);
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
}

bool ResolvedGold::IsMatch(uint32_t i, uint32_t j) const {
  if (j < i) std::swap(i, j);
  if (size_t{j} + 1 >= offsets_.size()) return false;
  return std::binary_search(partners_.begin() + offsets_[i],
                            partners_.begin() + offsets_[i + 1], j);
}

}  // namespace pdd
