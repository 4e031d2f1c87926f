// Gold standards: the set of true duplicate pairs, keyed by tuple ids.

#ifndef PDD_VERIFY_GOLD_STANDARD_H_
#define PDD_VERIFY_GOLD_STANDARD_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace pdd {

/// Canonical unordered id pair (lexicographically ordered endpoints).
using IdPair = std::pair<std::string, std::string>;

/// Orders the endpoints of an id pair canonically.
IdPair MakeIdPair(std::string a, std::string b);

/// The set of true-duplicate tuple pairs of a dataset.
class GoldStandard {
 public:
  /// Records (a, b) as a true duplicate pair; order-insensitive,
  /// idempotent. Self pairs are ignored.
  void AddMatch(const std::string& a, const std::string& b);

  /// True iff (a, b) is a recorded duplicate pair.
  bool IsMatch(const std::string& a, const std::string& b) const;

  /// Number of recorded pairs.
  size_t size() const { return pairs_.size(); }

  /// All pairs in canonical order.
  std::vector<IdPair> Pairs() const { return {pairs_.begin(), pairs_.end()}; }

  /// Counts how many of `candidates` are gold pairs.
  size_t CountCovered(const std::vector<IdPair>& candidates) const;

 private:
  friend class ResolvedGold;

  std::set<IdPair> pairs_;
};

/// A gold standard resolved into one id table (ids[i] names tuple index
/// i, as DetectionResult::ids does): IsMatch(i, j) equals
/// gold.IsMatch(ids[i], ids[j]) for every index pair, but probes integer
/// pairs instead of copying and comparing id strings. Resolve once per
/// evaluation, then probe every decision record.
class ResolvedGold {
 public:
  /// Gold pairs naming an id absent from `ids` resolve to nothing; an id
  /// held by several tuples resolves to each of them. Null `ids` is an
  /// empty table. Neither argument is retained.
  ResolvedGold(const GoldStandard& gold, const std::vector<std::string>* ids);

  /// True iff tuples i and j (either order) form a gold pair.
  bool IsMatch(uint32_t i, uint32_t j) const;

 private:
  // Gold partners j > i of tuple i: partners_[offsets_[i], offsets_[i+1]),
  // ascending. Empty tables leave both empty.
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> partners_;
};

}  // namespace pdd

#endif  // PDD_VERIFY_GOLD_STANDARD_H_
