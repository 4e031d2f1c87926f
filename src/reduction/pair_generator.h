// Search space reduction interface (Section V): a PairGenerator maps an
// x-relation to the set of candidate tuple pairs the decision model will
// examine. Detection pulls them in bounded batches (Stream); Generate
// materializes the same pairs at once and is the reference every
// Stream is tested against.

#ifndef PDD_REDUCTION_PAIR_GENERATOR_H_
#define PDD_REDUCTION_PAIR_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "pdb/xrelation.h"
#include "reduction/pair_batch_source.h"
#include "util/status.h"

namespace pdd {

/// An unordered candidate pair of x-tuple indices, stored with
/// first < second.
struct CandidatePair {
  size_t first = 0;
  size_t second = 0;

  bool operator==(const CandidatePair& other) const {
    return first == other.first && second == other.second;
  }
  bool operator<(const CandidatePair& other) const {
    return first != other.first ? first < other.first
                                : second < other.second;
  }
};

/// Canonicalizes an index pair (orders the endpoints). a must differ
/// from b.
CandidatePair MakePair(size_t a, size_t b);

/// Sorts and removes duplicates in place.
void SortAndDedupPairs(std::vector<CandidatePair>* pairs);

/// Binary search in a sorted pair list.
bool ContainsPair(const std::vector<CandidatePair>& sorted_pairs,
                  const CandidatePair& pair);

/// Interface of a search space reduction method.
class PairGenerator {
 public:
  virtual ~PairGenerator() = default;

  /// Candidate pairs for `rel`, sorted and deduplicated.
  virtual Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const = 0;

  /// Streaming candidate production: a pull source whose concatenated
  /// batches equal Generate(rel) exactly (order, dedup, count), keeping
  /// only O(window) / O(block) candidate pairs live. The returned
  /// source may reference `rel` and the generator; both must outlive
  /// it. Re-streaming a candidate sequence = calling Stream() again.
  virtual Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const = 0;

  /// Stable method name for reports.
  virtual std::string name() const = 0;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_PAIR_GENERATOR_H_
