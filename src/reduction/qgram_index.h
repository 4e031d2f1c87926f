// Q-gram inverted-index candidate generation, adapted to probabilistic
// keys: every alternative key value of every x-tuple posts its padded
// character q-grams into an inverted index; tuple pairs sharing at least
// `min_shared_grams` q-grams (via any of their alternative keys) become
// candidates.
//
// Compared to canopy reduction this avoids the O(n²) distance
// evaluations — cost is driven by posting-list sizes — and compared to
// blocking it tolerates typos anywhere in the key (no exact key match
// required). The uncertain-key handling follows Section V's theme: all
// alternatives post, so no alternative's neighborhood is lost.

#ifndef PDD_REDUCTION_QGRAM_INDEX_H_
#define PDD_REDUCTION_QGRAM_INDEX_H_

#include "keys/key_builder.h"
#include "reduction/pair_generator.h"

namespace pdd {

/// Options of q-gram index reduction.
struct QGramIndexOptions {
  /// Gram size (>= 1).
  size_t q = 2;
  /// Minimum number of distinct shared grams for a candidate pair.
  size_t min_shared_grams = 2;
  /// Grams whose posting list exceeds this fraction of all tuples are
  /// ignored (stop-gram filtering; 1.0 disables).
  double max_posting_fraction = 0.5;
  /// Posting-list floor below which no gram is ever filtered — keeps the
  /// stop-gram heuristic from firing on small relations where every gram
  /// exceeds the fraction.
  size_t stop_gram_floor = 10;
};

/// Inverted q-gram index over alternative key values.
class QGramIndexReduction : public PairGenerator {
 public:
  QGramIndexReduction(KeySpec spec, QGramIndexOptions options)
      : spec_(std::move(spec)), options_(options) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// The posting lists are the blocks of a BlockPairSource that keeps
  /// pairs sharing min_shared_grams of them: live candidates are
  /// bounded by one tuple's posting-list neighbours.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "qgram_index"; }

 private:
  /// The posting list (ascending tuple indices) of every gram that is
  /// not a stop-gram; each tuple posts a gram at most once.
  Result<std::vector<std::vector<size_t>>> Postings(
      const XRelation& rel) const;

  KeySpec spec_;
  QGramIndexOptions options_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_QGRAM_INDEX_H_
