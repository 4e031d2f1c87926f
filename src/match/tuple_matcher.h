// Tuple-level attribute value matching: builds comparison vectors for
// tuple pairs (Section IV-A) and comparison matrices for x-tuple pairs
// (Section IV-B). Pattern values are expanded against the schema's
// attribute vocabularies before matching.

#ifndef PDD_MATCH_TUPLE_MATCHER_H_
#define PDD_MATCH_TUPLE_MATCHER_H_

#include <vector>

#include "match/attribute_matcher.h"
#include "match/comparison_matrix.h"
#include "match/comparison_vector.h"
#include "pdb/relation.h"
#include "pdb/schema.h"
#include "pdb/xtuple.h"
#include "sim/comparator.h"
#include "util/status.h"

namespace pdd {

/// Computes comparison vectors/matrices with one comparator per attribute.
class TupleMatcher {
 public:
  /// `comparators` holds one non-null comparator per schema attribute and
  /// must outlive the matcher (registry comparators have static storage).
  TupleMatcher(Schema schema, std::vector<const Comparator*> comparators);

  /// Validated construction; fails when the comparator count does not
  /// match the schema arity or a comparator is null.
  static Result<TupleMatcher> Make(Schema schema,
                                   std::vector<const Comparator*> comparators);

  /// The schema attribute values are matched under.
  const Schema& schema() const { return schema_; }

  /// One comparator per schema attribute, in attribute order.
  const std::vector<const Comparator*>& comparators() const {
    return comparators_;
  }

  /// Eq. 5 similarity of attribute `attr` of two values, with pattern
  /// expansion against the attribute's vocabulary.
  double MatchAttribute(size_t attr, const Value& a, const Value& b) const;

  /// Comparison vector of two tuples of the dependency-free model.
  ComparisonVector Compare(const Tuple& a, const Tuple& b) const;

  /// Comparison vector of two alternative tuples (their values may still
  /// be probabilistic, Fig. 5's 'mu*'; Section IV-A formulas apply).
  ComparisonVector CompareAlternatives(const AltTuple& a,
                                       const AltTuple& b) const;

  /// k×l comparison matrix of an x-tuple pair (Fig. 6 input).
  ComparisonMatrix CompareXTuples(const XTuple& a, const XTuple& b) const;

 private:
  Schema schema_;
  std::vector<const Comparator*> comparators_;
};

}  // namespace pdd

#endif  // PDD_MATCH_TUPLE_MATCHER_H_
