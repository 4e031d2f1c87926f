// Content digests for decision memoization (the pair half of the
// ROADMAP's (plan fingerprint, tuple pair digest) cache key).
//
// A tuple digest covers exactly the content DetectionPlan::DecidePair
// reads: the alternatives in order, each alternative's probability and
// its attribute values (alternative texts, probabilities and pattern
// flags). The tuple id is deliberately excluded — two x-tuples with
// identical content decide identically under any plan, so content-equal
// tuples share cache entries across ids, runs and processes.
//
// The pair digest is order-invariant: PairContentDigest(t1, t2) ==
// PairContentDigest(t2, t1), matching the symmetry of the duplicate
// relation. Hashing is FNV-1a 64-bit (util/fnv.h), with length
// prefixes between fields so adjacent strings cannot alias ("ab","c"
// vs "a","bc") and doubles hashed by bit pattern (bit-identical round
// trips, no formatting).

#ifndef PDD_CACHE_PAIR_DIGEST_H_
#define PDD_CACHE_PAIR_DIGEST_H_

#include <cstdint>

#include "pdb/xtuple.h"

namespace pdd {

/// FNV-1a 64-bit digest of one x-tuple's decision-relevant content
/// (alternatives, probabilities, values — not the id).
uint64_t TupleContentDigest(const XTuple& tuple);

/// Order-invariant digest of a candidate pair's content: the two tuple
/// digests combined as an unordered pair (smaller first), re-hashed.
uint64_t PairContentDigest(const XTuple& t1, const XTuple& t2);

/// The same combination step on precomputed tuple digests (for callers
/// that amortize TupleContentDigest across many pairs).
uint64_t CombineTupleDigests(uint64_t d1, uint64_t d2);

}  // namespace pdd

#endif  // PDD_CACHE_PAIR_DIGEST_H_
