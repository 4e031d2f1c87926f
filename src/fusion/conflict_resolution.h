// Conflict resolution strategies from data fusion (Bleiholder & Naumann
// [17]), used by "creation of certain key values" (Section V-A.2): unify
// tuple alternatives to a single one before key creation.

#ifndef PDD_FUSION_CONFLICT_RESOLUTION_H_
#define PDD_FUSION_CONFLICT_RESOLUTION_H_

#include <string>

#include "pdb/value.h"
#include "pdb/xtuple.h"
#include "util/status.h"

namespace pdd {

/// How a set of conflicting alternatives is collapsed to one.
enum class ConflictStrategy {
  /// Metadata-based deciding: pick the most probable alternative
  /// (the paper's example; equivalent to the most probable world).
  kMostProbable = 0,
  /// Keep the first alternative (source order).
  kFirst = 1,
  /// Pick the longest text (most informative heuristic).
  kLongest = 2,
  /// Pick the shortest text.
  kShortest = 3,
  /// Pick the lexicographically smallest text (deterministic tie-break).
  kLexicographicMin = 4,
};

/// Collapses a probabilistic value to one certain text; empty string
/// denotes ⊥. Pattern alternatives contribute their literal prefix.
/// For kMostProbable, a dominant ⊥ mass resolves to ⊥.
std::string ResolveValue(const Value& value, ConflictStrategy strategy);

/// Picks one alternative index of an x-tuple. Text-based strategies
/// compare the concatenation of the alternatives' resolved values.
/// Returns 0 for single-alternative x-tuples.
size_t ResolveAlternative(const XTuple& xtuple, ConflictStrategy strategy);

}  // namespace pdd

#endif  // PDD_FUSION_CONFLICT_RESOLUTION_H_
