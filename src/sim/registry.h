// Name-based lookup of the built-in comparison functions.

#ifndef PDD_SIM_REGISTRY_H_
#define PDD_SIM_REGISTRY_H_

#include <string>
#include <string_view>
#include <vector>

#include "sim/comparator.h"
#include "util/status.h"

namespace pdd {

/// Returns the built-in comparator registered under `name`
/// ("exact", "exact_nocase", "prefix", "hamming", "levenshtein",
/// "damerau", "lcs", "jaro", "jaro_winkler", "qgram2", "qgram3",
/// "jaccard", "dice", "cosine", "monge_elkan", "soundex", "numeric",
/// "numeric_rel"). The returned pointer has static storage duration.
Result<const Comparator*> GetComparator(std::string_view name);

/// Names of all built-in comparators, sorted.
std::vector<std::string> ComparatorNames();

}  // namespace pdd

#endif  // PDD_SIM_REGISTRY_H_
