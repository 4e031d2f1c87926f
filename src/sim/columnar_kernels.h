// Columnar comparator kernels: allocation-free, signature-accelerated
// span implementations of the registry comparators, used by
// ColumnarMatcher (match/columnar_matcher.h) over a RelationArena.
// A comparator without a kernel (monge_elkan, soundex, custom
// instances) runs its own Compare inside the same matcher loop.
//
// Contract: for every registered comparator name with a kernel,
//   kernel(a, b, sig_a, sig_b, scratch) == GetComparator(name)->Compare(a, b)
// BIT-IDENTICALLY, for any inputs and any (correct) signatures. That is
// what keeps the executor's records byte-identical to the
// DetectionPlan::DecidePair reference. Kernels therefore only take
// shortcuts that are exact under IEEE 754:
//
//   * equality exits for comparators whose self-similarity is exactly
//     1.0 (integer-distance families, Jaro: x/x == 1.0 for x > 0);
//   * the q-gram signature test (sig_a & sig_b) == 0, which proves the
//     padded-2-gram intersection is exactly empty (equal grams hash to
//     equal bits, so a shared gram forces a shared bit) and the scalar
//     formula then yields exactly 0.0;
//   * banded edit distance (Ukkonen band doubling), which returns the
//     same integer distance as the full DP.
//
// Cosine deliberately takes no equality exit: sqrt(n)*sqrt(n) need not
// equal n in floating point, so cosine(a, a) is not guaranteed to be
// bit-1.0 and the kernel must run the same arithmetic as the scalar.
//
// Kernels are free functions behind function pointers (no virtual
// dispatch inside a batch) and share SimScratch buffers, so the inner
// comparison loops are flat and allocation-free — the shape the
// autovectorizer needs.

#ifndef PDD_SIM_COLUMNAR_KERNELS_H_
#define PDD_SIM_COLUMNAR_KERNELS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_scratch.h"

namespace pdd {

/// A columnar comparator kernel. `sig_a` / `sig_b` are the operands'
/// QGram2Signature values (precomputed in the arena); kernels that
/// cannot use them ignore them.
using ColumnarKernelFn = double (*)(std::string_view a, std::string_view b,
                                    uint64_t sig_a, uint64_t sig_b,
                                    SimScratch& scratch);

/// 64-bit bitset signature over the padded character 2-grams of `s`
/// (pad '#', matching util/string_util.h QGrams). Two strings with a
/// common padded 2-gram share at least one set bit, so a zero AND
/// proves an empty gram intersection. The converse does not hold
/// (hash collisions), which is why kernels only use the zero test.
uint64_t QGram2Signature(std::string_view s);

/// The kernel registered for a comparator name, or nullptr when the
/// comparator has none (monge_elkan, soundex, unknown names).
ColumnarKernelFn FindColumnarKernel(std::string_view comparator_name);

/// Names of all comparators that have a columnar kernel, sorted.
std::vector<std::string> ColumnarKernelNames();

}  // namespace pdd

#endif  // PDD_SIM_COLUMNAR_KERNELS_H_
