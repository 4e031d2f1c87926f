// Distances between probabilistic key values, used by uncertain-data
// clustering for blocking (Section V-B; cf. [38]-[40]).

#ifndef PDD_CLUSTER_KEY_DISTRIBUTION_DISTANCE_H_
#define PDD_CLUSTER_KEY_DISTRIBUTION_DISTANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "keys/key_builder.h"
#include "sim/comparator.h"

namespace pdd {

/// 1 - distribution overlap: 1 - Σ_k min(p_a(k), p_b(k)) after
/// normalizing both distributions. 0 for identical distributions, 1 for
/// disjoint supports.
double OverlapDistance(const KeyDistribution& a, const KeyDistribution& b);

/// 1 - expected key similarity under `cmp`:
/// 1 - Σ_i Σ_j p_a(i)·p_b(j)·sim(k_i, k_j) (normalized distributions).
/// Softer than OverlapDistance: near-equal key strings count.
double ExpectedKeyDistance(const KeyDistribution& a, const KeyDistribution& b,
                           const Comparator& cmp);

/// Every tuple's normalized key distribution of one relation, built once
/// so that canopies and clustered blocking score pairs without building
/// per-call maps (Todor et al.'s compact per-tuple representation).
/// Keys are interned in std::string operator< order, each tuple's
/// entries are kept sorted by key id and normalized as the free
/// functions do, so every sum runs in their order: the member distances
/// are bit-identical to OverlapDistance / ExpectedKeyDistance on the
/// source distributions. One posting list per key (ascending tuple
/// indices) answers which tuples share a key with a given tuple.
class KeyDistributionTable {
 public:
  /// Tuple t is `dists[t]`.
  explicit KeyDistributionTable(const std::vector<KeyDistribution>& dists);

  /// The key distributions of `rel`'s x-tuples under `spec`
  /// (KeyBuilder::DistributionFor with `conditioned`).
  static KeyDistributionTable ForRelation(const XRelation& rel,
                                          const KeySpec& spec,
                                          bool conditioned);

  /// OverlapDistance of tuples a and b.
  double OverlapDistance(size_t a, size_t b) const;
  /// ExpectedKeyDistance of tuples a and b under `cmp`.
  double ExpectedKeyDistance(size_t a, size_t b, const Comparator& cmp) const;
  /// The cheap distance canopy and clustered blocking select: expected
  /// key distance under `cmp` when non-null, else overlap distance.
  double Distance(size_t a, size_t b, const Comparator* cmp) const {
    return cmp != nullptr ? ExpectedKeyDistance(a, b, *cmp)
                          : OverlapDistance(a, b);
  }

  /// Replaces `out` with every tuple whose normalized distribution
  /// shares a key with tuple t's (t itself included when it has any
  /// key), ascending. Every other tuple is at overlap distance exactly 1
  /// from t.
  void TuplesSharingKey(size_t t, std::vector<size_t>* out) const;

 private:
  std::vector<std::string> keys_;  // by id, ascending
  // Tuple t's entries are [offsets_[t], offsets_[t + 1]) of key_ids_ /
  // probs_, ascending by key id.
  std::vector<size_t> offsets_;
  std::vector<uint32_t> key_ids_;
  std::vector<double> probs_;
  std::vector<std::vector<uint32_t>> postings_;  // by key id
};

}  // namespace pdd

#endif  // PDD_CLUSTER_KEY_DISTRIBUTION_DISTANCE_H_
