#include "cluster/key_distribution_distance.h"

#include <algorithm>
#include <map>

namespace pdd {

namespace {

std::map<std::string, double> NormalizedMap(const KeyDistribution& d) {
  std::map<std::string, double> out;
  double total = d.TotalMass();
  if (total <= 0.0) return out;
  for (const auto& [key, prob] : d.entries) out[key] += prob / total;
  return out;
}

}  // namespace

double OverlapDistance(const KeyDistribution& a, const KeyDistribution& b) {
  std::map<std::string, double> ma = NormalizedMap(a), mb = NormalizedMap(b);
  double overlap = 0.0;
  for (const auto& [key, pa] : ma) {
    auto it = mb.find(key);
    if (it != mb.end()) overlap += std::min(pa, it->second);
  }
  return 1.0 - overlap;
}

double ExpectedKeyDistance(const KeyDistribution& a, const KeyDistribution& b,
                           const Comparator& cmp) {
  std::map<std::string, double> ma = NormalizedMap(a), mb = NormalizedMap(b);
  double sim = 0.0;
  for (const auto& [ka, pa] : ma) {
    for (const auto& [kb, pb] : mb) {
      sim += pa * pb * cmp.Compare(ka, kb);
    }
  }
  return 1.0 - sim;
}

KeyDistributionTable::KeyDistributionTable(
    const std::vector<KeyDistribution>& dists) {
  for (const KeyDistribution& d : dists) {
    for (const auto& entry : d.entries) keys_.push_back(entry.first);
  }
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  postings_.resize(keys_.size());
  offsets_.reserve(dists.size() + 1);
  offsets_.push_back(0);
  std::vector<std::pair<uint32_t, double>> normalized;
  for (size_t t = 0; t < dists.size(); ++t) {
    const KeyDistribution& d = dists[t];
    normalized.clear();
    // NormalizedMap's rule: no entries unless the mass is positive (or
    // NaN), each entry divided by the total mass.
    double total = d.TotalMass();
    if (!(total <= 0.0)) {
      for (const auto& [key, prob] : d.entries) {
        auto id = std::lower_bound(keys_.begin(), keys_.end(), key) -
                  keys_.begin();
        normalized.emplace_back(static_cast<uint32_t>(id), prob / total);
      }
    }
    // Stable, so a repeated key accumulates in entry order from 0.0, as
    // the map's `+=` does.
    std::stable_sort(normalized.begin(), normalized.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    for (const auto& [id, p] : normalized) {
      if (key_ids_.size() == offsets_.back() || key_ids_.back() != id) {
        key_ids_.push_back(id);
        probs_.push_back(0.0);
        postings_[id].push_back(static_cast<uint32_t>(t));
      }
      probs_.back() += p;
    }
    offsets_.push_back(key_ids_.size());
  }
}

KeyDistributionTable KeyDistributionTable::ForRelation(const XRelation& rel,
                                                       const KeySpec& spec,
                                                       bool conditioned) {
  KeyBuilder builder(spec, &rel.schema());
  std::vector<KeyDistribution> dists;
  dists.reserve(rel.size());
  for (const XTuple& t : rel.xtuples()) {
    dists.push_back(builder.DistributionFor(t, conditioned));
  }
  return KeyDistributionTable(dists);
}

double KeyDistributionTable::OverlapDistance(size_t a, size_t b) const {
  // Sorted merge: common keys in ascending key order, as the free
  // function's walk over its map finds them.
  double overlap = 0.0;
  size_t i = offsets_[a], j = offsets_[b];
  while (i < offsets_[a + 1] && j < offsets_[b + 1]) {
    if (key_ids_[i] < key_ids_[j]) {
      ++i;
    } else if (key_ids_[j] < key_ids_[i]) {
      ++j;
    } else {
      overlap += std::min(probs_[i], probs_[j]);
      ++i;
      ++j;
    }
  }
  return 1.0 - overlap;
}

double KeyDistributionTable::ExpectedKeyDistance(size_t a, size_t b,
                                                 const Comparator& cmp) const {
  double sim = 0.0;
  for (size_t i = offsets_[a]; i < offsets_[a + 1]; ++i) {
    for (size_t j = offsets_[b]; j < offsets_[b + 1]; ++j) {
      sim += probs_[i] * probs_[j] *
             cmp.Compare(keys_[key_ids_[i]], keys_[key_ids_[j]]);
    }
  }
  return 1.0 - sim;
}

void KeyDistributionTable::TuplesSharingKey(size_t t,
                                            std::vector<size_t>* out) const {
  out->clear();
  for (size_t e = offsets_[t]; e < offsets_[t + 1]; ++e) {
    const std::vector<uint32_t>& posting = postings_[key_ids_[e]];
    out->insert(out->end(), posting.begin(), posting.end());
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace pdd
