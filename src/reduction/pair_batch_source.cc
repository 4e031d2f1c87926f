#include "reduction/pair_batch_source.h"

#include <algorithm>

#include "reduction/pair_generator.h"

namespace pdd {

size_t PerFirstPairSource::NextBatch(size_t max_batch,
                                     std::vector<CandidatePair>* out) {
  out->clear();
  while (out->size() < max_batch) {
    if (consumed_ == partners_.size()) {
      // Refill: expand tuples until one has partners (or none are left).
      partners_.clear();
      consumed_ = 0;
      while (partners_.empty() && next_first_ < tuple_count_) {
        current_first_ = next_first_++;
        AppendPartners(current_first_, &partners_);
        // Canonicalize the partner set: emitting only from the smaller
        // endpoint (u > first) covers every pair exactly once, and the
        // sorted unique suffix makes the group order canonical.
        partners_.erase(std::remove_if(partners_.begin(), partners_.end(),
                                       [this](size_t u) {
                                         return u <= current_first_;
                                       }),
                        partners_.end());
        std::sort(partners_.begin(), partners_.end());
        partners_.erase(std::unique(partners_.begin(), partners_.end()),
                        partners_.end());
      }
      if (partners_.empty()) break;  // exhausted
    }
    while (consumed_ < partners_.size() && out->size() < max_batch) {
      out->push_back({current_first_, partners_[consumed_++]});
    }
  }
  return out->size();
}

size_t FilteringPairSource::NextBatch(size_t max_batch,
                                      std::vector<CandidatePair>* out) {
  out->clear();
  while (out->size() < max_batch) {
    size_t pulled = inner_->NextBatch(max_batch - out->size(), &scratch_);
    if (pulled == 0) break;
    for (const CandidatePair& pair : scratch_) {
      if (keep_(pair)) out->push_back(pair);
    }
  }
  return out->size();
}

}  // namespace pdd
