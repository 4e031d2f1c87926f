#include "obs/log_histogram.h"

#include <algorithm>
#include <cmath>

namespace pdd {

size_t LogHistogram::BucketIndex(uint64_t value) {
  return value == 0 ? 0 : 64 - static_cast<size_t>(__builtin_clzll(value));
}

uint64_t LogHistogram::BucketUpperBound(size_t index) {
  if (index == 0) return 0;
  if (index >= 64) return UINT64_MAX;
  return (uint64_t{1} << index) - 1;
}

void LogHistogram::RecordN(uint64_t value, uint64_t repeat) {
  if (repeat == 0) return;
  buckets_[BucketIndex(value)] += repeat;
  count_ += repeat;
  sum_ += value * repeat;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

uint64_t LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the requested quantile, 1-based: ceil(q * count), clamped
  // into [1, count]. Pure integer walk afterwards — deterministic for
  // any insertion or merge order.
  double scaled = std::ceil(q * static_cast<double>(count_));
  uint64_t rank = scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
  rank = std::min(rank, count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(kBucketCount - 1);
}

}  // namespace pdd
