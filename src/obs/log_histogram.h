// LogHistogram: a log2-bucketed histogram over unsigned 64-bit values
// with exact, deterministic counts. The bucket layout is fixed (bucket
// 0 holds the value 0, bucket i >= 1 holds [2^(i-1), 2^i - 1]), so two
// histograms fed the same multiset of values are equal member for
// member regardless of insertion order, thread interleaving or merge
// grouping — the property the telemetry identity gate relies on.
//
// Quantile extraction (p50/p95/p99) is bucket-resolution: it returns
// the inclusive upper bound of the bucket containing the requested
// rank, a deterministic function of the counts alone. Exact sum, min
// and max ride along for averages and range reporting.
//
// Latency recordings conventionally use microseconds (the telemetry
// namespace doc in metrics_registry.h), but the histogram itself is
// unit-agnostic.

#ifndef PDD_OBS_LOG_HISTOGRAM_H_
#define PDD_OBS_LOG_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace pdd {

class LogHistogram {
 public:
  /// Bucket 0 plus one bucket per bit width 1..64.
  static constexpr size_t kBucketCount = 65;

  /// The bucket holding `value`: 0 for 0, else the value's bit width.
  static size_t BucketIndex(uint64_t value);

  /// Inclusive upper bound of bucket `index` (0, 1, 3, 7, ..., 2^63-1,
  /// UINT64_MAX).
  static uint64_t BucketUpperBound(size_t index);

  void Record(uint64_t value) { RecordN(value, 1); }
  void RecordN(uint64_t value, uint64_t repeat);

  /// Element-wise accumulation; merging in any grouping or order yields
  /// the same state as recording every value into one histogram.
  void Merge(const LogHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// Smallest / largest recorded value; 0 when empty.
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  /// Exact mean rounded down; 0 when empty.
  uint64_t MeanFloor() const { return count_ == 0 ? 0 : sum_ / count_; }

  /// Upper bound of the bucket containing rank ceil(q * count) (clamped
  /// to [1, count]); 0 when empty. q outside [0, 1] is clamped.
  uint64_t Quantile(double q) const;

  const std::array<uint64_t, kBucketCount>& buckets() const {
    return buckets_;
  }

  bool operator==(const LogHistogram& other) const {
    return buckets_ == other.buckets_ && count_ == other.count_ &&
           sum_ == other.sum_ && min() == other.min() && max_ == other.max_;
  }
  bool operator!=(const LogHistogram& other) const {
    return !(*this == other);
  }

 private:
  std::array<uint64_t, kBucketCount> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

}  // namespace pdd

#endif  // PDD_OBS_LOG_HISTOGRAM_H_
