// Pull-based candidate pair production (the streaming half of the
// PairGenerator interface). A PairBatchSource yields a generator's
// candidate pairs in bounded batches whose concatenation is EXACTLY the
// vector PairGenerator::Generate() returns — same canonical sorted
// order, same deduplication, same count — so the two paths are
// interchangeable bit-for-bit. Every reduction streams natively: its
// source holds O(relation) index structures but only O(window/block)
// live candidate pairs.
//
// All sources emit in the canonical pair order (ascending (first,
// second)). The shared way to get there with bounded live pairs is
// PerFirstPairSource: walk `first` over the tuple indices in ascending
// order and emit the (sorted, deduplicated) partner set of each —
// grouping by ascending `first` with sorted `second` IS the canonical
// order, and the live buffer is one tuple's partner set, not the whole
// candidate set.

#ifndef PDD_REDUCTION_PAIR_BATCH_SOURCE_H_
#define PDD_REDUCTION_PAIR_BATCH_SOURCE_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace pdd {

struct CandidatePair;

class PairBatchSource {
 public:
  virtual ~PairBatchSource() = default;

  /// Appends up to `max_batch` candidates to `*out` (cleared first) and
  /// returns the number appended; 0 means exhausted. The concatenation
  /// of all batches equals the owning generator's Generate() output.
  virtual size_t NextBatch(size_t max_batch,
                           std::vector<CandidatePair>* out) = 0;

  /// Candidate pairs currently materialized inside the source (its
  /// internal buffers, excluding the caller's batch vector): a small
  /// live buffer. Feeds the drain loop's live-candidate high-water
  /// accounting.
  virtual size_t buffered_candidates() const { return 0; }

  /// Exact total this source will yield, when known without draining
  /// (the full reduction's n(n-1)/2; block and filtering sources don't
  /// know). A reservation hint only.
  virtual std::optional<size_t> exact_count_hint() const {
    return std::nullopt;
  }
};

/// Base of the native sources: emits pairs grouped by ascending first
/// index. Subclasses enumerate one tuple's partners (any u != first,
/// unsorted, duplicates allowed); the base keeps u > first, sorts and
/// deduplicates — yielding the canonical order with a live buffer of
/// one partner set.
class PerFirstPairSource : public PairBatchSource {
 public:
  explicit PerFirstPairSource(size_t tuple_count)
      : tuple_count_(tuple_count) {}

  size_t NextBatch(size_t max_batch, std::vector<CandidatePair>* out) final;
  size_t buffered_candidates() const final {
    return partners_.size() - emitted_;
  }

 protected:
  /// Appends the co-candidate tuples of `first` (unsorted; duplicates
  /// and u < first allowed — the base filters).
  virtual void AppendPartners(size_t first, std::vector<size_t>* out) = 0;

 private:
  size_t tuple_count_;
  size_t next_first_ = 0;    // next tuple index to expand
  size_t current_first_ = 0; // tuple the buffered partners belong to
  std::vector<size_t> partners_;
  size_t emitted_ = 0;       // buffered partners already emitted
};

/// Wraps another source, keeping only pairs the predicate accepts.
/// Order-preserving, so the filtered concatenation is the filtered
/// Generate() output. Used by the pruning filter and the incremental
/// stream's crossing-pair restriction.
class FilteringPairSource : public PairBatchSource {
 public:
  FilteringPairSource(std::unique_ptr<PairBatchSource> inner,
                      std::function<bool(const CandidatePair&)> keep)
      : inner_(std::move(inner)), keep_(std::move(keep)) {}

  size_t NextBatch(size_t max_batch, std::vector<CandidatePair>* out) override;
  size_t buffered_candidates() const override {
    return inner_->buffered_candidates();
  }

 private:
  std::unique_ptr<PairBatchSource> inner_;
  std::function<bool(const CandidatePair&)> keep_;
  std::vector<CandidatePair> scratch_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_PAIR_BATCH_SOURCE_H_
