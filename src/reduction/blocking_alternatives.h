// Blocking with alternative key values (Section V-B, Fig. 14): an
// x-tuple is inserted into one block per alternative key. Multiple
// occurrences of the same tuple within one block are collapsed, and the
// executed-matching matrix prevents duplicate matchings across blocks.

#ifndef PDD_REDUCTION_BLOCKING_ALTERNATIVES_H_
#define PDD_REDUCTION_BLOCKING_ALTERNATIVES_H_

#include "keys/key_builder.h"
#include "reduction/blocking.h"
#include "reduction/pair_generator.h"

namespace pdd {

/// Alternative-key blocking (a tuple may populate several blocks).
class BlockingAlternatives : public PairGenerator {
 public:
  explicit BlockingAlternatives(KeySpec spec) : spec_(std::move(spec)) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Native streaming over the multi-membership partition; the
  /// per-first dedup replaces the executed-matching matrix.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "blocking_alternatives"; }

  /// The block assignment after within-block duplicate removal
  /// (exposed for Fig. 14).
  BlockMap Blocks(const XRelation& rel) const;

 private:
  KeySpec spec_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_BLOCKING_ALTERNATIVES_H_
