// DecisionIndex: the query half of the decision serving layer. Opens a
// pdd.index.v1 file (mmap) or an in-memory image and answers
//
//   Lookup(a, b)      -> the run's decision for the pair (class +
//                        bit-exact similarity), or nothing when the
//                        run never examined it   [O(log degree)]
//   ClusterOf(x)      -> entity-cluster id of record x        [O(1)]
//   Members(c)        -> the cluster's records, ascending      [O(1)]
//   FindRecord(id)    -> record index of an id       [O(log records)]
//
// Zero allocation per query: every answer is computed with pointer
// arithmetic into the mapped region and returned by value
// (tests/decision_index_test.cc asserts this with operator-new
// counting hooks). The object is immutable after Open and safe to
// share across threads.
//
// Staleness is checked structurally: Open validates magic, version,
// endianness, size and the payload digest (corrupted or truncated
// files are rejected with a diagnostic, never served), and
// VerifyPlanFingerprint / VerifySourceDigest compare the stamped
// identities against a live plan or a fresh run's report.

#ifndef PDD_INDEX_DECISION_INDEX_H_
#define PDD_INDEX_DECISION_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "decision/classifier.h"
#include "index/format.h"
#include "index/mapped_file.h"
#include "util/status.h"

namespace pdd {

/// One indexed pair decision (what the report recorded for the pair).
struct IndexedDecision {
  MatchClass match_class = MatchClass::kUnmatch;
  /// The derived similarity, bit-identical to the report's.
  double similarity = 0.0;
};

/// A contiguous run of record indices inside the mapped region (the
/// zero-copy answer to Members()). Valid while the index is open.
struct RecordSpan {
  const uint32_t* data = nullptr;
  size_t size = 0;

  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + size; }
  bool empty() const { return size == 0; }
  uint32_t operator[](size_t i) const { return data[i]; }
};

class DecisionIndex {
 public:
  /// Options of Open/FromImage. Verification hashes the whole payload
  /// once; serving processes that reopen a file they just validated
  /// can skip it. Either way Open checks, in O(records), that every
  /// offset stays inside its section and every table entry names a
  /// record or cluster, and RunEntry checks each neighbor it decodes:
  /// a corrupted file opened without the digest may answer wrongly,
  /// but never reads outside its image.
  struct OpenOptions {
    bool verify_digest = true;
  };

  DecisionIndex() = default;

  /// Maps and validates an index file.
  static Result<DecisionIndex> Open(const std::string& path,
                                    const OpenOptions& options);
  static Result<DecisionIndex> Open(const std::string& path) {
    return Open(path, OpenOptions());
  }

  /// Adopts and validates an in-memory image (builder output — the
  /// fileless round trip used by tests and benches).
  static Result<DecisionIndex> FromImage(std::string image,
                                         const OpenOptions& options);
  static Result<DecisionIndex> FromImage(std::string image) {
    return FromImage(std::move(image), OpenOptions());
  }

  // --- queries (all zero-allocation) ---------------------------------

  /// The run's decision for the unordered pair (a, b), or nullopt when
  /// the run never examined it. Out-of-range or equal indices resolve
  /// to nullopt (not an error: "not a candidate pair" is an answer).
  std::optional<IndexedDecision> Lookup(uint32_t a, uint32_t b) const;

  /// Id-keyed form of Lookup (two binary searches + one Lookup).
  std::optional<IndexedDecision> Lookup(std::string_view id1,
                                        std::string_view id2) const;

  /// Entity-cluster id of record `x` (clusters are transitive closures
  /// of the run's duplicate decisions; singletons included). nullopt
  /// when out of range.
  std::optional<uint32_t> ClusterOf(uint32_t x) const;

  /// Records of cluster `c`, ascending. Empty span when out of range.
  RecordSpan Members(uint32_t c) const;

  /// Record index of `id`, or nullopt when unknown.
  std::optional<uint32_t> FindRecord(std::string_view id) const;

  /// Id of record `r` (view into the mapped arena); empty when out of
  /// range.
  std::string_view RecordId(uint32_t r) const;

  /// Neighbors of `r` with a decided pair where r is the lower index
  /// (the record's own adjacency run; full-degree walks also consult
  /// runs of lower records). For inspect/bench sweeps.
  size_t RunLength(uint32_t r) const;
  /// The k-th neighbor of r's run plus its decision. False, with the
  /// outputs untouched, when k is past the run or the stored neighbor
  /// lies outside the records (only in a corrupted image opened
  /// without its digest check).
  bool RunEntry(uint32_t r, size_t k, uint32_t* neighbor,
                IndexedDecision* decision) const;

  // --- identity / staleness ------------------------------------------

  uint64_t plan_fingerprint() const { return header_.plan_fingerprint; }
  uint64_t source_digest() const { return header_.source_digest; }
  uint64_t record_count() const { return header_.record_count; }
  uint64_t pair_count() const { return header_.pair_count; }
  uint64_t cluster_count() const { return header_.cluster_count; }
  uint64_t bytes() const { return size_; }
  /// True when the view is a real file mapping (false: heap image).
  bool is_mmap() const { return file_.is_mmap(); }

  /// OK iff the index was compiled from a run of the plan with this
  /// fingerprint; FailedPrecondition("stale index: ...") otherwise.
  Status VerifyPlanFingerprint(uint64_t plan_fingerprint) const;

  /// OK iff the index was compiled from a report with this content
  /// digest (DetectionResult::ContentDigest of a fresh run);
  /// FailedPrecondition("stale index: ...") otherwise.
  Status VerifySourceDigest(uint64_t source_digest) const;

 private:
  Status Attach(const OpenOptions& options);

  /// Base of the open image. Derived per access (not cached as a
  /// member) so moving the object — which may relocate the in-memory
  /// image's buffer — can never leave a dangling pointer behind.
  const unsigned char* base() const {
    return file_.mapped()
               ? file_.data()
               : reinterpret_cast<const unsigned char*>(image_.data());
  }

  /// Typed pointer to a payload section start.
  template <typename T>
  const T* Section(IndexSection section) const {
    return reinterpret_cast<const T*>(base() + kIndexHeaderBytes +
                                      header_.section_offsets[section]);
  }

  /// Global edge index -> packed payload.
  IndexedDecision EdgeAt(uint64_t e) const;

  MappedFile file_;
  /// Backing storage of FromImage.
  std::string image_;
  size_t size_ = 0;
  IndexHeader header_;
};

}  // namespace pdd

#endif  // PDD_INDEX_DECISION_INDEX_H_
