// RelationArena: a prepared x-relation flattened into contiguous
// structure-of-arrays columns, built once per candidate stream and
// shared read-only by every executor worker, and by the decision
// cache's digest path. Every pair decides over it: it is the
// data layout ColumnarMatcher and the columnar match kernels
// (sim/columnar_kernels.h) batch over — no per-pair allocation, no
// pointer chasing through XTuple/Value object graphs in the hot loop.
//
// Layout (all indices are dense, uint32):
//
//   bytes            ┌──────────────────────────────────────────────┐
//   (one string      │ "Tim" "John" "Johan" "mueller" "miller" ...  │
//    arena)          └──────────────────────────────────────────────┘
//                       ▲ per value-alternative k:
//   alt columns         offset(k), length(k)  — span into `bytes`
//                       prob(k)               — alternative probability
//                       sig(k)                — QGram2Signature(text)
//
//   value columns      per value v = row · arity + attr:
//                       alt_begin(v), alt_end(v) — range of alt columns
//                       null_prob(v)             — ⊥ mass of the value
//                       class(v)                 — value class id
//
//   row columns        per alternative tuple r (rows flattened across
//                       x-tuples): cond_prob(r) = p(t_i)/p(t)
//
//   tuple columns      per x-tuple t:
//                       row_begin(t), row_end(t) — range of row columns
//                       digest(t) — TupleContentDigest of the original
//                                   (unexpanded) x-tuple, i.e. exactly
//                                   the cache/pair_digest.h value
//
// Pattern values ('mu*') are expanded against the attribute vocabulary
// at build time — the same expansion TupleMatcher::MatchAttribute does
// per pair — so the matcher only ever sees literal alternatives and the
// per-pair expansion cost disappears from the hot path.
//
// Value classes: every value is interned by exact content as it is
// appended. Two values share a class iff they belong to the same
// attribute and have bit-equal ⊥ masses and the same alternatives in
// the same order (bit-equal probabilities, byte-equal texts); a hash
// only finds the candidate class, the content comparison decides. So
// a value's expected similarity to another (Eq. 5) is a function of
// the two classes, which is what ColumnarMatcher memoizes. Ids are
// dense in first-appearance order and never change once issued, so
// Build and an Append sequence over the same tuples issue the same
// ids, and every generation keeps its predecessors' ids.
//
// Build() returns nullptr when any column index would overflow uint32
// (relations beyond ~4G alternative bytes or values); the executor
// refuses such a run with OutOfRange, like the 32-bit record-index
// check.
//
// Growth: a standing stream appends arrivals through Append(), which
// writes in place while every column has room and otherwise returns a
// new generation (a copy with doubled capacity). Storage a generation
// has published therefore never moves, and a reader holding an older
// generation keeps reading the tuples it already held.

#ifndef PDD_COLUMNAR_RELATION_ARENA_H_
#define PDD_COLUMNAR_RELATION_ARENA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pdb/xrelation.h"

namespace pdd {

class RelationArena {
 public:
  /// Flattens `rel` (schema taken from the relation) into columns sized
  /// once, appending tuple by tuple as Append does. Returns nullptr on
  /// uint32 column overflow — never fails otherwise.
  static std::shared_ptr<RelationArena> Build(const XRelation& rel);

  /// Appends `tuple` (its patterns expanded against `schema`) as the
  /// next x-tuple and returns the generation to publish: `arena` itself
  /// when every column has room, else a new generation — a copy of
  /// `arena` with doubled capacity that holds the tuple. Returns
  /// nullptr, leaving `arena` untouched, when the tuple would overflow a
  /// uint32 column. The caller serializes appends; readers may decide
  /// over already-appended tuples of any generation meanwhile.
  static std::shared_ptr<RelationArena> Append(
      std::shared_ptr<RelationArena> arena, const XTuple& tuple,
      const Schema& schema);

  // --- shape --------------------------------------------------------
  size_t tuple_count() const { return tuple_row_begin_.size(); }
  size_t arity() const { return arity_; }
  size_t row_count() const { return row_cond_prob_.size(); }
  size_t alternative_count() const { return alt_offset_.size(); }
  size_t byte_count() const { return bytes_.size(); }

  // --- per x-tuple t ------------------------------------------------
  uint32_t tuple_row_begin(size_t t) const { return tuple_row_begin_[t]; }
  uint32_t tuple_row_end(size_t t) const { return tuple_row_end_[t]; }
  /// TupleContentDigest of the original x-tuple — the executor's cache
  /// key half, precomputed here instead of lazily memoized per run.
  uint64_t tuple_digest(size_t t) const { return tuple_digest_[t]; }

  // --- per row (alternative tuple) r --------------------------------
  /// Conditioned probability p(t_i)/p(t) of the row's alternative.
  double row_cond_prob(size_t r) const { return row_cond_prob_[r]; }
  const double* row_cond_prob_data() const { return row_cond_prob_.data(); }

  // --- per value v = r * arity + attr -------------------------------
  size_t value_index(size_t r, size_t attr) const {
    return r * arity_ + attr;
  }
  uint32_t value_alt_begin(size_t v) const { return value_alt_begin_[v]; }
  uint32_t value_alt_end(size_t v) const { return value_alt_end_[v]; }
  double value_null_prob(size_t v) const { return value_null_prob_[v]; }
  /// The value's class: equal iff the contents are equal (see above).
  /// Always below UINT32_MAX.
  uint32_t value_class(size_t v) const { return value_class_[v]; }

  // --- per value-alternative k --------------------------------------
  std::string_view alt_text(size_t k) const {
    return std::string_view(bytes_.data() + alt_offset_[k], alt_length_[k]);
  }
  double alt_prob(size_t k) const { return alt_prob_[k]; }
  /// Padded-2-gram bitset signature of the alternative text (zero AND
  /// proves empty gram intersection — see sim/columnar_kernels.h).
  uint64_t alt_sig(size_t k) const { return alt_sig_[k]; }

 private:
  /// Column demand of x-tuples.
  struct Shape {
    size_t tuples = 0;
    size_t rows = 0;
    size_t alternatives = 0;
    size_t bytes = 0;
  };

  RelationArena() = default;

  /// Calls f(&RelationArena::column, n) for every column, where `n` is
  /// the number of entries tuples of shape `add` put into it.
  template <typename F>
  static void ForEachColumn(size_t arity, const Shape& add, F&& f);
  /// The demand of `tuple`, its patterns expanded as AppendTuple will
  /// store them.
  Shape ShapeOf(const XTuple& tuple, const Schema& schema) const;
  /// Whether `add` more keeps every column index within uint32.
  bool Fits(const Shape& add) const;
  /// Appends one tuple; Append checked the uint32 limits and the room.
  void AppendTuple(const XTuple& tuple, const Schema& schema);
  /// The class of the just-appended value `v`, whose content hashes to
  /// `hash`: an existing class with equal content, else a new one.
  uint32_t Intern(size_t v, uint64_t hash);
  /// Whether values `u` and `v` have equal content (the class rule).
  bool SameContent(size_t u, size_t v) const;

  size_t arity_ = 0;
  std::string bytes_;
  std::vector<uint32_t> alt_offset_;
  std::vector<uint32_t> alt_length_;
  std::vector<double> alt_prob_;
  std::vector<uint64_t> alt_sig_;
  std::vector<uint32_t> value_alt_begin_;
  std::vector<uint32_t> value_alt_end_;
  std::vector<double> value_null_prob_;
  std::vector<uint32_t> value_class_;
  // The interner, read by appends only: per class its first value and
  // content hash, and an open-addressing table of class ids (at most
  // half full, UINT32_MAX marks a free slot).
  std::vector<uint32_t> class_value_;
  std::vector<uint64_t> class_hash_;
  std::vector<uint32_t> class_slots_;
  std::vector<double> row_cond_prob_;
  std::vector<uint32_t> tuple_row_begin_;
  std::vector<uint32_t> tuple_row_end_;
  std::vector<uint64_t> tuple_digest_;
};

}  // namespace pdd

#endif  // PDD_COLUMNAR_RELATION_ARENA_H_
