#include "columnar/relation_arena.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "cache/pair_digest.h"
#include "sim/columnar_kernels.h"
#include "util/fnv.h"

namespace pdd {

namespace {

constexpr uint32_t kFreeSlot = std::numeric_limits<uint32_t>::max();

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Spreads FNV's weak low bits over the whole word (murmur3's fmix64),
/// so the interner can index its table by the low bits.
uint64_t Finalize(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

/// The alternatives `raw` contributes to the arena: the value itself, or
/// its expansion when it carries a pattern (written to `*expanded`).
const Value& Flattened(const Value& raw, const Schema& schema, size_t attr,
                       Value* expanded) {
  if (!raw.has_pattern()) return raw;
  // Same expansion TupleMatcher::MatchAttribute performs per pair,
  // hoisted to build time: alternative order, merged masses and ⊥ mass
  // are identical.
  *expanded = raw.Expanded(schema.attribute(attr).vocabulary);
  return *expanded;
}

}  // namespace

template <typename F>
void RelationArena::ForEachColumn(size_t arity, const Shape& add, F&& f) {
  const size_t values = add.rows * arity;
  f(&RelationArena::bytes_, add.bytes);
  f(&RelationArena::alt_offset_, add.alternatives);
  f(&RelationArena::alt_length_, add.alternatives);
  f(&RelationArena::alt_prob_, add.alternatives);
  f(&RelationArena::alt_sig_, add.alternatives);
  f(&RelationArena::value_alt_begin_, values);
  f(&RelationArena::value_alt_end_, values);
  f(&RelationArena::value_null_prob_, values);
  f(&RelationArena::value_class_, values);
  // Every value of the tuple may open a new class.
  f(&RelationArena::class_value_, values);
  f(&RelationArena::class_hash_, values);
  f(&RelationArena::row_cond_prob_, add.rows);
  f(&RelationArena::tuple_row_begin_, add.tuples);
  f(&RelationArena::tuple_row_end_, add.tuples);
  f(&RelationArena::tuple_digest_, add.tuples);
}

bool RelationArena::SameContent(size_t u, size_t v) const {
  if (u % arity_ != v % arity_ ||
      Bits(value_null_prob_[u]) != Bits(value_null_prob_[v])) {
    return false;
  }
  const uint32_t u_begin = value_alt_begin_[u];
  const uint32_t v_begin = value_alt_begin_[v];
  const uint32_t n = value_alt_end_[u] - u_begin;
  if (value_alt_end_[v] - v_begin != n) return false;
  for (uint32_t i = 0; i < n; ++i) {
    if (Bits(alt_prob_[u_begin + i]) != Bits(alt_prob_[v_begin + i]) ||
        alt_text(u_begin + i) != alt_text(v_begin + i)) {
      return false;
    }
  }
  return true;
}

uint32_t RelationArena::Intern(size_t v, uint64_t hash) {
  if (2 * (class_value_.size() + 1) > class_slots_.size()) {
    // Double the table and re-seat every class by its stored hash.
    class_slots_.assign(std::max<size_t>(16, 2 * class_slots_.size()),
                        kFreeSlot);
    const size_t mask = class_slots_.size() - 1;
    for (size_t c = 0; c < class_hash_.size(); ++c) {
      size_t slot = class_hash_[c] & mask;
      while (class_slots_[slot] != kFreeSlot) slot = (slot + 1) & mask;
      class_slots_[slot] = static_cast<uint32_t>(c);
    }
  }
  const size_t mask = class_slots_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint32_t c = class_slots_[slot];
    if (c == kFreeSlot) {
      class_slots_[slot] = static_cast<uint32_t>(class_value_.size());
      class_value_.push_back(static_cast<uint32_t>(v));
      class_hash_.push_back(hash);
      return class_slots_[slot];
    }
    if (class_hash_[c] == hash && SameContent(class_value_[c], v)) return c;
  }
}

void RelationArena::AppendTuple(const XTuple& tuple, const Schema& schema) {
  tuple_row_begin_.push_back(static_cast<uint32_t>(row_cond_prob_.size()));
  // The cache key hashes the ORIGINAL (prepared but unexpanded)
  // content, exactly what cache/pair_digest.h defines.
  tuple_digest_.push_back(TupleContentDigest(tuple));
  const std::vector<double> cond = tuple.ConditionedProbabilities();
  Value expanded;  // reused across values to avoid reallocation churn
  for (size_t i = 0; i < tuple.size(); ++i) {
    row_cond_prob_.push_back(cond[i]);
    const AltTuple& alt_tuple = tuple.alternative(i);
    for (size_t attr = 0; attr < arity_; ++attr) {
      const Value& value =
          Flattened(alt_tuple.values[attr], schema, attr, &expanded);
      value_alt_begin_.push_back(static_cast<uint32_t>(alt_offset_.size()));
      // FNV-1a (util/fnv.h) over the value's content for the interner.
      uint64_t hash = FnvWord(FnvWord(kFnvOffset, attr),
                              Bits(value.null_probability()));
      for (const Alternative& da : value.alternatives()) {
        alt_offset_.push_back(static_cast<uint32_t>(bytes_.size()));
        alt_length_.push_back(static_cast<uint32_t>(da.text.size()));
        bytes_.append(da.text);
        alt_prob_.push_back(da.prob);
        alt_sig_.push_back(QGram2Signature(da.text));
        hash = FnvWord(FnvWord(hash, Bits(da.prob)), da.text.size());
        hash = FnvBytes(hash, da.text.data(), da.text.size());
      }
      value_alt_end_.push_back(static_cast<uint32_t>(alt_offset_.size()));
      value_null_prob_.push_back(value.null_probability());
      value_class_.push_back(
          Intern(value_alt_begin_.size() - 1, Finalize(hash)));
    }
  }
  tuple_row_end_.push_back(static_cast<uint32_t>(row_cond_prob_.size()));
}

RelationArena::Shape RelationArena::ShapeOf(const XTuple& tuple,
                                            const Schema& schema) const {
  Shape add;
  add.tuples = 1;
  add.rows = tuple.size();
  Value expanded;
  for (size_t i = 0; i < tuple.size(); ++i) {
    for (size_t attr = 0; attr < arity_; ++attr) {
      const Value& value = Flattened(tuple.alternative(i).values[attr],
                                     schema, attr, &expanded);
      add.alternatives += value.alternatives().size();
      for (const Alternative& da : value.alternatives()) {
        add.bytes += da.text.size();
      }
    }
  }
  return add;
}

bool RelationArena::Fits(const Shape& add) const {
  // Class ids stay below kMax, the interner's free-slot marker, while
  // the values fit it.
  constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
  return add.bytes <= kMax - bytes_.size() &&
         add.alternatives <= kMax - alt_offset_.size() &&
         add.rows <= kMax - row_cond_prob_.size() &&
         add.rows * arity_ <= kMax - value_class_.size();
}

std::shared_ptr<RelationArena> RelationArena::Build(const XRelation& rel) {
  std::shared_ptr<RelationArena> arena(new RelationArena());
  arena->arity_ = rel.schema().arity();
  // Every column is sized once for the whole relation, so the tuples
  // append without the generation copies of a growing standing arena.
  Shape total;
  for (const XTuple& tuple : rel.xtuples()) {
    const Shape add = arena->ShapeOf(tuple, rel.schema());
    total.tuples += add.tuples;
    total.rows += add.rows;
    total.alternatives += add.alternatives;
    total.bytes += add.bytes;
  }
  if (!arena->Fits(total)) return nullptr;
  ForEachColumn(arena->arity_, total, [&](auto column, size_t n) {
    ((*arena).*column).reserve(n);
  });
  for (const XTuple& tuple : rel.xtuples()) {
    arena->AppendTuple(tuple, rel.schema());
  }
  return arena;
}

std::shared_ptr<RelationArena> RelationArena::Append(
    std::shared_ptr<RelationArena> arena, const XTuple& tuple,
    const Schema& schema) {
  const Shape add = arena->ShapeOf(tuple, schema);
  if (!arena->Fits(add)) return nullptr;
  bool room = true;
  ForEachColumn(arena->arity_, add, [&](auto column, size_t n) {
    const auto& c = (*arena).*column;
    room = room && c.capacity() - c.size() >= n;
  });
  if (!room) {
    // A new generation: readers of `arena` keep its storage, which no
    // later append touches.
    std::shared_ptr<RelationArena> next(new RelationArena());
    next->arity_ = arena->arity_;
    ForEachColumn(arena->arity_, add, [&](auto column, size_t n) {
      const auto& from = (*arena).*column;
      auto& to = (*next).*column;
      to.reserve(std::max(2 * from.capacity(), from.size() + n));
      to.insert(to.end(), from.begin(), from.end());
    });
    next->class_slots_ = arena->class_slots_;
    arena = std::move(next);
  }
  arena->AppendTuple(tuple, schema);
  return arena;
}

}  // namespace pdd
