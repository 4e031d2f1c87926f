#include "columnar/relation_arena.h"

#include <algorithm>
#include <limits>

#include "cache/pair_digest.h"
#include "sim/columnar_kernels.h"

namespace pdd {

namespace {

// FNV-1a 64-bit, the repo-wide digest idiom (cache/pair_digest.cc,
// PlanSpec::Fingerprint).
constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvText(std::string_view s) {
  uint64_t h = kFnvOffset;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
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
  f(&RelationArena::alt_digest_, add.alternatives);
  f(&RelationArena::value_alt_begin_, values);
  f(&RelationArena::value_alt_end_, values);
  f(&RelationArena::value_null_prob_, values);
  f(&RelationArena::row_cond_prob_, add.rows);
  f(&RelationArena::tuple_row_begin_, size_t{1});
  f(&RelationArena::tuple_row_end_, size_t{1});
  f(&RelationArena::tuple_digest_, size_t{1});
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
      for (const Alternative& da : value.alternatives()) {
        alt_offset_.push_back(static_cast<uint32_t>(bytes_.size()));
        alt_length_.push_back(static_cast<uint32_t>(da.text.size()));
        bytes_.append(da.text);
        alt_prob_.push_back(da.prob);
        alt_sig_.push_back(QGram2Signature(da.text));
        alt_digest_.push_back(FnvText(da.text));
      }
      value_alt_end_.push_back(static_cast<uint32_t>(alt_offset_.size()));
      value_null_prob_.push_back(value.null_probability());
    }
  }
  tuple_row_end_.push_back(static_cast<uint32_t>(row_cond_prob_.size()));
}

std::shared_ptr<RelationArena> RelationArena::Build(const XRelation& rel) {
  std::shared_ptr<RelationArena> arena(new RelationArena());
  arena->arity_ = rel.schema().arity();
  for (const XTuple& tuple : rel.xtuples()) {
    arena = Append(std::move(arena), tuple, rel.schema());
    if (arena == nullptr) return nullptr;
  }
  return arena;
}

std::shared_ptr<RelationArena> RelationArena::Append(
    std::shared_ptr<RelationArena> arena, const XTuple& tuple,
    const Schema& schema) {
  // The tuple's column demand, with patterns expanded as AppendTuple
  // will store them.
  Shape add;
  add.rows = tuple.size();
  Value expanded;
  for (size_t i = 0; i < tuple.size(); ++i) {
    for (size_t attr = 0; attr < arena->arity_; ++attr) {
      const Value& value = Flattened(tuple.alternative(i).values[attr],
                                     schema, attr, &expanded);
      add.alternatives += value.alternatives().size();
      for (const Alternative& da : value.alternatives()) {
        add.bytes += da.text.size();
      }
    }
  }
  constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
  if (add.bytes > kMax - arena->bytes_.size() ||
      add.alternatives > kMax - arena->alt_offset_.size() ||
      add.rows > kMax - arena->row_cond_prob_.size()) {
    return nullptr;
  }
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
    arena = std::move(next);
  }
  arena->AppendTuple(tuple, schema);
  return arena;
}

}  // namespace pdd
