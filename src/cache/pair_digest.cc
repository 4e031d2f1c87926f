#include "cache/pair_digest.h"

#include <cstring>

#include "util/fnv.h"

namespace pdd {

namespace {

inline void HashU64(uint64_t* hash, uint64_t v) {
  *hash = FnvBytes(*hash, &v, 8);
}

inline void HashDouble(uint64_t* hash, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  HashU64(hash, bits);
}

/// Length-prefixed so field boundaries can't alias across strings.
inline void HashString(uint64_t* hash, const std::string& s) {
  HashU64(hash, s.size());
  *hash = FnvBytes(*hash, s.data(), s.size());
}

}  // namespace

uint64_t TupleContentDigest(const XTuple& tuple) {
  uint64_t hash = kFnvOffset;
  HashU64(&hash, tuple.alternatives().size());
  for (const AltTuple& alt : tuple.alternatives()) {
    HashDouble(&hash, alt.prob);
    HashU64(&hash, alt.values.size());
    for (const Value& value : alt.values) {
      HashU64(&hash, value.alternatives().size());
      for (const Alternative& va : value.alternatives()) {
        HashString(&hash, va.text);
        HashDouble(&hash, va.prob);
        hash = FnvByte(hash, va.is_pattern ? 1 : 0);
      }
    }
  }
  return hash;
}

uint64_t CombineTupleDigests(uint64_t d1, uint64_t d2) {
  // Unordered: feed (min, max) so both orientations collapse to one
  // key. Re-hashing (rather than xor) keeps distinct unordered pairs
  // from cancelling ({a,a} vs {b,b} under xor would both give 0).
  uint64_t lo = d1 < d2 ? d1 : d2;
  uint64_t hi = d1 < d2 ? d2 : d1;
  uint64_t hash = kFnvOffset;
  HashU64(&hash, lo);
  HashU64(&hash, hi);
  return hash;
}

uint64_t PairContentDigest(const XTuple& t1, const XTuple& t2) {
  return CombineTupleDigests(TupleContentDigest(t1), TupleContentDigest(t2));
}

}  // namespace pdd
