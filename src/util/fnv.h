// FNV-1a 64-bit, the one hash behind the engine's digests: plan
// fingerprints, tuple and pair content digests, result and index
// digests, the arena's value interner and the kernels' q-gram
// signatures. Header-inline so each digest loop compiles to the bare
// xor-multiply. Seed a new digest with kFnvOffset.

#ifndef PDD_UTIL_FNV_H_
#define PDD_UTIL_FNV_H_

#include <cstddef>
#include <cstdint>

namespace pdd {

inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/// One FNV-1a round: the byte step.
inline uint64_t FnvByte(uint64_t hash, unsigned char byte) {
  return (hash ^ byte) * kFnvPrime;
}

/// FNV-1a over a byte range, continuing from `hash`.
inline uint64_t FnvBytes(uint64_t hash, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) hash = FnvByte(hash, bytes[i]);
  return hash;
}

/// One FNV-1a round per 64-bit word instead of per byte. The multiply
/// carries a difference only toward higher bits, so the high half is
/// folded back down after it; otherwise flips of the same high bit in
/// two words would cancel.
inline uint64_t FnvWord(uint64_t hash, uint64_t word) {
  hash = (hash ^ word) * kFnvPrime;
  return hash ^ (hash >> 32);
}

}  // namespace pdd

#endif  // PDD_UTIL_FNV_H_
