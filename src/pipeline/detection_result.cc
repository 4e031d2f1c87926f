#include "pipeline/detection_result.h"

#include <cstring>

#include "util/fnv.h"

namespace pdd {

namespace {

// FNV-1a 64 (util/fnv.h), with length prefixes between strings so
// adjacent fields cannot alias and doubles hashed by bit pattern
// (bit-identical round trips); each record takes the word step.
void HashU64(uint64_t* hash, uint64_t value) {
  *hash = FnvBytes(*hash, &value, sizeof(value));
}

void HashString(uint64_t* hash, const std::string& s) {
  HashU64(hash, s.size());
  *hash = FnvBytes(*hash, s.data(), s.size());
}

// The one shared filtering walk.
template <typename Emit>
void ForEachOfClass(const std::vector<PairDecisionRecord>& decisions,
                    MatchClass match_class, Emit emit) {
  for (const PairDecisionRecord& rec : decisions) {
    if (rec.match_class == match_class) emit(rec);
  }
}

size_t CountOfClass(const std::vector<PairDecisionRecord>& decisions,
                    MatchClass match_class) {
  size_t count = 0;
  ForEachOfClass(decisions, match_class,
                 [&](const PairDecisionRecord&) { ++count; });
  return count;
}

}  // namespace

uint64_t DetectionResult::ContentDigest() const {
  uint64_t hash = kFnvOffset;
  HashU64(&hash, plan_fingerprint);
  HashU64(&hash, candidate_count);
  HashU64(&hash, total_pairs);
  const size_t id_count = ids != nullptr ? ids->size() : 0;
  HashU64(&hash, id_count);
  for (size_t i = 0; i < id_count; ++i) HashString(&hash, (*ids)[i]);
  HashU64(&hash, decisions.size());
  static_assert(sizeof(uint64_t) == sizeof(double),
                "similarity must be a 64-bit double");
  for (const PairDecisionRecord& rec : decisions) {
    uint64_t sim_bits = 0;
    std::memcpy(&sim_bits, &rec.similarity, sizeof(sim_bits));
    hash = FnvWord(hash, uint64_t{rec.index1} | uint64_t{rec.index2} << 32);
    hash = FnvWord(hash, sim_bits);
    hash = FnvWord(hash, static_cast<uint64_t>(rec.match_class));
  }
  return hash;
}

std::vector<const PairDecisionRecord*> DetectionResult::RecordsOfClass(
    MatchClass match_class) const {
  std::vector<const PairDecisionRecord*> out;
  out.reserve(CountOfClass(decisions, match_class));
  ForEachOfClass(decisions, match_class,
                 [&](const PairDecisionRecord& rec) { out.push_back(&rec); });
  return out;
}

std::vector<IdPair> DetectionResult::IdPairsOfClass(
    MatchClass match_class) const {
  std::vector<IdPair> out;
  out.reserve(CountOfClass(decisions, match_class));
  ForEachOfClass(decisions, match_class, [&](const PairDecisionRecord& rec) {
    out.push_back(MakeIdPair(id(rec.index1), id(rec.index2)));
  });
  return out;
}

std::vector<IdPair> DetectionResult::Matches() const {
  return IdPairsOfClass(MatchClass::kMatch);
}

std::vector<IdPair> DetectionResult::PossibleMatches() const {
  return IdPairsOfClass(MatchClass::kPossible);
}

std::vector<IdPair> DetectionResult::Unmatches() const {
  return IdPairsOfClass(MatchClass::kUnmatch);
}

}  // namespace pdd
