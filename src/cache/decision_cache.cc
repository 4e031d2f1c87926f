#include "cache/decision_cache.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/file_util.h"
#include "util/string_util.h"

namespace pdd {

namespace {

/// Snapshot header; bump the version when the line format changes so a
/// stale file fails loudly instead of silently loading garbage.
constexpr char kSnapshotHeader[] = "# pddcache v1";
/// A written entry line: fingerprint, digest and similarity bits as 16
/// hex digits and the match class code, each followed by ' ' or '\n'.
constexpr size_t kLineBytes = 3 * 17 + 2;

/// Slot position of an empty index slot. Entry positions stay below it
/// because a stripe holds at most kMaxShardCapacity entries.
constexpr uint32_t kEmptySlot = std::numeric_limits<uint32_t>::max();
/// Find's "not resident".
constexpr size_t kNoSlot = std::numeric_limits<size_t>::max();
/// First index size (one entry at half load) and first entry-array
/// reservation of a stripe.
constexpr size_t kMinSlots = 2;
constexpr size_t kMinEntries = 8;

/// splitmix64 finalizer: FNV output is well distributed in the low
/// bits, but stripe selection and index probing both mask, so run the
/// key through an avalanche mix before use.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t KeyMix(const PairDecisionKey& key) {
  return Mix(key.plan_fingerprint ^ Mix(key.pair_digest));
}

/// The index fragment: the mix's low bits. The high bits pick the
/// stripe, and a slot's home is the fragment masked to the index size.
uint32_t Fragment(uint64_t mix) { return static_cast<uint32_t>(mix); }

bool ParseHex64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t v = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

size_t RoundUpPowerOfTwo(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Reads `in` through the header, counting lines in `*line_number`:
/// false unless the first non-blank line is the header, an unterminated
/// piece of it (its size goes to `*torn_bytes`) or absent.
bool ReadHeader(std::istream& in, size_t* line_number, size_t* torn_bytes) {
  std::string line;
  while (std::getline(in, line)) {
    ++*line_number;
    if (in.eof()) {
      if (!StartsWith(kSnapshotHeader, line)) return false;
      if (torn_bytes != nullptr) *torn_bytes = line.size();
      return true;
    }
    const std::string_view trimmed = Trim(line);
    if (!trimmed.empty()) return trimmed == kSnapshotHeader;
  }
  return true;
}

/// Opens `path` into `*in` when a regular file is there (a device such
/// as /dev/zero would never end); one that cannot be read is refused,
/// not taken for absent.
Status OpenSnapshot(const std::string& path, std::ifstream* in) {
  PDD_ASSIGN_OR_RETURN(const std::string target, ResolveRegularFile(path));
  in->open(target);
  std::error_code absent;  // an unreadable directory: the write says so
  if (*in || !std::filesystem::exists(target, absent)) return Status::OK();
  return Status::InvalidArgument("cannot read cache file '" + path + "'");
}

}  // namespace

std::string DecisionCacheStats::ToString() const {
  std::ostringstream out;
  out << hits << " hits / " << (hits + misses) << " lookups ("
      << FormatDouble(HitRate() * 100.0, 1) << "% hit rate), " << inserts
      << " inserts, " << evictions << " evictions, " << size
      << " resident";
  return out.str();
}

ShardedDecisionCache::ShardedDecisionCache(
    ShardedDecisionCacheOptions options)
    : options_(options) {
  size_t shard_count = RoundUpPowerOfTwo(options_.shards == 0
                                             ? 1
                                             : options_.shards);
  if (options_.capacity == 0) options_.capacity = 1;
  // No more shards than capacity: every shard must hold >= 1 entry for
  // the total bound to stay meaningful.
  while (shard_count > 1 && shard_count > options_.capacity) {
    shard_count >>= 1;
  }
  // Positions are 32-bit: clamp the total so no stripe's bound, the
  // rounded-up share, passes the cap. The division form cannot
  // overflow, and then shard_count * kMaxShardCapacity < capacity.
  if ((options_.capacity - 1) / shard_count >= kMaxShardCapacity) {
    options_.capacity = shard_count * kMaxShardCapacity;
  }
  shard_mask_ = shard_count - 1;
  // Exact division: base entries everywhere, the remainder spread one
  // entry each over the first shards. Per-shard bounds sum to the
  // configured capacity exactly — rounding every shard up "to at least
  // 1" would silently inflate the total (capacity 8 over 16 stripes
  // used to admit 16 resident entries).
  const size_t base = options_.capacity / shard_count;
  const size_t remainder = options_.capacity % shard_count;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = base + (i < remainder ? 1 : 0);
  }
}

size_t ShardedDecisionCache::Shard::Find(const PairDecisionKey& key,
                                         uint32_t fragment) const {
  if (slots.empty()) return kNoSlot;
  const size_t mask = slots.size() - 1;
  // At most half the slots are used, so the probe meets an empty one.
  for (size_t i = fragment & mask;; i = (i + 1) & mask) {
    const Slot slot = slots[i];
    if (slot.position == kEmptySlot) return kNoSlot;
    if (slot.fragment == fragment && entries[slot.position].key == key) {
      return i;
    }
  }
}

void ShardedDecisionCache::Shard::Place(size_t position, uint32_t fragment) {
  const size_t mask = slots.size() - 1;
  size_t i = fragment & mask;
  while (slots[i].position != kEmptySlot) i = (i + 1) & mask;
  slots[i] = Slot{static_cast<uint32_t>(position), fragment};
}

void ShardedDecisionCache::Shard::Erase(size_t hole) {
  // Backward shift: walk the probe run after the hole and pull back
  // every slot whose home does not lie in (hole, j], so each remaining
  // key stays reachable from its home without tombstones.
  const size_t mask = slots.size() - 1;
  for (size_t j = (hole + 1) & mask; slots[j].position != kEmptySlot;
       j = (j + 1) & mask) {
    const size_t home = slots[j].fragment & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots[hole] = slots[j];
      hole = j;
    }
  }
  slots[hole].position = kEmptySlot;
}

void ShardedDecisionCache::Shard::Rehash(size_t slot_count) {
  slots.assign(slot_count, Slot{kEmptySlot, 0});
  for (size_t i = 0; i < entries.size(); ++i) {
    Place(i, Fragment(KeyMix(entries[i].key)));
  }
}

ShardedDecisionCache::Shard& ShardedDecisionCache::ShardFor(uint64_t mix) {
  // High bits pick the shard; the index probes from the low bits.
  return *shards_[(mix >> 32) & shard_mask_];
}

std::optional<CachedPairDecision> ShardedDecisionCache::Lookup(
    const PairDecisionKey& key) {
  const uint64_t mix = KeyMix(key);
  Shard& shard = ShardFor(mix);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const size_t slot = shard.Find(key, Fragment(mix));
  if (slot == kNoSlot) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  Entry& entry = shard.entries[shard.slots[slot].position];
  entry.referenced = true;
  return CachedPairDecision{entry.similarity, entry.match_class};
}

void ShardedDecisionCache::InsertInShard(Shard& shard, uint64_t mix,
                                         const PairDecisionKey& key,
                                         const CachedPairDecision& decision) {
  const uint32_t fragment = Fragment(mix);
  const size_t slot = shard.Find(key, fragment);
  if (slot != kNoSlot) {
    Entry& entry = shard.entries[shard.slots[slot].position];
    entry.similarity = decision.similarity;
    entry.match_class = decision.match_class;
    entry.referenced = true;
    return;
  }
  ++shard.inserts;
  const Entry fresh{key, decision.similarity, decision.match_class,
                    /*referenced=*/false};
  std::vector<Entry>& entries = shard.entries;
  if (entries.size() < shard.capacity) {
    if (entries.size() == entries.capacity()) {
      entries.reserve(std::min(shard.capacity,
                               std::max(kMinEntries, 2 * entries.size())));
    }
    entries.push_back(fresh);
    if (2 * entries.size() > shard.slots.size()) {
      shard.Rehash(std::max(kMinSlots, 2 * shard.slots.size()));
    } else {
      shard.Place(entries.size() - 1, fragment);
    }
    return;
  }
  // At the bound: the hand gives every referenced entry a second
  // chance and evicts the first unreferenced one.
  size_t hand = shard.hand;
  while (entries[hand].referenced) {
    entries[hand].referenced = false;
    hand = hand + 1 == entries.size() ? 0 : hand + 1;
  }
  const PairDecisionKey& victim = entries[hand].key;
  shard.Erase(shard.Find(victim, Fragment(KeyMix(victim))));
  ++shard.evictions;
  entries[hand] = fresh;
  shard.Place(hand, fragment);
  shard.hand = hand + 1 == entries.size() ? 0 : hand + 1;
}

void ShardedDecisionCache::Insert(const PairDecisionKey& key,
                                  const CachedPairDecision& decision) {
  const uint64_t mix = KeyMix(key);
  Shard& shard = ShardFor(mix);
  std::lock_guard<std::mutex> lock(shard.mutex);
  InsertInShard(shard, mix, key, decision);
}

DecisionCacheStats ShardedDecisionCache::Stats() const {
  DecisionCacheStats stats;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.inserts += shard->inserts;
    stats.evictions += shard->evictions;
    stats.size += shard->entries.size();
  }
  return stats;
}

size_t ShardedDecisionCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

size_t ShardedDecisionCache::TotalCapacity() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->capacity;
  }
  return total;
}

Status ShardedDecisionCache::SaveSnapshot(const std::string& path) {
  {
    std::ifstream existing;
    PDD_RETURN_IF_ERROR(OpenSnapshot(path, &existing));
    size_t line_number = 0;
    if (!ReadHeader(existing, &line_number, nullptr)) {
      return Status::InvalidArgument("cache file '" + path +
                                     "' is not a pddcache v1 file");
    }
  }
  // One piece per stripe, so a save holds one stripe's entries and
  // text, not the whole file. Both buffers are sized once to the
  // largest stripe and reused.
  size_t largest = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    largest = std::max(largest, shard->entries.size());
  }
  std::string text = std::string(kSnapshotHeader) + "\n";
  text.reserve(text.size() + kLineBytes * largest);
  std::vector<Entry> oldest_first;
  oldest_first.reserve(largest);
  size_t next = 0;
  return WriteFileAtomically(path, [&](std::string_view* piece) {
    if (next == shards_.size()) return false;
    Shard& shard = *shards_[next];
    {
      // Copy under the lock and format outside it, so workers sharing
      // the cache wait for a memcpy, not for the text.
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto hand =
          shard.entries.begin() + static_cast<std::ptrdiff_t>(shard.hand);
      oldest_first.assign(hand, shard.entries.end());
      oldest_first.insert(oldest_first.end(), shard.entries.begin(), hand);
    }
    // The first piece leads with the header.
    const size_t at = next++ == 0 ? text.size() : 0;
    text.resize(at + kLineBytes * oldest_first.size());
    char* out = &text[at];
    for (const Entry& entry : oldest_first) {
      uint64_t sim_bits = 0;
      std::memcpy(&sim_bits, &entry.similarity, sizeof(sim_bits));
      for (uint64_t field : {entry.key.plan_fingerprint,
                             entry.key.pair_digest, sim_bits}) {
        out = WriteHexU64(field, out);
        *out++ = ' ';
      }
      *out++ = MatchClassCode(entry.match_class);
      *out++ = '\n';
    }
    *piece = text;
    return true;
  });
}

Status ShardedDecisionCache::LoadSnapshot(const std::string& path,
                                          size_t* torn_bytes) {
  if (torn_bytes != nullptr) *torn_bytes = 0;
  std::ifstream in;
  PDD_RETURN_IF_ERROR(OpenSnapshot(path, &in));
  if (!in) {
    return Status::NotFound("cache file '" + path + "' not found");
  }
  size_t line_number = 0;
  if (!ReadHeader(in, &line_number, torn_bytes)) {
    return Status::ParseError("'" + path + "' is not a pddcache v1 file");
  }
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    if (in.eof()) {
      // No '\n' ended the file: an older build's append stopped
      // mid-line, or the file was cut. Drop the partial line.
      if (torn_bytes != nullptr) *torn_bytes = line.size();
      break;
    }
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    // Whitespace-separated fields, as views into the line.
    std::string_view fields[4];
    std::string_view rest = trimmed;
    for (std::string_view& field : fields) {
      const auto end = std::find_if(rest.begin(), rest.end(), [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;  // as Trim
      });
      field = rest.substr(0, static_cast<size_t>(end - rest.begin()));
      rest = Trim(rest.substr(field.size()));
    }
    PairDecisionKey key;
    uint64_t sim_bits = 0;
    if (!rest.empty() ||
        !ParseHex64(fields[0], &key.plan_fingerprint) ||
        !ParseHex64(fields[1], &key.pair_digest) ||
        !ParseHex64(fields[2], &sim_bits) || fields[3].size() != 1) {
      return Status::ParseError("'" + path + "' line " +
                                std::to_string(line_number) +
                                ": malformed cache entry");
    }
    CachedPairDecision decision;
    std::memcpy(&decision.similarity, &sim_bits,
                sizeof(decision.similarity));
    switch (fields[3][0]) {
      case 'm':
        decision.match_class = MatchClass::kMatch;
        break;
      case 'p':
        decision.match_class = MatchClass::kPossible;
        break;
      case 'u':
        decision.match_class = MatchClass::kUnmatch;
        break;
      default:
        return Status::ParseError("'" + path + "' line " +
                                  std::to_string(line_number) +
                                  ": unknown match class '" +
                                  std::string(fields[3]) + "'");
    }
    const uint64_t mix = KeyMix(key);
    Shard& shard = ShardFor(mix);
    std::lock_guard<std::mutex> lock(shard.mutex);
    InsertInShard(shard, mix, key, decision);
  }
  return Status::OK();
}

}  // namespace pdd
