#include "cache/decision_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>

#include "util/string_util.h"

namespace pdd {

namespace {

/// Snapshot header; bump the version when the line format changes so a
/// stale file fails loudly instead of silently loading garbage.
constexpr char kSnapshotHeader[] = "# pddcache v1";

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

/// Snapshot field rendering: the shared 16-digit hex form.
std::string Hex16(uint64_t v) { return HexU64(v); }

bool ParseHex64(const std::string& text, uint64_t* out) {
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

/// Cuts `path`, which `in` reads, back to just after its last '\n' (to
/// empty when it has none) if it ends inside a line: a save that
/// stopped mid-append.
Status CutTornTail(std::ifstream& in, const std::string& path) {
  in.clear();
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  std::streamoff complete = 0;
  char buffer[512];
  for (std::streamoff pos = end; pos > 0 && complete == 0;) {
    const std::streamoff chunk = std::min<std::streamoff>(
        pos, static_cast<std::streamoff>(sizeof(buffer)));
    pos -= chunk;
    in.seekg(pos);
    if (!in.read(buffer, chunk)) {
      return Status::InvalidArgument("cannot read cache file '" + path + "'");
    }
    for (std::streamoff i = chunk; i-- > 0;) {
      if (buffer[i] == '\n') {
        complete = pos + i + 1;
        break;
      }
    }
  }
  if (complete == end) return Status::OK();
  std::error_code error;
  std::filesystem::resize_file(path, static_cast<uintmax_t>(complete), error);
  if (error) {
    return Status::InvalidArgument("cannot cut the torn tail of cache file '" +
                                   path + "': " + error.message());
  }
  return Status::OK();
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
                                         const CachedPairDecision& decision,
                                         bool persisted) {
  const uint32_t fragment = Fragment(mix);
  const size_t slot = shard.Find(key, fragment);
  if (slot != kNoSlot) {
    Entry& entry = shard.entries[shard.slots[slot].position];
    entry.similarity = decision.similarity;
    entry.match_class = decision.match_class;
    entry.referenced = true;
    entry.persisted = persisted;
    return;
  }
  ++shard.inserts;
  const Entry fresh{key, decision.similarity, decision.match_class,
                    /*referenced=*/false, persisted};
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
  InsertInShard(shard, mix, key, decision, /*persisted=*/false);
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

void ShardedDecisionCache::Clear() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    // Swap with empties: clear() would keep the arrays' memory.
    std::vector<Entry>().swap(shard->entries);
    std::vector<Slot>().swap(shard->slots);
    shard->hand = 0;
  }
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

Status ShardedDecisionCache::AppendSnapshot(const std::string& path) {
  // Header only for a fresh (or empty) file; appends afterwards never
  // touch earlier lines. A save that stopped mid-append left a final
  // line without its '\n': cut it off first, so this save starts a
  // line of its own and the next load stays clean.
  bool needs_header = true;
  {
    std::ifstream probe(path);
    std::string first;
    if (probe && std::getline(probe, first)) {
      // One unterminated line that is no piece of the header is not a
      // torn snapshot, so it is not ours to cut.
      if (probe.eof() && !StartsWith(kSnapshotHeader, first)) {
        return Status::InvalidArgument("cache file '" + path +
                                       "' is not a pddcache v1 file");
      }
      needs_header = probe.eof() || first.empty();
      PDD_RETURN_IF_ERROR(CutTornTail(probe, path));
    }
  }
  // Serialize first, write once, and only mark entries persisted after
  // the flush succeeded — a failed write (disk full) must leave them
  // eligible for the next save, not silently lost from every future
  // snapshot.
  std::string buffer;
  std::vector<PairDecisionKey> written;
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    // Oldest first, starting at the hand, so a replay into an empty
    // cache of the same capacity rebuilds this CLOCK order.
    const size_t count = shard->entries.size();
    for (size_t k = 0, i = shard->hand; k < count;
         ++k, i = i + 1 == count ? 0 : i + 1) {
      const Entry& entry = shard->entries[i];
      if (entry.persisted) continue;
      uint64_t sim_bits = 0;
      std::memcpy(&sim_bits, &entry.similarity, sizeof(sim_bits));
      buffer += Hex16(entry.key.plan_fingerprint);
      buffer += ' ';
      buffer += Hex16(entry.key.pair_digest);
      buffer += ' ';
      buffer += Hex16(sim_bits);
      buffer += ' ';
      buffer += MatchClassCode(entry.match_class);
      buffer += '\n';
      written.push_back(entry.key);
    }
  }
  std::ofstream out(path, std::ios::app);
  if (!out) {
    return Status::InvalidArgument("cannot open cache file '" + path +
                                   "' for append");
  }
  if (needs_header) out << kSnapshotHeader << "\n";
  out << buffer;
  out.flush();
  if (!out) {
    return Status::InvalidArgument("write to cache file '" + path +
                                   "' failed");
  }
  // Marking an overwritten entry is still sound: decisions are a
  // deterministic function of the key, so a concurrent Insert wrote
  // the same value the file now holds. Evicted keys are simply gone.
  for (const PairDecisionKey& key : written) {
    const uint64_t mix = KeyMix(key);
    Shard& shard = ShardFor(mix);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const size_t slot = shard.Find(key, Fragment(mix));
    if (slot != kNoSlot) {
      shard.entries[shard.slots[slot].position].persisted = true;
    }
  }
  return Status::OK();
}

Status ShardedDecisionCache::LoadSnapshot(const std::string& path,
                                          size_t* torn_bytes) {
  if (torn_bytes != nullptr) *torn_bytes = 0;
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cache file '" + path + "' not found");
  }
  const std::string not_a_snapshot =
      "'" + path + "' is not a pddcache v1 file";
  std::string line;
  size_t line_number = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (in.eof()) {
      // No '\n' ended the file: a save stopped mid-append. Drop the
      // partial line; before the header it can only be a piece of it.
      if (!saw_header && !StartsWith(kSnapshotHeader, line)) {
        return Status::ParseError(not_a_snapshot);
      }
      if (torn_bytes != nullptr) *torn_bytes = line.size();
      break;
    }
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (!saw_header) {
      if (trimmed != kSnapshotHeader) return Status::ParseError(not_a_snapshot);
      saw_header = true;
      continue;
    }
    if (trimmed[0] == '#') continue;
    std::vector<std::string> fields = SplitWhitespace(trimmed);
    PairDecisionKey key;
    uint64_t sim_bits = 0;
    if (fields.size() != 4 ||
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
                                  ": unknown match class '" + fields[3] +
                                  "'");
    }
    const uint64_t mix = KeyMix(key);
    Shard& shard = ShardFor(mix);
    std::lock_guard<std::mutex> lock(shard.mutex);
    InsertInShard(shard, mix, key, decision, /*persisted=*/true);
  }
  return Status::OK();
}

}  // namespace pdd
