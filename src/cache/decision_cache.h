// The decision cache: memoization of per-pair detection decisions, the
// ROADMAP's result-caching subsystem. Entries are keyed by
// (plan decision fingerprint, pair content digest):
//
//   * the fingerprint (DetectionPlan::decision_fingerprint()) pins the
//     decide-stage components — φ, ϑ, comparators, thresholds — so a
//     plan change that alters decisions can never serve stale entries;
//     plans that differ only in reduction/key parameters share it,
//     which is what makes φ/ϑ/reduction sweeps cheap (cross-plan reuse);
//   * the digest (cache/pair_digest.h) pins the pair's content, so
//     preparation variants and id renames are handled by construction.
//
// ShardedDecisionCache is the concurrent in-memory store the
// StageExecutor consults: N lock stripes, each an independently locked
// CLOCK store with a per-stripe capacity slice, sized for many executor
// workers hammering lookups/inserts concurrently. A stripe keeps its
// entries in one array that the CLOCK hand sweeps, plus an
// open-addressing index into that array, so a hit relinks nothing and
// an insert allocates nothing beyond the amortized doubling of the two
// arrays. Hit/miss/insert/evict counters are kept per stripe and
// aggregated by Stats().
//
// The optional disk snapshot (Save/LoadSnapshot) is a text file so
// repeated sweeps and CLI invocations warm-start across processes: a
// save atomically replaces it with the resident set (at most capacity
// + 1 lines, however often it is saved), and a load replays it in
// order. Similarities are serialized as bit patterns, so a
// warm-started run stays bit-identical to a cold one.

#ifndef PDD_CACHE_DECISION_CACHE_H_
#define PDD_CACHE_DECISION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "decision/classifier.h"
#include "util/status.h"

namespace pdd {

/// Cache key: which decide-stage pipeline, which pair content.
struct PairDecisionKey {
  /// DetectionPlan::decision_fingerprint() — 0 means cache-ineligible
  /// (custom comparator instances with no stable identity).
  uint64_t plan_fingerprint = 0;
  /// PairContentDigest of the (unordered) candidate pair.
  uint64_t pair_digest = 0;

  bool operator==(const PairDecisionKey& other) const {
    return plan_fingerprint == other.plan_fingerprint &&
           pair_digest == other.pair_digest;
  }
};

/// The memoized outcome of one pair decision (XPairDecision's data,
/// without pulling the derive layer into the cache's dependencies).
struct CachedPairDecision {
  double similarity = 0.0;
  MatchClass match_class = MatchClass::kUnmatch;

  bool operator==(const CachedPairDecision& other) const {
    return similarity == other.similarity &&
           match_class == other.match_class;
  }
};

/// Lifetime counters of a cache instance (aggregated over shards).
struct DecisionCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  /// Entries currently resident.
  size_t size = 0;

  double HitRate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  std::string ToString() const;
};

struct ShardedDecisionCacheOptions {
  /// Total entry bound across all shards. Divided exactly: every shard
  /// gets capacity/shards entries and the remainder is distributed one
  /// entry each to the first shards, so the per-shard bounds always sum
  /// to the configured capacity (never more — a truncating division
  /// must not be patched up to "at least 1 per shard", which would
  /// inflate the total past the bound). 0 is treated as 1; a capacity
  /// above shards * ShardedDecisionCache::kMaxShardCapacity is clamped
  /// to that product.
  size_t capacity = 1u << 20;
  /// Lock stripes; rounded up to a power of two, at least 1. More
  /// shards = less contention, slightly coarser eviction order
  /// (per-shard, not global).
  size_t shards = 16;
};

/// Lock-striped CLOCK cache. Every method is safe to call from many
/// threads at once. Shard choice is a mix of the key hash, so both
/// halves of the key spread entries evenly.
///
/// Eviction policy, per stripe: a hit, or re-inserting a resident key,
/// sets the entry's referenced bit. A new key is appended while the
/// stripe is below its bound; at the bound the hand sweeps the entry
/// array, clearing referenced bits, and the first unreferenced entry
/// it reaches is evicted and replaced in place. New entries start
/// unreferenced.
///
/// Sizing: an entry is 32 bytes and its index slot 8 bytes; the index
/// keeps at most half its slots in use. Storage grows by amortized
/// doubling with the residents, up to the stripe's bound, and the
/// constructor allocates only the stripes, so a large capacity costs
/// nothing until it is filled. A full stripe holds 48–64 bytes per
/// resident entry.
class ShardedDecisionCache {
 public:
  explicit ShardedDecisionCache(ShardedDecisionCacheOptions options = {});

  /// The entry for `key`, or nullopt on miss. Counts a hit or miss.
  std::optional<CachedPairDecision> Lookup(const PairDecisionKey& key);

  /// Inserts (or refreshes) `key`. Inserting a resident key updates
  /// its value and marks it recently used without counting an insert
  /// or an eviction.
  void Insert(const PairDecisionKey& key, const CachedPairDecision& decision);

  /// Aggregated lifetime counters.
  DecisionCacheStats Stats() const;

  /// Entries currently resident (sums shard sizes). Always <=
  /// TotalCapacity().
  size_t size() const;
  /// Sum of the per-shard entry bounds — exactly the configured
  /// capacity (after its 0 → 1 normalization and kMaxShardCapacity
  /// clamp), for any shard count.
  size_t TotalCapacity() const;
  const ShardedDecisionCacheOptions& options() const { return options_; }

  /// Largest per-stripe entry bound. Entry positions are 32-bit and
  /// the index (at most 2^32 slots at half load) recovers a slot's home
  /// from the 32-bit hash fragment it stores.
  static constexpr size_t kMaxShardCapacity = size_t{1} << 31;

  // --- disk snapshot ------------------------------------------------

  /// Atomically replaces `path` (the file a link names) with the header
  /// and every resident entry, each stripe oldest first from its hand,
  /// so a replay into an empty cache of the same capacity rebuilds the
  /// CLOCK order. Each stripe is copied under its lock, formatted and
  /// written before the next is copied, so a save holds one stripe's
  /// entries and text beside the cache, not the whole file. What is
  /// there and is no snapshot (or torn piece of one), no regular file
  /// or unreadable is left alone with InvalidArgument.
  Status SaveSnapshot(const std::string& path);

  /// Replays a snapshot file into the cache (later lines win on
  /// duplicate keys, as in files older builds appended to). Missing
  /// files are NotFound; callers treating a first run's absent file as
  /// an empty cache should check for that code. A path that is no
  /// regular file or cannot be read is InvalidArgument. A final line
  /// without its '\n' is torn (left by an older build or outside
  /// damage): it is skipped and its byte count stored in `*torn_bytes`
  /// when given (0 otherwise). A complete malformed line, or a first
  /// non-blank line that is not the header, is a ParseError.
  Status LoadSnapshot(const std::string& path, size_t* torn_bytes = nullptr);

 private:
  /// One resident entry.
  struct Entry {
    PairDecisionKey key;
    double similarity = 0.0;
    MatchClass match_class = MatchClass::kUnmatch;
    /// CLOCK bit: looked up or re-inserted since the hand last passed.
    bool referenced = false;
  };
  static_assert(sizeof(Entry) <= 32, "a cache entry must fit in 32 bytes");

  /// One index slot: the entry's position in the stripe's array and
  /// the low 32 bits of its key mix. Probes compare full keys only
  /// when the fragments agree.
  struct Slot {
    uint32_t position;
    uint32_t fragment;
  };

  /// One lock stripe. Padded so stripe mutexes don't share cache lines
  /// under contention.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    /// Resident entries; grows to `capacity`, then entries are replaced
    /// in place.
    std::vector<Entry> entries;
    /// Linear-probing index into `entries`: empty or a power-of-two
    /// slot count, at most half of them used.
    std::vector<Slot> slots;
    /// CLOCK hand: the next eviction candidate once `entries` is full.
    size_t hand = 0;
    /// This shard's entry bound (capacity/shards, +1 for the shards
    /// absorbing the remainder).
    size_t capacity = 1;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;

    /// The slot indexing `key`, or SIZE_MAX when it is not resident.
    size_t Find(const PairDecisionKey& key, uint32_t fragment) const;
    /// Indexes entries[position] under `fragment`.
    void Place(size_t position, uint32_t fragment);
    /// Empties slot `hole` by backward shift (no tombstones).
    void Erase(size_t hole);
    /// Rebuilds the index over `slot_count` slots.
    void Rehash(size_t slot_count);
  };

  Shard& ShardFor(uint64_t mix);
  /// Insert/refresh; the caller holds the shard lock.
  void InsertInShard(Shard& shard, uint64_t mix, const PairDecisionKey& key,
                     const CachedPairDecision& decision);

  ShardedDecisionCacheOptions options_;
  size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pdd

#endif  // PDD_CACHE_DECISION_CACHE_H_
