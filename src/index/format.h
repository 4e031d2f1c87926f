// On-disk layout of the decision index (`pdd.index.v1`): an immutable,
// versioned, single-file binary compiled from one detection run so
// point queries ("are a and b duplicates?") and membership queries
// ("which cluster is x in?") resolve with pointer arithmetic into an
// mmap'd region — no pipeline, no parsing, no allocation.
//
// File layout (all integers little-endian / native on the writing
// machine; the header's endian tag rejects cross-endian readers):
//
//   header (176 bytes, format.cc EncodeIndexHeader):
//     magic "pddidx1\n", version, endian tag,
//     plan fingerprint + source-report content digest (staleness),
//     record/pair/cluster counts, payload size + payload FNV digest,
//     one offset per section (relative to the payload start)
//   payload (13 sections, each 8-byte aligned, in enum order):
//     kIdOffsets       u32[records+1]  byte offsets into kIdArena
//     kIdArena         bytes           record ids, concatenated
//     kIdSorted        u32[records]    record indices sorted by id
//     kAdjEntryOffsets u64[records+1]  cumulative edges per record
//     kAdjByteOffsets  u64[records+1]  cumulative bytes in kAdjData
//     kAdjBase         u32[records]    first neighbor id of each run
//     kAdjWidth        u8[records]     delta width of each run (1/2/4)
//     kAdjData         bytes           delta-encoded neighbor runs
//     kEdgeClass       u8[ceil(pairs/4)]  2-bit match class per edge
//     kEdgeSim         u64[pairs]      similarity doubles, bit pattern
//     kClusterOf       u32[records]    record -> cluster id
//     kClusterOffsets  u64[clusters+1] member ranges
//     kClusterMembers  u32[records]    cluster members, ascending
//
// An edge (a, b) lives in the adjacency run of min(a, b); runs are
// sorted by neighbor id and frame-of-reference coded (per-run base +
// fixed-width deltas), so the encoded values stay monotone and a point
// query is a binary search over O(degree) deltas. The edge's position
// in the global (run-concatenated) order indexes kEdgeClass/kEdgeSim.
//
// Staleness is structural, not advisory: the header stamps the plan
// fingerprint and the content digest of the source report, so a reader
// can prove an index matches (or no longer matches) a plan or a fresh
// run without re-deciding anything. The payload digest rejects
// corrupted files; the size fields reject truncated ones.

#ifndef PDD_INDEX_FORMAT_H_
#define PDD_INDEX_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/status.h"

namespace pdd {

/// First bytes of every decision-index file.
inline constexpr char kIndexMagic[8] = {'p', 'd', 'd', 'i',
                                        'd', 'x', '1', '\n'};
/// Format version ("pdd.index.v1"). Bumped on any layout change;
/// readers reject versions they do not know.
inline constexpr uint32_t kIndexVersion = 1;
/// Written as-is; a reader on the other endianness sees it reversed.
inline constexpr uint32_t kIndexEndianTag = 0x01020304u;

/// The payload sections, in file order.
enum IndexSection : uint32_t {
  kIdOffsets = 0,
  kIdArena = 1,
  kIdSorted = 2,
  kAdjEntryOffsets = 3,
  kAdjByteOffsets = 4,
  kAdjBase = 5,
  kAdjWidth = 6,
  kAdjData = 7,
  kEdgeClass = 8,
  kEdgeSim = 9,
  kClusterOf = 10,
  kClusterOffsets = 11,
  kClusterMembers = 12,
  kIndexSectionCount = 13,
};

/// Serialized header size in bytes.
inline constexpr size_t kIndexHeaderBytes =
    8 + 4 + 4 + 7 * 8 + kIndexSectionCount * 8;

/// Decoded form of the fixed-size file header.
struct IndexHeader {
  uint32_t version = kIndexVersion;
  /// DetectionPlan::fingerprint() of the producing run.
  uint64_t plan_fingerprint = 0;
  /// DetectionResult::ContentDigest() of the source report.
  uint64_t source_digest = 0;
  uint64_t record_count = 0;
  uint64_t pair_count = 0;
  uint64_t cluster_count = 0;
  /// Bytes after the header. File size must equal
  /// kIndexHeaderBytes + payload_bytes exactly.
  uint64_t payload_bytes = 0;
  /// FNV-1a 64 (util/fnv.h) over the payload bytes.
  uint64_t payload_digest = 0;
  /// Section start offsets relative to the payload start, each 8-byte
  /// aligned, ascending in enum order.
  uint64_t section_offsets[kIndexSectionCount] = {};
};

/// Bytes a fixed-layout section needs given the header counts; 0 for
/// the variable sections (kIdArena, kAdjData), whose extents the
/// offset arrays give. The builder lays sections out by it and the
/// reader checks their extents by it.
uint64_t FixedSectionBytes(IndexSection section, const IndexHeader& header);

// --- header serialization -------------------------------------------

/// Serializes `header` into the kIndexHeaderBytes bytes at `out`.
void EncodeIndexHeader(const IndexHeader& header, void* out);

/// Decodes and structurally validates a header against the image size:
/// magic, version, endianness, header/payload size agreement, section
/// offset monotonicity and alignment. Does NOT hash the payload — the
/// reader decides whether to pay the digest pass (it does by default).
Result<IndexHeader> DecodeIndexHeader(const void* data, size_t size);

/// Number of bytes a frame-of-reference delta needs (1, 2 or 4).
inline uint32_t IndexDeltaWidth(uint64_t max_delta) {
  if (max_delta <= 0xFFu) return 1;
  if (max_delta <= 0xFFFFu) return 2;
  return 4;
}

/// Reads one `width`-byte little-endian delta (query hot path; memcpy
/// keeps it alignment- and aliasing-safe, compilers fold it to a load).
inline uint32_t IndexReadDelta(const unsigned char* at, uint32_t width) {
  uint32_t value = 0;
  std::memcpy(&value, at, width);
  return value;
}

}  // namespace pdd

#endif  // PDD_INDEX_FORMAT_H_
