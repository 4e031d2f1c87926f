#include "index/decision_index.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "plan/plan_spec.h"
#include "util/fnv.h"

namespace pdd {

namespace {

Status Corrupt(const std::string& what) {
  return Status::ParseError("decision index: corrupted file: " + what);
}

}  // namespace

Result<DecisionIndex> DecisionIndex::Open(const std::string& path,
                                          const OpenOptions& options) {
  DecisionIndex index;
  PDD_RETURN_IF_ERROR(index.file_.Open(path));
  Status attached = index.Attach(options);
  if (!attached.ok()) {
    return Status(attached.code(),
                  attached.message() + " ('" + path + "')");
  }
  return index;
}

Result<DecisionIndex> DecisionIndex::FromImage(std::string image,
                                               const OpenOptions& options) {
  DecisionIndex index;
  index.image_ = std::move(image);
  PDD_RETURN_IF_ERROR(index.Attach(options));
  return index;
}

Status DecisionIndex::Attach(const OpenOptions& options) {
  const unsigned char* data =
      file_.mapped() ? file_.data()
                     : reinterpret_cast<const unsigned char*>(image_.data());
  size_ = file_.mapped() ? file_.size() : image_.size();
  Result<IndexHeader> header = DecodeIndexHeader(data, size_);
  if (!header.ok()) return header.status();
  header_ = *header;
  const IndexHeader& h = header_;
  if (options.verify_digest) {
    uint64_t digest =
        FnvBytes(kFnvOffset, data + kIndexHeaderBytes, h.payload_bytes);
    if (digest != h.payload_digest) {
      return Corrupt("payload digest mismatch");
    }
  }
  // The checks below hold with or without the digest, so a
  // digest-skipping open never serves an index that reads outside its
  // image. They cost O(records); the one per-pair value, a run's
  // neighbor deltas, RunEntry checks where it reads it.
  //
  // Every record, pair and cluster takes payload bytes, which also
  // keeps the section sizes below from overflowing.
  const uint64_t n = h.record_count;
  if (n > h.payload_bytes || h.pair_count > h.payload_bytes ||
      h.cluster_count > n) {
    return Corrupt("counts exceed the payload");
  }
  // Section extents: every fixed-size section must fit between its
  // offset and the next section's (the last one inside the payload).
  for (uint32_t s = 0; s < kIndexSectionCount; ++s) {
    uint64_t end = s + 1 < kIndexSectionCount ? h.section_offsets[s + 1]
                                              : h.payload_bytes;
    uint64_t need = FixedSectionBytes(static_cast<IndexSection>(s), h);
    if (need > end - h.section_offsets[s]) {
      return Corrupt("section " + std::to_string(s) +
                     " smaller than its declared contents");
    }
  }
  // Offset arrays: monotone, consistent with the variable sections.
  const uint32_t* id_offsets = Section<uint32_t>(kIdOffsets);
  for (uint64_t r = 0; r < n; ++r) {
    if (id_offsets[r] > id_offsets[r + 1]) {
      return Corrupt("id offsets not monotone");
    }
  }
  if (id_offsets[n] >
      h.section_offsets[kIdSorted] - h.section_offsets[kIdArena]) {
    return Corrupt("id arena overflows its section");
  }
  const uint64_t* entry_offsets = Section<uint64_t>(kAdjEntryOffsets);
  const uint64_t* byte_offsets = Section<uint64_t>(kAdjByteOffsets);
  const uint32_t* bases = Section<uint32_t>(kAdjBase);
  const uint8_t* widths = Section<uint8_t>(kAdjWidth);
  if (entry_offsets[n] != h.pair_count) {
    return Corrupt("adjacency entries disagree with the pair count");
  }
  for (uint64_t r = 0; r < n; ++r) {
    uint64_t entries = entry_offsets[r + 1] - entry_offsets[r];
    if (entry_offsets[r] > entry_offsets[r + 1] ||
        byte_offsets[r] > byte_offsets[r + 1]) {
      return Corrupt("adjacency offsets not monotone");
    }
    if (widths[r] != 1 && widths[r] != 2 && widths[r] != 4) {
      return Corrupt("adjacency delta width not in {1,2,4}");
    }
    if (byte_offsets[r + 1] - byte_offsets[r] != entries * widths[r]) {
      return Corrupt("adjacency run bytes disagree with entry count");
    }
    if (entries > 0 && bases[r] >= n) {
      return Corrupt("adjacency run base outside the records");
    }
  }
  if (byte_offsets[n] >
      h.section_offsets[kEdgeClass] - h.section_offsets[kAdjData]) {
    return Corrupt("adjacency data overflows its section");
  }
  // Record-valued tables: every entry names a record or a cluster.
  const uint32_t* id_sorted = Section<uint32_t>(kIdSorted);
  const uint32_t* cluster_of = Section<uint32_t>(kClusterOf);
  const uint32_t* members = Section<uint32_t>(kClusterMembers);
  for (uint64_t r = 0; r < n; ++r) {
    if (id_sorted[r] >= n || members[r] >= n) {
      return Corrupt("record table entry outside the records");
    }
    if (cluster_of[r] >= h.cluster_count) {
      return Corrupt("cluster id outside the clusters");
    }
  }
  const uint64_t* cluster_offsets = Section<uint64_t>(kClusterOffsets);
  for (uint64_t c = 0; c < h.cluster_count; ++c) {
    if (cluster_offsets[c] > cluster_offsets[c + 1]) {
      return Corrupt("cluster offsets not monotone");
    }
  }
  if (cluster_offsets[h.cluster_count] != n) {
    return Corrupt("cluster membership does not cover every record");
  }
  return Status::OK();
}

std::optional<IndexedDecision> DecisionIndex::Lookup(uint32_t a,
                                                     uint32_t b) const {
  const uint64_t n = header_.record_count;
  if (a == b || a >= n || b >= n) return std::nullopt;
  const uint32_t lo = std::min(a, b);
  const uint32_t hi = std::max(a, b);
  const uint64_t* entry_offsets = Section<uint64_t>(kAdjEntryOffsets);
  const uint64_t e0 = entry_offsets[lo];
  const uint64_t count = entry_offsets[lo + 1] - e0;
  if (count == 0) return std::nullopt;
  const uint32_t run_base = Section<uint32_t>(kAdjBase)[lo];
  if (hi < run_base) return std::nullopt;
  const uint32_t target = hi - run_base;
  const uint32_t width = Section<uint8_t>(kAdjWidth)[lo];
  const unsigned char* run =
      Section<unsigned char>(kAdjData) + Section<uint64_t>(kAdjByteOffsets)[lo];
  // Binary search over the monotone frame-of-reference deltas.
  uint64_t left = 0;
  uint64_t right = count;
  while (left < right) {
    const uint64_t mid = left + (right - left) / 2;
    if (IndexReadDelta(run + mid * width, width) < target) {
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  if (left == count || IndexReadDelta(run + left * width, width) != target) {
    return std::nullopt;
  }
  return EdgeAt(e0 + left);
}

std::optional<IndexedDecision> DecisionIndex::Lookup(
    std::string_view id1, std::string_view id2) const {
  std::optional<uint32_t> a = FindRecord(id1);
  if (!a.has_value()) return std::nullopt;
  std::optional<uint32_t> b = FindRecord(id2);
  if (!b.has_value()) return std::nullopt;
  return Lookup(*a, *b);
}

std::optional<uint32_t> DecisionIndex::ClusterOf(uint32_t x) const {
  if (x >= header_.record_count) return std::nullopt;
  return Section<uint32_t>(kClusterOf)[x];
}

RecordSpan DecisionIndex::Members(uint32_t c) const {
  if (c >= header_.cluster_count) return {};
  const uint64_t* offsets = Section<uint64_t>(kClusterOffsets);
  RecordSpan span;
  span.data = Section<uint32_t>(kClusterMembers) + offsets[c];
  span.size = static_cast<size_t>(offsets[c + 1] - offsets[c]);
  return span;
}

std::optional<uint32_t> DecisionIndex::FindRecord(std::string_view id) const {
  const uint32_t* sorted = Section<uint32_t>(kIdSorted);
  uint64_t left = 0;
  uint64_t right = header_.record_count;
  while (left < right) {
    const uint64_t mid = left + (right - left) / 2;
    if (RecordId(sorted[mid]) < id) {
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  if (left == header_.record_count || RecordId(sorted[left]) != id) {
    return std::nullopt;
  }
  return sorted[left];
}

std::string_view DecisionIndex::RecordId(uint32_t r) const {
  if (r >= header_.record_count) return {};
  const uint32_t* offsets = Section<uint32_t>(kIdOffsets);
  const char* arena = Section<char>(kIdArena);
  return std::string_view(arena + offsets[r], offsets[r + 1] - offsets[r]);
}

size_t DecisionIndex::RunLength(uint32_t r) const {
  if (r >= header_.record_count) return 0;
  const uint64_t* entry_offsets = Section<uint64_t>(kAdjEntryOffsets);
  return static_cast<size_t>(entry_offsets[r + 1] - entry_offsets[r]);
}

bool DecisionIndex::RunEntry(uint32_t r, size_t k, uint32_t* neighbor,
                             IndexedDecision* decision) const {
  if (k >= RunLength(r)) return false;
  const uint32_t width = Section<uint8_t>(kAdjWidth)[r];
  const unsigned char* run =
      Section<unsigned char>(kAdjData) + Section<uint64_t>(kAdjByteOffsets)[r];
  const uint64_t hi = uint64_t{Section<uint32_t>(kAdjBase)[r]} +
                      IndexReadDelta(run + k * width, width);
  if (hi >= header_.record_count) return false;
  *neighbor = static_cast<uint32_t>(hi);
  *decision = EdgeAt(Section<uint64_t>(kAdjEntryOffsets)[r] + k);
  return true;
}

IndexedDecision DecisionIndex::EdgeAt(uint64_t e) const {
  IndexedDecision out;
  const uint8_t packed = Section<uint8_t>(kEdgeClass)[e >> 2];
  out.match_class =
      static_cast<MatchClass>((packed >> ((e & 3u) * 2u)) & 3u);
  const uint64_t bits = Section<uint64_t>(kEdgeSim)[e];
  std::memcpy(&out.similarity, &bits, sizeof(out.similarity));
  return out;
}

Status DecisionIndex::VerifyPlanFingerprint(uint64_t plan_fingerprint) const {
  if (header_.plan_fingerprint == plan_fingerprint) return Status::OK();
  return Status::FailedPrecondition(
      "stale index: compiled from plan " +
      FingerprintHex(header_.plan_fingerprint) + ", queried with plan " +
      FingerprintHex(plan_fingerprint) + " — rebuild the index");
}

Status DecisionIndex::VerifySourceDigest(uint64_t source_digest) const {
  if (header_.source_digest == source_digest) return Status::OK();
  return Status::FailedPrecondition(
      "stale index: compiled from a report with content digest " +
      FingerprintHex(header_.source_digest) +
      ", the fresh run's report digests to " + FingerprintHex(source_digest) +
      " — rebuild the index");
}

}  // namespace pdd
