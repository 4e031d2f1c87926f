#include "index/format.h"

#include <cstring>

namespace pdd {

namespace {

unsigned char* PutU32(unsigned char* out, uint32_t value) {
  std::memcpy(out, &value, sizeof(value));
  return out + sizeof(value);
}

unsigned char* PutU64(unsigned char* out, uint64_t value) {
  std::memcpy(out, &value, sizeof(value));
  return out + sizeof(value);
}

uint32_t GetU32(const unsigned char* at) {
  uint32_t value = 0;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

uint64_t GetU64(const unsigned char* at) {
  uint64_t value = 0;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

}  // namespace

uint64_t FixedSectionBytes(IndexSection section, const IndexHeader& h) {
  switch (section) {
    case kIdOffsets:
      return (h.record_count + 1) * 4;
    case kIdSorted:
    case kAdjBase:
    case kClusterOf:
    case kClusterMembers:
      return h.record_count * 4;
    case kAdjEntryOffsets:
    case kAdjByteOffsets:
      return (h.record_count + 1) * 8;
    case kAdjWidth:
      return h.record_count;
    case kEdgeClass:
      return (h.pair_count + 3) / 4;
    case kEdgeSim:
      return h.pair_count * 8;
    case kClusterOffsets:
      return (h.cluster_count + 1) * 8;
    case kIdArena:
    case kAdjData:
    case kIndexSectionCount:
      return 0;
  }
  return 0;
}

void EncodeIndexHeader(const IndexHeader& header, void* out) {
  unsigned char* at = static_cast<unsigned char*>(out);
  std::memcpy(at, kIndexMagic, sizeof(kIndexMagic));
  at += sizeof(kIndexMagic);
  at = PutU32(at, header.version);
  at = PutU32(at, kIndexEndianTag);
  at = PutU64(at, header.plan_fingerprint);
  at = PutU64(at, header.source_digest);
  at = PutU64(at, header.record_count);
  at = PutU64(at, header.pair_count);
  at = PutU64(at, header.cluster_count);
  at = PutU64(at, header.payload_bytes);
  at = PutU64(at, header.payload_digest);
  for (uint64_t offset : header.section_offsets) at = PutU64(at, offset);
}

Result<IndexHeader> DecodeIndexHeader(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  if (size < kIndexHeaderBytes) {
    return Status::ParseError(
        "decision index: file smaller than the header (" +
        std::to_string(size) + " bytes) — truncated or not an index");
  }
  if (std::memcmp(bytes, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return Status::ParseError(
        "decision index: bad magic — not a pdd.index file");
  }
  IndexHeader header;
  size_t at = sizeof(kIndexMagic);
  header.version = GetU32(bytes + at);
  at += 4;
  uint32_t endian = GetU32(bytes + at);
  at += 4;
  if (header.version != kIndexVersion) {
    return Status::ParseError("decision index: unknown format version " +
                              std::to_string(header.version) +
                              " (this reader knows version " +
                              std::to_string(kIndexVersion) + ")");
  }
  if (endian != kIndexEndianTag) {
    return Status::ParseError(
        "decision index: endianness mismatch — the index was written on "
        "a machine with different byte order");
  }
  header.plan_fingerprint = GetU64(bytes + at);
  at += 8;
  header.source_digest = GetU64(bytes + at);
  at += 8;
  header.record_count = GetU64(bytes + at);
  at += 8;
  header.pair_count = GetU64(bytes + at);
  at += 8;
  header.cluster_count = GetU64(bytes + at);
  at += 8;
  header.payload_bytes = GetU64(bytes + at);
  at += 8;
  header.payload_digest = GetU64(bytes + at);
  at += 8;
  for (size_t i = 0; i < kIndexSectionCount; ++i) {
    header.section_offsets[i] = GetU64(bytes + at);
    at += 8;
  }
  if (size != kIndexHeaderBytes + header.payload_bytes) {
    return Status::ParseError(
        "decision index: size mismatch — header declares " +
        std::to_string(kIndexHeaderBytes + header.payload_bytes) +
        " bytes, file has " + std::to_string(size) +
        " (truncated or trailing garbage)");
  }
  uint64_t previous = 0;
  for (size_t i = 0; i < kIndexSectionCount; ++i) {
    uint64_t offset = header.section_offsets[i];
    if (offset % 8 != 0) {
      return Status::ParseError("decision index: section " +
                                std::to_string(i) + " offset " +
                                std::to_string(offset) + " is unaligned");
    }
    if (offset < previous || offset > header.payload_bytes) {
      return Status::ParseError("decision index: section " +
                                std::to_string(i) +
                                " offset out of order or past the payload");
    }
    previous = offset;
  }
  return header;
}

}  // namespace pdd
