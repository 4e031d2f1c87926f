#include "index/index_builder.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "index/format.h"
#include "obs/metrics_registry.h"
#include "util/file_util.h"
#include "util/union_find.h"

namespace pdd {

namespace {

/// One adjacency entry under its run owner: the higher record id plus
/// the decision it came from (kept as an index into
/// `result.decisions` so the edge arrays can copy class/similarity in
/// the final global order).
struct Edge {
  uint32_t lo = 0;
  uint32_t hi = 0;
  uint32_t decision = 0;
};

bool EdgeLess(const Edge& a, const Edge& b) {
  return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
}

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

template <typename T>
void AppendArray(std::string* out, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable<T>::value, "raw section");
  AppendRaw(out, values.data(), values.size() * sizeof(T));
}

/// Pads to the next 8-byte boundary and records the section start.
void BeginSection(std::string* payload, IndexHeader* header,
                  IndexSection section) {
  while (payload->size() % 8 != 0) payload->push_back('\0');
  header->section_offsets[section] = payload->size();
}

}  // namespace

Result<std::string> BuildDecisionIndexImage(
    const std::vector<std::string>& record_ids, const DetectionResult& result,
    IndexBuildStats* stats) {
  const auto started = std::chrono::steady_clock::now();
  const size_t n = record_ids.size();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange(
        "decision index: record count exceeds the format's 32-bit id "
        "space");
  }
  // --- validate and canonicalize the edges ---------------------------
  // The result's id table is the universe its indices address, so one
  // table comparison vouches for the ids of every decision.
  if (result.ids == nullptr ? !result.decisions.empty()
                            : *result.ids != record_ids) {
    return Status::InvalidArgument(
        "decision index: the result's id table disagrees with the " +
        std::to_string(n) + "-record universe");
  }
  std::vector<Edge> edges;
  edges.reserve(result.decisions.size());
  for (size_t d = 0; d < result.decisions.size(); ++d) {
    const PairDecisionRecord& rec = result.decisions[d];
    if (rec.index1 >= n || rec.index2 >= n) {
      return Status::InvalidArgument(
          "decision index: decision " + std::to_string(d) +
          " addresses record " +
          std::to_string(std::max(rec.index1, rec.index2)) +
          " outside the " + std::to_string(n) + "-record universe");
    }
    if (rec.index1 == rec.index2) {
      return Status::InvalidArgument("decision index: decision " +
                                     std::to_string(d) +
                                     " pairs a record with itself");
    }
    Edge edge;
    edge.lo = std::min(rec.index1, rec.index2);
    edge.hi = std::max(rec.index1, rec.index2);
    edge.decision = static_cast<uint32_t>(d);
    edges.push_back(edge);
  }
  // Executor results arrive strictly ascending in (lo, hi); only other
  // orders pay for the sort.
  if (std::adjacent_find(edges.begin(), edges.end(),
                         [](const Edge& a, const Edge& b) {
                           return !EdgeLess(a, b);
                         }) != edges.end()) {
    std::sort(edges.begin(), edges.end(), EdgeLess);
  }
  for (size_t e = 1; e < edges.size(); ++e) {
    if (edges[e].lo == edges[e - 1].lo && edges[e].hi == edges[e - 1].hi) {
      return Status::InvalidArgument(
          "decision index: duplicate decision for pair (" +
          record_ids[edges[e].lo] + ", " + record_ids[edges[e].hi] + ")");
    }
  }
  const uint64_t pair_count = edges.size();

  // --- id table -------------------------------------------------------
  std::vector<uint32_t> id_offsets(n + 1, 0);
  uint64_t arena_bytes = 0;
  for (size_t r = 0; r < n; ++r) {
    arena_bytes += record_ids[r].size();
    if (arena_bytes > std::numeric_limits<uint32_t>::max()) {
      return Status::OutOfRange(
          "decision index: record ids exceed the format's 4 GiB arena");
    }
    id_offsets[r + 1] = static_cast<uint32_t>(arena_bytes);
  }
  std::vector<uint32_t> id_sorted(n);
  for (size_t r = 0; r < n; ++r) id_sorted[r] = static_cast<uint32_t>(r);
  std::sort(id_sorted.begin(), id_sorted.end(),
            [&](uint32_t a, uint32_t b) { return record_ids[a] < record_ids[b]; });
  for (size_t r = 1; r < n; ++r) {
    if (record_ids[id_sorted[r - 1]] == record_ids[id_sorted[r]]) {
      return Status::InvalidArgument(
          "decision index: duplicate record id '" +
          record_ids[id_sorted[r]] + "' — id lookup requires unique ids");
    }
  }

  // --- adjacency runs (frame-of-reference deltas) ---------------------
  std::vector<uint64_t> entry_offsets(n + 1, 0);
  std::vector<uint64_t> byte_offsets(n + 1, 0);
  std::vector<uint32_t> bases(n, 0);
  std::vector<uint8_t> widths(n, 1);
  {
    size_t e = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
    for (size_t r = 0; r < n; ++r) {
      entry_offsets[r] = entries;
      byte_offsets[r] = bytes;
      size_t first = e;
      while (e < edges.size() && edges[e].lo == r) ++e;
      size_t count = e - first;
      if (count > 0) {
        bases[r] = edges[first].hi;
        widths[r] = static_cast<uint8_t>(
            IndexDeltaWidth(edges[e - 1].hi - edges[first].hi));
      }
      entries += count;
      bytes += count * widths[r];
    }
    entry_offsets[n] = entries;
    byte_offsets[n] = bytes;
  }
  std::string adj_data;
  adj_data.reserve(byte_offsets[n]);
  for (size_t r = 0, e = 0; r < n; ++r) {
    size_t count = static_cast<size_t>(entry_offsets[r + 1] - entry_offsets[r]);
    for (size_t k = 0; k < count; ++k, ++e) {
      uint32_t delta = edges[e].hi - bases[r];
      AppendRaw(&adj_data, &delta, widths[r]);
    }
  }

  // --- edge payloads in global (run-concatenated) order ---------------
  std::vector<uint8_t> edge_class((pair_count + 3) / 4, 0);
  std::vector<uint64_t> edge_sim(pair_count, 0);
  for (size_t e = 0; e < edges.size(); ++e) {
    const PairDecisionRecord& rec = result.decisions[edges[e].decision];
    edge_class[e >> 2] = static_cast<uint8_t>(
        edge_class[e >> 2] |
        (static_cast<unsigned>(rec.match_class) & 3u) << ((e & 3u) * 2u));
    std::memcpy(&edge_sim[e], &rec.similarity, sizeof(uint64_t));
  }

  // --- clusters: union-find over the duplicate decisions --------------
  UnionFind sets(n);
  for (const Edge& edge : edges) {
    const PairDecisionRecord& rec = result.decisions[edge.decision];
    if (rec.match_class == MatchClass::kMatch) sets.Union(edge.lo, edge.hi);
  }
  std::vector<std::vector<size_t>> groups = sets.Groups();
  const uint64_t cluster_count = groups.size();
  std::vector<uint32_t> cluster_of(n, 0);
  std::vector<uint64_t> cluster_offsets(cluster_count + 1, 0);
  std::vector<uint32_t> cluster_members;
  cluster_members.reserve(n);
  for (size_t c = 0; c < groups.size(); ++c) {
    cluster_offsets[c] = cluster_members.size();
    for (size_t member : groups[c]) {
      cluster_of[member] = static_cast<uint32_t>(c);
      cluster_members.push_back(static_cast<uint32_t>(member));
    }
  }
  cluster_offsets[cluster_count] = cluster_members.size();

  // --- serialize ------------------------------------------------------
  IndexHeader header;
  header.plan_fingerprint = result.plan_fingerprint;
  header.source_digest = result.ContentDigest();
  header.record_count = n;
  header.pair_count = pair_count;
  header.cluster_count = cluster_count;

  std::string payload;
  BeginSection(&payload, &header, kIdOffsets);
  AppendArray(&payload, id_offsets);
  BeginSection(&payload, &header, kIdArena);
  for (const std::string& id : record_ids) AppendRaw(&payload, id.data(), id.size());
  BeginSection(&payload, &header, kIdSorted);
  AppendArray(&payload, id_sorted);
  BeginSection(&payload, &header, kAdjEntryOffsets);
  AppendArray(&payload, entry_offsets);
  BeginSection(&payload, &header, kAdjByteOffsets);
  AppendArray(&payload, byte_offsets);
  BeginSection(&payload, &header, kAdjBase);
  AppendArray(&payload, bases);
  BeginSection(&payload, &header, kAdjWidth);
  AppendArray(&payload, widths);
  BeginSection(&payload, &header, kAdjData);
  payload += adj_data;
  BeginSection(&payload, &header, kEdgeClass);
  AppendArray(&payload, edge_class);
  BeginSection(&payload, &header, kEdgeSim);
  AppendArray(&payload, edge_sim);
  BeginSection(&payload, &header, kClusterOf);
  AppendArray(&payload, cluster_of);
  BeginSection(&payload, &header, kClusterOffsets);
  AppendArray(&payload, cluster_offsets);
  BeginSection(&payload, &header, kClusterMembers);
  AppendArray(&payload, cluster_members);
  while (payload.size() % 8 != 0) payload.push_back('\0');

  header.payload_bytes = payload.size();
  header.payload_digest =
      IndexHashBytes(kIndexFnvOffset, payload.data(), payload.size());
  std::string image = EncodeIndexHeader(header);
  image += payload;

  if (stats != nullptr) {
    stats->record_count = n;
    stats->pair_count = pair_count;
    stats->cluster_count = cluster_count;
    stats->bytes = image.size();
    stats->build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
  }
  return image;
}

Result<std::string> BuildDecisionIndexImage(const XRelation& rel,
                                            const DetectionResult& result,
                                            IndexBuildStats* stats) {
  std::vector<std::string> record_ids;
  record_ids.reserve(rel.size());
  for (const XTuple& tuple : rel.xtuples()) record_ids.push_back(tuple.id());
  return BuildDecisionIndexImage(record_ids, result, stats);
}

Status WriteDecisionIndexFile(const std::string& path,
                              const std::string& image) {
  return WriteFileAtomically(path, image);
}

void AddIndexBuildMetrics(const IndexBuildStats& stats,
                          MetricsRegistry* metrics) {
  metrics->SetCounter("exec.index.records", stats.record_count);
  metrics->SetCounter("exec.index.pairs", stats.pair_count);
  metrics->SetCounter("exec.index.clusters", stats.cluster_count);
  metrics->SetCounter("exec.index.bytes", stats.bytes);
  metrics->SetGauge("exec.index.bytes_per_pair", stats.BytesPerPair());
  metrics->SetGauge("time.index.build_seconds", stats.build_seconds);
}

}  // namespace pdd
