#include "index/index_builder.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <numeric>

#include "index/format.h"
#include "obs/metrics_registry.h"
#include "util/file_util.h"
#include "util/fnv.h"
#include "util/union_find.h"

namespace pdd {

namespace {

/// A record's pair as (lo, hi) in one word: the image's edge order is
/// ascending in it, and an edge lives in lo's adjacency run.
uint64_t EdgeKey(const PairDecisionRecord& rec) {
  return uint64_t{std::min(rec.index1, rec.index2)} << 32 |
         std::max(rec.index1, rec.index2);
}

/// What the layout pass learns from the records: each adjacency run's
/// length, base (first neighbor) and delta width, and the clusters of
/// the duplicate decisions. Everything is per record.
struct Layout {
  explicit Layout(size_t n)
      : run_length(n, 0), run_base(n, 0), run_width(n, 1), clusters(n) {}

  std::vector<uint32_t> run_length;
  std::vector<uint32_t> run_base;
  std::vector<uint8_t> run_width;
  UnionFind clusters;
  /// False when a record broke strict (lo, hi) order: sizing stops
  /// there, and the caller lays out a sorted copy instead.
  bool ascending = true;
};

/// The layout pass: one walk over the records that validates each
/// (index range, self pair, and on ascending input duplicate pairs)
/// and, while they stay strictly ascending in (lo, hi), sizes the
/// adjacency runs and unions the match edges.
Status LayOut(const std::vector<std::string>& record_ids,
              const std::vector<PairDecisionRecord>& records,
              Layout* layout) {
  const size_t n = record_ids.size();
  uint64_t previous = 0;
  for (size_t d = 0; d < records.size(); ++d) {
    const PairDecisionRecord& rec = records[d];
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
    if (!layout->ascending) continue;
    const uint64_t key = EdgeKey(rec);
    const uint32_t lo = static_cast<uint32_t>(key >> 32);
    const uint32_t hi = static_cast<uint32_t>(key);
    if (d > 0 && key <= previous) {
      if (key == previous) {
        return Status::InvalidArgument(
            "decision index: duplicate decision for pair (" +
            record_ids[lo] + ", " + record_ids[hi] + ")");
      }
      layout->ascending = false;
      continue;
    }
    previous = key;
    if (layout->run_length[lo]++ == 0) layout->run_base[lo] = hi;
    // Neighbors ascend within a run, so the last one sets the width.
    layout->run_width[lo] =
        static_cast<uint8_t>(IndexDeltaWidth(hi - layout->run_base[lo]));
    if (rec.match_class == MatchClass::kMatch) layout->clusters.Union(lo, hi);
  }
  return Status::OK();
}

/// Typed pointer to a section of the image being filled.
template <typename T>
T* SectionAt(std::string* image, const IndexHeader& header,
             IndexSection section) {
  return reinterpret_cast<T*>(image->data() + kIndexHeaderBytes +
                              header.section_offsets[section]);
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
  // The result's id table is the universe its indices address, so one
  // table comparison vouches for the ids of every decision.
  if (result.ids == nullptr ? !result.decisions.empty()
                            : *result.ids != record_ids) {
    return Status::InvalidArgument(
        "decision index: the result's id table disagrees with the " +
        std::to_string(n) + "-record universe");
  }
  uint64_t arena_bytes = 0;
  for (const std::string& id : record_ids) {
    arena_bytes += id.size();
    if (arena_bytes > std::numeric_limits<uint32_t>::max()) {
      return Status::OutOfRange(
          "decision index: record ids exceed the format's 4 GiB arena");
    }
  }

  // --- layout pass ----------------------------------------------------
  // Executor results arrive strictly ascending in (lo, hi); only other
  // orders (hand-assembled results) pay for one sorted copy.
  const std::vector<PairDecisionRecord>* records = &result.decisions;
  std::vector<PairDecisionRecord> sorted;
  Layout layout(n);
  PDD_RETURN_IF_ERROR(LayOut(record_ids, *records, &layout));
  if (!layout.ascending) {
    sorted = result.decisions;
    std::sort(sorted.begin(), sorted.end(),
              [](const PairDecisionRecord& a, const PairDecisionRecord& b) {
                return EdgeKey(a) < EdgeKey(b);
              });
    records = &sorted;
    layout = Layout(n);
    PDD_RETURN_IF_ERROR(LayOut(record_ids, *records, &layout));
  }
  uint64_t adj_bytes = 0;
  for (size_t r = 0; r < n; ++r) {
    adj_bytes += uint64_t{layout.run_length[r]} * layout.run_width[r];
  }

  // --- one allocation: every section sized from the counts ------------
  IndexHeader header;
  header.plan_fingerprint = result.plan_fingerprint;
  header.source_digest = result.ContentDigest();
  header.record_count = n;
  header.pair_count = records->size();
  header.cluster_count = layout.clusters.set_count();
  uint64_t payload_bytes = 0;
  for (uint32_t s = 0; s < kIndexSectionCount; ++s) {
    const IndexSection section = static_cast<IndexSection>(s);
    payload_bytes = (payload_bytes + 7) / 8 * 8;
    header.section_offsets[s] = payload_bytes;
    payload_bytes += section == kIdArena  ? arena_bytes
                     : section == kAdjData ? adj_bytes
                                           : FixedSectionBytes(section, header);
  }
  header.payload_bytes = (payload_bytes + 7) / 8 * 8;
  std::string image(kIndexHeaderBytes + header.payload_bytes, '\0');

  // --- id table -------------------------------------------------------
  uint32_t* id_offsets = SectionAt<uint32_t>(&image, header, kIdOffsets);
  char* arena = SectionAt<char>(&image, header, kIdArena);
  id_offsets[0] = 0;
  for (size_t r = 0; r < n; ++r) {
    const std::string& id = record_ids[r];
    std::memcpy(arena + id_offsets[r], id.data(), id.size());
    id_offsets[r + 1] = id_offsets[r] + static_cast<uint32_t>(id.size());
  }
  uint32_t* id_sorted = SectionAt<uint32_t>(&image, header, kIdSorted);
  std::iota(id_sorted, id_sorted + n, 0u);
  std::sort(id_sorted, id_sorted + n, [&](uint32_t a, uint32_t b) {
    return record_ids[a] < record_ids[b];
  });
  for (size_t r = 1; r < n; ++r) {
    if (record_ids[id_sorted[r - 1]] == record_ids[id_sorted[r]]) {
      return Status::InvalidArgument(
          "decision index: duplicate record id '" +
          record_ids[id_sorted[r]] + "' — id lookup requires unique ids");
    }
  }

  // --- fill pass: adjacency runs, 2-bit classes, similarity bits ------
  uint64_t* entry_offsets =
      SectionAt<uint64_t>(&image, header, kAdjEntryOffsets);
  uint64_t* byte_offsets = SectionAt<uint64_t>(&image, header, kAdjByteOffsets);
  std::copy(layout.run_base.begin(), layout.run_base.end(),
            SectionAt<uint32_t>(&image, header, kAdjBase));
  std::copy(layout.run_width.begin(), layout.run_width.end(),
            SectionAt<uint8_t>(&image, header, kAdjWidth));
  unsigned char* adj_data = SectionAt<unsigned char>(&image, header, kAdjData);
  uint8_t* edge_class = SectionAt<uint8_t>(&image, header, kEdgeClass);
  unsigned char* edge_sim = SectionAt<unsigned char>(&image, header, kEdgeSim);
  uint64_t e = 0;
  uint64_t bytes = 0;
  for (size_t r = 0; r < n; ++r) {
    entry_offsets[r] = e;
    byte_offsets[r] = bytes;
    const uint32_t base = layout.run_base[r];
    const uint32_t width = layout.run_width[r];
    for (uint32_t k = 0; k < layout.run_length[r]; ++k, ++e) {
      const PairDecisionRecord& rec = (*records)[e];
      const uint32_t delta = std::max(rec.index1, rec.index2) - base;
      std::memcpy(adj_data + bytes, &delta, width);
      bytes += width;
      edge_class[e >> 2] = static_cast<uint8_t>(
          edge_class[e >> 2] |
          (static_cast<unsigned>(rec.match_class) & 3u) << ((e & 3u) * 2u));
      std::memcpy(edge_sim + e * 8, &rec.similarity, 8);
    }
  }
  entry_offsets[n] = e;
  byte_offsets[n] = bytes;

  // --- clusters, numbered in order of their smallest member ----------
  // kClusterOf first maps each root to its cluster (kUnnumbered until
  // the root's smallest member numbers it), then every record to its
  // root's cluster; a root's own entry is both.
  constexpr uint32_t kUnnumbered = std::numeric_limits<uint32_t>::max();
  uint32_t* cluster_of = SectionAt<uint32_t>(&image, header, kClusterOf);
  uint64_t* cluster_offsets =
      SectionAt<uint64_t>(&image, header, kClusterOffsets);
  uint32_t* cluster_members =
      SectionAt<uint32_t>(&image, header, kClusterMembers);
  std::fill(cluster_of, cluster_of + n, kUnnumbered);
  uint32_t clusters = 0;
  for (size_t r = 0; r < n; ++r) {
    uint32_t& root_cluster = cluster_of[layout.clusters.Find(r)];
    if (root_cluster == kUnnumbered) root_cluster = clusters++;
    cluster_of[r] = root_cluster;
    ++cluster_offsets[root_cluster + 1];
  }
  std::partial_sum(cluster_offsets, cluster_offsets + clusters + 1,
                   cluster_offsets);
  // Counting sort: each cluster's offset serves as its fill cursor and
  // ends at the next cluster's start, so one shift restores the starts.
  for (size_t r = 0; r < n; ++r) {
    cluster_members[cluster_offsets[cluster_of[r]]++] =
        static_cast<uint32_t>(r);
  }
  std::copy_backward(cluster_offsets, cluster_offsets + clusters,
                     cluster_offsets + clusters + 1);
  cluster_offsets[0] = 0;

  header.payload_digest =
      FnvBytes(kFnvOffset, image.data() + kIndexHeaderBytes,
               header.payload_bytes);
  EncodeIndexHeader(header, image.data());
  if (stats != nullptr) {
    stats->record_count = n;
    stats->pair_count = header.pair_count;
    stats->cluster_count = header.cluster_count;
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
