#include "serving.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "index/decision_index.h"
#include "index/index_builder.h"
#include "util/random.h"

namespace perfbench {

namespace {

using Query = IndexServer::Query;

// Distinct queries per mix; longer runs cycle through them.
constexpr size_t kDistinctQueries = 1 << 20;

// Keeps the lookup loop's answers observable so it is not optimized out.
volatile uint64_t g_answer_sink = 0;

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool PairLess(const pdd::PairDecisionRecord& rec, std::pair<size_t, size_t> key) {
  return rec.index1 != key.first ? rec.index1 < key.first
                                 : rec.index2 < key.second;
}

std::vector<Query> MakeQueries(const pdd::XRelation& rel,
                               const pdd::DetectionResult& result,
                               uint64_t seed) {
  pdd::Rng rng(seed);
  const size_t n = rel.size();
  std::vector<Query> queries(kDistinctQueries);
  for (size_t i = 0; i < queries.size(); ++i) {
    Query& q = queries[i];
    const size_t kind = i % 4;
    if (kind == 3 || n < 2) {
      q.cluster = true;
      q.a = static_cast<uint32_t>(rng.Index(std::max<size_t>(n, 1)));
    } else if (kind == 0 && !result.decisions.empty()) {
      const pdd::PairDecisionRecord& rec =
          result.decisions[rng.Index(result.decisions.size())];
      q.a = static_cast<uint32_t>(rec.index1);
      q.b = static_cast<uint32_t>(rec.index2);
    } else {
      q.a = static_cast<uint32_t>(rng.Index(n));
      const size_t other = rng.Index(n - 1);
      q.b = static_cast<uint32_t>(other >= q.a ? other + 1 : other);
    }
  }
  return queries;
}

}  // namespace

ServeTimes IndexServer::Serve(Trace* trace, const pdd::XRelation& rel,
                              const pdd::DetectionResult& result,
                              uint64_t seed, double seconds, Report* report) {
  ServeTimes times;
  pdd::IndexBuildStats stats;
  pdd::Result<pdd::DecisionIndex> index =
      pdd::Status::Internal("index not built");
  Timed(trace, "index.build", [&] {
    pdd::Result<std::string> image =
        pdd::BuildDecisionIndexImage(rel, result, &stats);
    index = image.ok() ? pdd::DecisionIndex::FromImage(std::move(image).value())
                       : pdd::Result<pdd::DecisionIndex>(image.status());
  });
  report->Expect(index.ok(), "index build and open: " + index.status().ToString());
  if (!index.ok()) return times;
  index_ = std::move(index).value();
  times.index_bytes_per_pair = stats.BytesPerPair();

  Timed(trace, "bench.query_gen", [&] { mix_ = MakeQueries(rel, result, seed); });

  uint64_t answers = 0;
  Timed(trace, "index.lookup", [&] {
    size_t next = 0;
    while (times.lookup_s < seconds) {
      const double start = Now();
      for (size_t k = 0; k < kQueryGroup; ++k) {
        const Query& q = mix_[next];
        next = next + 1 == mix_.size() ? 0 : next + 1;
        if (q.cluster) {
          std::optional<uint32_t> cluster = index_->ClusterOf(q.a);
          if (cluster.has_value()) answers += index_->Members(*cluster).size;
        } else {
          std::optional<pdd::IndexedDecision> d = index_->Lookup(q.a, q.b);
          if (d.has_value()) answers += static_cast<uint64_t>(d->match_class) + 1;
        }
      }
      const double group_s = Now() - start;
      times.lookup_s += group_s;
      times.group_ms.push_back(group_s * 1e3);
    }
  });
  g_answer_sink = g_answer_sink + answers;
  times.queries = times.group_ms.size() * kQueryGroup;
  return times;
}

void IndexServer::Check(const pdd::DetectionResult& result, size_t checked,
                        Report* report) const {
  if (!index_.has_value()) return;
  const pdd::DecisionIndex& index = *index_;
  const std::vector<Query>& queries = mix_;
  const auto& decisions = result.decisions;
  const bool canonical = std::is_sorted(
      decisions.begin(), decisions.end(),
      [](const pdd::PairDecisionRecord& x, const pdd::PairDecisionRecord& y) {
        return PairLess(x, {y.index1, y.index2});
      });
  report->Expect(canonical, "run decisions are in canonical pair order");
  if (!canonical) return;

  uint64_t wrong = 0;
  checked = std::min(checked, queries.size());
  for (size_t i = 0; i < checked; ++i) {
    const Query& q = queries[i];
    if (q.cluster) {
      std::optional<uint32_t> cluster = index.ClusterOf(q.a);
      bool member = false;
      if (cluster.has_value()) {
        for (uint32_t r : index.Members(*cluster)) member |= r == q.a;
      }
      wrong += member ? 0 : 1;
      continue;
    }
    const std::pair<size_t, size_t> key{std::min(q.a, q.b), std::max(q.a, q.b)};
    auto it = std::lower_bound(decisions.begin(), decisions.end(), key, PairLess);
    const bool decided = it != decisions.end() && it->index1 == key.first &&
                         it->index2 == key.second;
    std::optional<pdd::IndexedDecision> answer = index.Lookup(q.a, q.b);
    if (decided != answer.has_value()) {
      ++wrong;
    } else if (decided && (answer->match_class != it->match_class ||
                           Bits(answer->similarity) != Bits(it->similarity))) {
      ++wrong;
    }
  }
  report->Check(checked, wrong, "index answers equal the run's decisions");

  // Every duplicate decision joins its two records in one cluster.
  uint64_t split = 0;
  uint64_t matches = 0;
  const size_t stride = std::max<size_t>(decisions.size() / 4096, 1);
  for (size_t i = 0; i < decisions.size(); i += stride) {
    const pdd::PairDecisionRecord& rec = decisions[i];
    if (rec.match_class != pdd::MatchClass::kMatch) continue;
    ++matches;
    const uint32_t a = static_cast<uint32_t>(rec.index1);
    const uint32_t b = static_cast<uint32_t>(rec.index2);
    if (index.ClusterOf(a) != index.ClusterOf(b)) ++split;
  }
  report->Check(matches, split, "matched pairs share an index cluster");
}

}  // namespace perfbench
