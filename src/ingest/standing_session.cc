#include "ingest/standing_session.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/run_telemetry.h"
#include "pipeline/candidate_stream.h"
#include "util/checked_math.h"

namespace pdd {

Result<std::unique_ptr<StandingSession>> StandingSession::Make(
    std::shared_ptr<const DetectionPlan> plan, const XRelation* seed,
    Options options) {
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<IngestStream> stream,
                       IngestStream::Make(plan, seed, options.stream));
  return std::unique_ptr<StandingSession>(new StandingSession(
      std::move(plan), std::move(stream), std::move(options)));
}

StageExecutorOptions StandingSession::ExecutorOptions(bool live) const {
  StageExecutorOptions exec;
  exec.batch_size = options_.batch_size;
  exec.workers = options_.workers;
  exec.cache = options_.cache;
  // The sink streams LIVE decisions only; finish runs are ordinary
  // batch drains whose order the result itself carries.
  if (live) exec.decision_sink = options_.decision_sink;
  return exec;
}

namespace {

/// Where the live record of standing pair (a, b), a < b, base <= b,
/// sits: the stream emits (0, b) … (b − 1, b) for each b in turn.
size_t LivePosition(size_t a, size_t b, size_t base) {
  return TriangularPairCount(b) - TriangularPairCount(base) + a;
}

/// The standing index of each canonical tuple: the tuples' id order
/// (ids are unique by admission dedup, so the order is total).
std::vector<size_t> IdOrder(const XRelation& raw) {
  std::vector<size_t> order(raw.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&raw](size_t a, size_t b) {
    return raw.xtuple(a).id() < raw.xtuple(b).id();
  });
  return order;
}

XRelation Reordered(const XRelation& raw, const std::vector<size_t>& order) {
  XRelation canonical(raw.name(), raw.schema());
  canonical.Reserve(order.size());
  for (size_t index : order) canonical.AppendUnchecked(raw.xtuple(index));
  return canonical;
}

}  // namespace

Result<DetectionResult> StandingSession::Drain() {
  PDD_ASSIGN_OR_RETURN(
      DetectionResult live,
      StageExecutor(plan_, ExecutorOptions(/*live=*/true)).Execute(*stream_));
  // Finish() finds a live pair by position alone, so check here, once,
  // that every record sits where the stream's cursor put it.
  const size_t first = drained_;
  const size_t base = stream_->base();
  for (size_t k = 0; k < live.decisions.size(); ++k) {
    const PairDecisionRecord& rec = live.decisions[k];
    if (rec.index1 >= rec.index2 || rec.index2 < base ||
        LivePosition(rec.index1, rec.index2, base) != first + k) {
      return Status::Internal(
          "live record " + std::to_string(first + k) + " holds pair (" +
          std::to_string(rec.index1) + ", " + std::to_string(rec.index2) +
          ") out of its pull-order place");
    }
  }
  drained_ += live.decisions.size();
  // Once Finish() has taken the earlier decisions, later ones would not
  // start at position 0; Finish() then decides their pairs itself.
  if (live_.similarity.size() == first) {
    live_.similarity.reserve(drained_);
    live_.match_class.reserve(drained_);
    for (const PairDecisionRecord& rec : live.decisions) {
      live_.similarity.push_back(rec.similarity);
      live_.match_class.push_back(static_cast<uint8_t>(rec.match_class));
    }
  }
  return live;
}

XRelation StandingSession::CanonicalRelation() {
  XRelation raw = stream_->SnapshotRaw();
  return Reordered(raw, IdOrder(raw));
}

Result<DetectionResult> StandingSession::Finish() {
  // Finish() takes the live decisions and drops them on return, so the
  // serving phase after it does not hold them.
  LiveDecisions live;
  std::swap(live, live_);
  // Tuples that never went through a live drain (queue closed with a
  // backlog, or no drain at all) still belong to the standing set.
  stream_->Pump();
  // The id-sorted standing set, and each canonical tuple's standing
  // index; the raw snapshot goes before the run.
  std::vector<size_t> order;
  XRelation canonical = [&] {
    const XRelation raw = stream_->SnapshotRaw();
    order = IdOrder(raw);
    return Reordered(raw, order);
  }();
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<CandidateStream> batch,
                       MakeFullStream(*plan_, canonical));
  StageExecutorOptions exec = ExecutorOptions(/*live=*/false);
  if (!live.similarity.empty()) {
    exec.prior_decision = [&live, &order, base = stream_->base()](
                              size_t i, size_t j)
        -> std::optional<CachedPairDecision> {
      const size_t a = std::min(order[i], order[j]);
      const size_t b = std::max(order[i], order[j]);
      // Seed × seed pairs were never drained; pairs past the drained
      // prefix belong to tuples Pump()ed after the last drain.
      if (b < base) return std::nullopt;
      const size_t position = LivePosition(a, b, base);
      if (position >= live.similarity.size()) return std::nullopt;
      return CachedPairDecision{
          live.similarity[position],
          static_cast<MatchClass>(live.match_class[position])};
    };
  }
  return StageExecutor(plan_, exec).Execute(*batch);
}

void StandingSession::AddIngestStats(MetricsRegistry* metrics) const {
  const IngestQueueStats queue = stream_->queue().Stats();
  const IngestStream::AdmissionStats admission = stream_->admission_stats();
  metrics->SetCounter(kMetricIngestArrivals, queue.arrivals);
  metrics->SetCounter(kMetricIngestAdmitted, admission.admitted);
  metrics->SetCounter(kMetricIngestDropped, queue.dropped);
  metrics->SetCounter(kMetricIngestDuplicateIds, admission.duplicate_ids);
  metrics->SetCounter(kMetricIngestInvalid, admission.invalid);
  metrics->SetCounter(kMetricIngestRejectedCapacity,
                      admission.rejected_capacity);
  metrics->SetCounter(kMetricIngestQueueCapacity, queue.capacity);
  metrics->SetGauge(kGaugeIngestQueueDepth,
                    static_cast<double>(queue.depth));
  metrics->SetGauge(kGaugeIngestQueueHighWater,
                    static_cast<double>(queue.high_water));
}

}  // namespace pdd
