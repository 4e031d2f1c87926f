#include "ingest/standing_session.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/run_telemetry.h"
#include "pipeline/candidate_stream.h"

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
  exec.stage_timings = options_.stage_timings;
  exec.cache = options_.cache;
  // The sink streams LIVE decisions only; finish runs are ordinary
  // batch drains whose order the result itself carries.
  if (live) exec.decision_sink = options_.decision_sink;
  return exec;
}

Result<DetectionResult> StandingSession::Drain() {
  return StageExecutor(plan_, ExecutorOptions(/*live=*/true))
      .Execute(*stream_);
}

XRelation StandingSession::CanonicalRelation() {
  XRelation raw = stream_->SnapshotRaw();
  std::vector<XTuple> tuples(raw.xtuples().begin(), raw.xtuples().end());
  std::sort(tuples.begin(), tuples.end(),
            [](const XTuple& a, const XTuple& b) { return a.id() < b.id(); });
  XRelation canonical(raw.name(), raw.schema());
  canonical.Reserve(tuples.size());
  for (XTuple& tuple : tuples) {
    canonical.AppendUnchecked(std::move(tuple));
  }
  return canonical;
}

Result<DetectionResult> StandingSession::Finish() {
  // Tuples that never went through a live drain (queue closed with a
  // backlog, or no drain at all) still belong to the standing set.
  stream_->Pump();
  XRelation canonical = CanonicalRelation();
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<CandidateStream> batch,
                       MakeFullStream(*plan_, canonical));
  return StageExecutor(plan_, ExecutorOptions(/*live=*/false))
      .Execute(*batch);
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
