#include "ingest/ingest_stream.h"

#include <algorithm>
#include <utility>

#include "util/checked_math.h"

namespace pdd {

IngestStream::IngestStream(std::shared_ptr<const DetectionPlan> plan,
                           XRelation raw, XRelation standing,
                           std::shared_ptr<RelationArena> arena,
                           Options options)
    : plan_(std::move(plan)),
      max_admitted_(std::max<size_t>(options.max_admitted, 1)),
      queue_(options.queue_capacity),
      raw_(std::move(raw)),
      standing_(std::move(standing)),
      generation_(std::move(arena)) {
  set_arena(generation_);
  base_ = standing_.size();
  next_second_ = base_;
  // The reservation is the concurrency contract: appends within it
  // never reallocate, so already-published tuples stay readable while
  // later arrivals append (see the header).
  raw_.Reserve(base_ + max_admitted_);
  standing_.Reserve(base_ + max_admitted_);
  stamps_.reserve(max_admitted_);
  for (const XTuple& tuple : standing_.xtuples()) {
    seen_ids_.insert(tuple.id());
  }
}

Result<std::unique_ptr<IngestStream>> IngestStream::Make(
    std::shared_ptr<const DetectionPlan> plan, const XRelation* seed,
    Options options) {
  if (plan == nullptr) {
    return Status::InvalidArgument("ingest stream needs a plan");
  }
  XRelation raw = seed != nullptr ? *seed
                                  : XRelation("standing", plan->schema());
  if (!raw.schema().CompatibleWith(plan->schema())) {
    return Status::InvalidArgument(
        "seed relation schema incompatible with plan schema");
  }
  // Live decisions must match the batch path bit for bit, so arrivals
  // and the seed go through the same preparation step the batch stream
  // factories apply.
  XRelation standing = plan->config().preparation.has_value()
                           ? plan->config().preparation->Prepare(raw)
                           : raw;
  std::shared_ptr<RelationArena> arena = RelationArena::Build(standing);
  if (arena == nullptr) {
    return Status::OutOfRange("seed relation overflows the arena's 32-bit "
                              "columns");
  }
  return std::unique_ptr<IngestStream>(
      new IngestStream(std::move(plan), std::move(raw), std::move(standing),
                       std::move(arena), options));
}

size_t IngestStream::Admit(std::vector<IngestItem>* items) {
  if (items->empty()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  size_t admitted = 0;
  for (IngestItem& item : *items) {
    if (standing_.size() - base_ >= max_admitted_) {
      ++stats_.rejected_capacity;
      continue;
    }
    if (seen_ids_.count(item.tuple.id()) > 0) {
      ++stats_.duplicate_ids;
      continue;
    }
    // Arrivals are untrusted: a tuple that fails schema validation is a
    // counted drop, never a crash.
    if (!raw_.Check(item.tuple).ok()) {
      ++stats_.invalid;
      continue;
    }
    XTuple prepared = plan_->config().preparation.has_value()
                          ? plan_->config().preparation->PrepareXTuple(
                                item.tuple)
                          : item.tuple;
    // The arena takes the tuple before any pair can name it; a new
    // generation is published for the next pull (see the header).
    std::shared_ptr<RelationArena> arena =
        RelationArena::Append(generation_, prepared, standing_.schema());
    if (arena == nullptr) {
      ++stats_.rejected_capacity;
      continue;
    }
    if (arena != generation_) {
      generation_ = arena;
      set_arena(std::move(arena));
    }
    seen_ids_.insert(item.tuple.id());
    raw_.AppendUnchecked(std::move(item.tuple));
    standing_.AppendUnchecked(std::move(prepared));
    stamps_.push_back(item.stamp);
    ++stats_.admitted;
    ++admitted;
  }
  return admitted;
}

size_t IngestStream::NextBatch(size_t max_batch,
                               std::vector<CandidatePair>* out) {
  out->clear();
  if (max_batch == 0) return 0;
  std::vector<IngestItem> popped;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t size = standing_.size();
      // Lazy crossing-pair emission: (0,j) … (j-1,j) for each admitted
      // tuple j in admission order — the O(1)-state generalization of
      // the incremental crossing filter (every emitted pair has
      // second >= base_ because the cursor starts there).
      while (out->size() < max_batch && next_second_ < size) {
        if (next_first_ == next_second_) {
          // Tuple j's pairs are done (j == 0 has none): next tuple.
          ++next_second_;
          next_first_ = 0;
          continue;
        }
        out->push_back({next_first_, next_second_});
        ++next_first_;
      }
    }
    if (out->size() >= max_batch) return out->size();
    // Cursor caught up with the standing relation: admit whatever the
    // queue holds right now. Nothing there means idle-or-closed — the
    // executor settles which via AwaitMore().
    if (queue_.PopBatch(max_batch, &popped) == 0) return out->size();
    Admit(&popped);
  }
}

size_t IngestStream::Pump() {
  std::vector<IngestItem> popped;
  size_t total = 0;
  while (queue_.PopBatch(256, &popped) > 0) {
    total += Admit(&popped);
  }
  return total;
}

size_t IngestStream::total_pairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t admitted = standing_.size() - base_;
  return SaturatingAdd(SaturatingMul(base_, admitted),
                       TriangularPairCount(admitted));
}

XRelation IngestStream::SnapshotRaw() const {
  std::lock_guard<std::mutex> lock(mu_);
  return raw_;
}

IngestStream::AdmissionStats IngestStream::admission_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace pdd
