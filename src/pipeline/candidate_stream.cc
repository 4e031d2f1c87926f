#include "pipeline/candidate_stream.h"

#include <algorithm>
#include <utility>

#include "util/checked_math.h"

namespace pdd {

namespace {

/// The body every scenario factory shares. Checks the scenario's
/// relation (`owned` when the factory built one, else `borrowed`)
/// against the plan's schema, applies the configured preparation step
/// (Section III-A) into an owned copy and opens the stream over the
/// plan's pair generator. The executor builds the stream's arena.
Result<std::unique_ptr<CandidateStream>> MakeScenarioStream(
    const DetectionPlan& plan, std::string name,
    std::optional<XRelation> owned, const XRelation* borrowed,
    size_t total_pairs, size_t min_second) {
  const XRelation& input = owned.has_value() ? *owned : *borrowed;
  if (!input.schema().CompatibleWith(plan.schema())) {
    return Status::InvalidArgument(
        "relation schema incompatible with detector schema");
  }
  if (plan.config().preparation.has_value()) {
    owned = plan.config().preparation->Prepare(input);
  }
  return GeneratorCandidateStream::Make(std::move(name), std::move(owned),
                                        borrowed, plan.MakePairGenerator(),
                                        total_pairs, min_second);
}

}  // namespace

size_t MaterializedCandidateStream::NextBatch(
    size_t max_batch, std::vector<CandidatePair>* out) {
  out->clear();
  size_t count = std::min(max_batch, candidates_.size() - next_);
  out->insert(out->end(), candidates_.begin() + next_,
              candidates_.begin() + next_ + count);
  next_ += count;
  return count;
}

GeneratorCandidateStream::GeneratorCandidateStream(
    std::string name, std::optional<XRelation> owned,
    const XRelation* borrowed, std::unique_ptr<PairGenerator> generator,
    size_t total_pairs)
    : name_(std::move(name)),
      owned_(std::move(owned)),
      rel_(owned_.has_value() ? &*owned_ : borrowed),
      generator_(std::move(generator)),
      total_pairs_(total_pairs) {}

Result<std::unique_ptr<CandidateStream>> GeneratorCandidateStream::Make(
    std::string name, std::optional<XRelation> owned,
    const XRelation* borrowed, std::unique_ptr<PairGenerator> generator,
    size_t total_pairs, size_t min_second) {
  std::unique_ptr<GeneratorCandidateStream> stream(
      new GeneratorCandidateStream(std::move(name), std::move(owned),
                                   borrowed, std::move(generator),
                                   total_pairs));
  PDD_ASSIGN_OR_RETURN(stream->source_,
                       stream->generator_->Stream(*stream->rel_));
  if (min_second > 0) {
    // Candidates are canonicalized with first < second, so a pair
    // crosses into the additions iff its second endpoint does.
    stream->source_ = std::make_unique<FilteringPairSource>(
        std::move(stream->source_), [min_second](const CandidatePair& pair) {
          return pair.second >= min_second;
        });
  }
  return std::unique_ptr<CandidateStream>(std::move(stream));
}

Result<std::unique_ptr<CandidateStream>> MakeFullStream(
    const DetectionPlan& plan, const XRelation& rel) {
  return MakeScenarioStream(plan, "full", std::nullopt, &rel,
                            TriangularPairCount(rel.size()),
                            /*min_second=*/0);
}

Result<std::unique_ptr<CandidateStream>> MakeUnionStream(
    const DetectionPlan& plan, const XRelation& a, const XRelation& b) {
  PDD_ASSIGN_OR_RETURN(XRelation merged,
                       XRelation::Union(a, b, a.name() + "+" + b.name()));
  size_t total = TriangularPairCount(merged.size());
  return MakeScenarioStream(plan, "union", std::move(merged), nullptr, total,
                            /*min_second=*/0);
}

Result<std::unique_ptr<CandidateStream>> MakeIncrementalStream(
    const DetectionPlan& plan, const XRelation& existing,
    const XRelation& additions) {
  PDD_ASSIGN_OR_RETURN(
      XRelation merged,
      XRelation::Union(existing, additions,
                       existing.name() + "+" + additions.name()));
  const size_t base_count = existing.size();
  const size_t new_count = additions.size();
  // Only pairs touching a new tuple are (re-)examined; intra-existing
  // pairs were already decided in a previous run.
  size_t total = SaturatingAdd(SaturatingMul(base_count, new_count),
                               TriangularPairCount(new_count));
  return MakeScenarioStream(plan, "incremental", std::move(merged), nullptr,
                            total, /*min_second=*/base_count);
}

}  // namespace pdd
