#include "fusion/conflict_resolution.h"

#include <cassert>

namespace pdd {

std::string ResolveValue(const Value& value, ConflictStrategy strategy) {
  if (value.is_null()) return "";
  const auto& alts = value.alternatives();
  switch (strategy) {
    case ConflictStrategy::kMostProbable:
      return value.MostProbableText();
    case ConflictStrategy::kFirst:
      return alts[0].text;
    case ConflictStrategy::kLongest: {
      const Alternative* best = &alts[0];
      for (const Alternative& a : alts) {
        if (a.text.size() > best->text.size()) best = &a;
      }
      return best->text;
    }
    case ConflictStrategy::kShortest: {
      const Alternative* best = &alts[0];
      for (const Alternative& a : alts) {
        if (a.text.size() < best->text.size()) best = &a;
      }
      return best->text;
    }
    case ConflictStrategy::kLexicographicMin: {
      const Alternative* best = &alts[0];
      for (const Alternative& a : alts) {
        if (a.text < best->text) best = &a;
      }
      return best->text;
    }
  }
  return "";
}

namespace {

std::string ConcatenatedResolution(const AltTuple& alt,
                                   ConflictStrategy strategy) {
  std::string out;
  for (const Value& v : alt.values) out += ResolveValue(v, strategy);
  return out;
}

}  // namespace

size_t ResolveAlternative(const XTuple& xtuple, ConflictStrategy strategy) {
  assert(xtuple.size() > 0);
  if (xtuple.size() == 1) return 0;
  switch (strategy) {
    case ConflictStrategy::kMostProbable: {
      size_t best = 0;
      for (size_t i = 1; i < xtuple.size(); ++i) {
        if (xtuple.alternative(i).prob >
            xtuple.alternative(best).prob + kProbEpsilon) {
          best = i;
        }
      }
      return best;
    }
    case ConflictStrategy::kFirst:
      return 0;
    case ConflictStrategy::kLongest:
    case ConflictStrategy::kShortest:
    case ConflictStrategy::kLexicographicMin: {
      size_t best = 0;
      std::string best_text =
          ConcatenatedResolution(xtuple.alternative(0), strategy);
      for (size_t i = 1; i < xtuple.size(); ++i) {
        std::string text =
            ConcatenatedResolution(xtuple.alternative(i), strategy);
        bool better = false;
        if (strategy == ConflictStrategy::kLongest) {
          better = text.size() > best_text.size();
        } else if (strategy == ConflictStrategy::kShortest) {
          better = text.size() < best_text.size();
        } else {
          better = text < best_text;
        }
        if (better) {
          best = i;
          best_text = std::move(text);
        }
      }
      return best;
    }
  }
  return 0;
}

}  // namespace pdd
