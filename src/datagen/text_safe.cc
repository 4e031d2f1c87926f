#include "datagen/text_safe.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace pdd {

namespace {

Value TextSafe(const Value& value) {
  std::vector<Alternative> kept;
  bool trimmed = false;
  for (const Alternative& alt : value.alternatives()) {
    std::string text(Trim(alt.text));
    trimmed |= text.size() != alt.text.size();
    if (text.empty()) continue;
    auto same = std::find_if(kept.begin(), kept.end(), [&](const auto& k) {
      return k.text == text && k.is_pattern == alt.is_pattern;
    });
    if (same != kept.end()) {
      same->prob += alt.prob;
    } else {
      kept.push_back({std::move(text), alt.prob, alt.is_pattern});
    }
  }
  if (!trimmed && kept.size() == value.size()) return value;
  return kept.empty() ? Value::Null() : Value::Unchecked(std::move(kept));
}

}  // namespace

XRelation TextSafeRelation(const XRelation& rel) {
  XRelation out(rel.name(), rel.schema());
  out.Reserve(rel.size());
  for (const XTuple& tuple : rel.xtuples()) {
    std::vector<AltTuple> alternatives = tuple.alternatives();
    for (AltTuple& alt : alternatives) {
      for (Value& value : alt.values) value = TextSafe(value);
    }
    out.AppendUnchecked(XTuple(tuple.id(), std::move(alternatives)));
  }
  return out;
}

}  // namespace pdd
