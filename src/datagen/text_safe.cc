#include "datagen/text_safe.h"

#include <utility>
#include <vector>

namespace pdd {

namespace {

Value DropEmpty(const Value& value) {
  std::vector<Alternative> kept;
  for (const Alternative& alt : value.alternatives()) {
    if (!alt.text.empty()) kept.push_back(alt);
  }
  if (kept.size() == value.size()) return value;
  return kept.empty() ? Value::Null() : Value::Unchecked(std::move(kept));
}

}  // namespace

XRelation DropEmptyAlternatives(const XRelation& rel) {
  XRelation out(rel.name(), rel.schema());
  out.Reserve(rel.size());
  for (const XTuple& tuple : rel.xtuples()) {
    std::vector<AltTuple> alternatives = tuple.alternatives();
    for (AltTuple& alt : alternatives) {
      for (Value& value : alt.values) value = DropEmpty(value);
    }
    out.AppendUnchecked(XTuple(tuple.id(), std::move(alternatives)));
  }
  return out;
}

}  // namespace pdd
