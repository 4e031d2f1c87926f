#include "inputs.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "datagen/person_generator.h"
#include "pdb/text_format.h"

namespace perfbench {

namespace {

using pdd::Alternative;
using pdd::AltTuple;
using pdd::Value;
using pdd::XRelation;
using pdd::XTuple;

std::string MapText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (std::string_view(";,:{}|").find(c) == std::string_view::npos) {
      out.push_back(c);
    }
  }
  const size_t begin = out.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const size_t end = out.find_last_not_of(" \t\r\n");
  return out.substr(begin, end - begin + 1);
}

Value MapValue(const Value& value, size_t* emptied) {
  std::vector<Alternative> mapped;
  for (const Alternative& alt : value.alternatives()) {
    Alternative next = alt;
    next.text = MapText(alt.text);
    if (next.text.empty()) {
      ++*emptied;
      continue;
    }
    bool merged = false;
    for (Alternative& kept : mapped) {
      if (kept.text == next.text && kept.is_pattern == next.is_pattern) {
        kept.prob += next.prob;
        merged = true;
        break;
      }
    }
    if (!merged) mapped.push_back(std::move(next));
  }
  // Validity is checked by the parse-back in MakePersonInput.
  return mapped.empty() ? Value::Null() : Value::Unchecked(std::move(mapped));
}

}  // namespace

bool MakePersonInput(size_t entities, uint64_t seed, size_t max_tuples,
                     PersonInput* input, std::string* error) {
  // The settings of `pddgen person` (tools/pddgen.cc defaults).
  pdd::PersonGenOptions options;
  options.num_entities = entities;
  options.duplicate_rate = 0.6;
  options.errors.char_error_rate = 0.04;
  options.uncertainty.value_uncertainty_prob = 0.3;
  options.uncertainty.xtuple_alternative_prob = 0.15;
  options.seed = seed;
  pdd::GeneratedData data = pdd::GeneratePersons(options);

  const size_t keep = max_tuples == 0
                          ? data.relation.size()
                          : std::min(max_tuples, data.relation.size());
  XRelation mapped(data.relation.name(), data.relation.schema());
  mapped.Reserve(keep);
  size_t emptied = 0;
  for (size_t i = 0; i < keep; ++i) {
    const XTuple& tuple = data.relation.xtuple(i);
    std::vector<AltTuple> alternatives;
    for (const AltTuple& alt : tuple.alternatives()) {
      AltTuple next;
      next.prob = alt.prob;
      for (const Value& value : alt.values) {
        next.values.push_back(MapValue(value, &emptied));
      }
      alternatives.push_back(std::move(next));
    }
    pdd::Status appended =
        mapped.Append(XTuple(tuple.id(), std::move(alternatives)));
    if (!appended.ok()) {
      *error = "mapped tuple " + tuple.id() + ": " + appended.ToString();
      return false;
    }
  }

  std::string text = pdd::SerializeXRelation(mapped);
  pdd::Result<XRelation> parsed = pdd::ParseXRelation(text);
  if (!parsed.ok()) {
    *error = "generated relation does not parse: " + parsed.status().ToString();
    return false;
  }
  if (parsed->size() != mapped.size() ||
      pdd::SerializeXRelation(*parsed) != text) {
    *error = "generated relation does not round-trip through the parser";
    return false;
  }

  input->tuples = parsed->size();
  input->alternatives = parsed->TotalAlternatives();
  input->pairs = static_cast<uint64_t>(input->tuples) *
                 (input->tuples > 0 ? input->tuples - 1 : 0) / 2;
  input->emptied_alternatives = emptied;
  input->relation = std::move(parsed).value();
  input->gold = std::move(data.gold);
  input->text = std::move(text);
  return true;
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return out.good();
}

bool ReadTextFile(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

}  // namespace perfbench
