#include "pdb/text_format.h"

#include <string>

#include "util/file_util.h"
#include "util/string_util.h"

namespace pdd {

namespace {

constexpr std::string_view kStructural = ";,:{}|";

bool HasStructuralChar(std::string_view text) {
  return text.find_first_of(kStructural) != std::string_view::npos;
}

Status ValidateText(std::string_view text) {
  if (HasStructuralChar(text)) {
    return Status::InvalidArgument("value text '" + std::string(text) +
                                   "' contains structural characters");
  }
  return Status::OK();
}

std::string SerializeAlternativeEntry(const Alternative& alt) {
  std::string text = alt.text;
  if (alt.is_pattern) text += "*";
  return text;
}

}  // namespace

std::string SerializeValue(const Value& value) {
  if (value.is_null()) return "_";
  if (value.is_certain()) {
    return SerializeAlternativeEntry(value.alternatives()[0]);
  }
  std::string out = "{";
  for (size_t i = 0; i < value.alternatives().size(); ++i) {
    if (i > 0) out += ", ";
    const Alternative& alt = value.alternatives()[i];
    out += SerializeAlternativeEntry(alt) + ":" + FormatDouble(alt.prob, 9);
  }
  return out + "}";
}

Result<Value> ParseValue(std::string_view text) {
  text = Trim(text);
  if (text.empty()) {
    return Status::ParseError("empty value");
  }
  if (text == "_") return Value::Null();
  if (text.front() == '{') {
    if (text.back() != '}') {
      return Status::ParseError("unterminated distribution '" +
                                std::string(text) + "'");
    }
    std::string_view body = text.substr(1, text.size() - 2);
    std::vector<Alternative> alternatives;
    for (const std::string& entry : Split(body, ',')) {
      std::string_view trimmed = Trim(entry);
      if (trimmed.empty()) {
        return Status::ParseError("empty distribution entry");
      }
      size_t colon = trimmed.rfind(':');
      if (colon == std::string_view::npos) {
        return Status::ParseError("distribution entry '" +
                                  std::string(trimmed) + "' lacks ':prob'");
      }
      std::string_view key = Trim(trimmed.substr(0, colon));
      double prob = 0.0;
      if (!ParseDouble(trimmed.substr(colon + 1), &prob)) {
        return Status::ParseError("malformed probability in '" +
                                  std::string(trimmed) + "'");
      }
      bool is_pattern = false;
      if (!key.empty() && key.back() == '*') {
        is_pattern = true;
        key.remove_suffix(1);
      }
      if (key.empty()) {
        return Status::ParseError("empty alternative text");
      }
      alternatives.push_back({std::string(key), prob, is_pattern});
    }
    return Value::Make(std::move(alternatives));
  }
  // Certain value or pattern.
  bool is_pattern = text.back() == '*';
  if (is_pattern) text.remove_suffix(1);
  PDD_RETURN_IF_ERROR(ValidateText(text));
  if (text.empty()) {
    return Status::ParseError("empty value text");
  }
  if (is_pattern) return Value::Pattern(std::string(text));
  return Value::Certain(std::string(text));
}

std::string SerializeXRelation(const XRelation& rel) {
  std::string out = "relation " + rel.name() + "\n";
  out += "schema ";
  for (size_t i = 0; i < rel.schema().arity(); ++i) {
    if (i > 0) out += ", ";
    const AttributeDef& attr = rel.schema().attribute(i);
    out += attr.name;
    out += attr.type == ValueType::kNumeric ? ":numeric" : ":string";
  }
  out += "\n";
  for (const AttributeDef& attr : rel.schema().attributes()) {
    if (!attr.vocabulary.empty()) {
      out += "vocab " + attr.name + " " + Join(attr.vocabulary, ", ") + "\n";
    }
  }
  for (const XTuple& t : rel.xtuples()) {
    out += "tuple " + t.id() + "\n";
    for (const AltTuple& alt : t.alternatives()) {
      out += "alt " + FormatDouble(alt.prob, 9) + " | ";
      for (size_t i = 0; i < alt.values.size(); ++i) {
        if (i > 0) out += " ; ";
        out += SerializeValue(alt.values[i]);
      }
      out += "\n";
    }
  }
  return out;
}

namespace {

Status LineError(size_t line_no, const std::string& message) {
  return Status::ParseError("line " + std::to_string(line_no) + ": " +
                            message);
}

}  // namespace

Result<XRelation> ParseXRelation(std::string_view text) {
  std::string name;
  Schema schema;
  bool have_schema = false;
  std::vector<AttributeDef> attributes;
  XRelation rel;
  bool rel_initialized = false;
  std::string pending_id;
  std::vector<AltTuple> pending_alternatives;

  auto flush_tuple = [&]() -> Status {
    if (pending_id.empty()) return Status::OK();
    PDD_RETURN_IF_ERROR(
        rel.Append(XTuple(pending_id, std::move(pending_alternatives))));
    pending_id.clear();
    pending_alternatives.clear();
    return Status::OK();
  };
  auto ensure_relation = [&]() -> Status {
    if (rel_initialized) return Status::OK();
    if (name.empty()) {
      return Status::ParseError("missing 'relation <name>' header");
    }
    if (!have_schema) {
      return Status::ParseError("missing 'schema ...' line");
    }
    PDD_ASSIGN_OR_RETURN(schema, Schema::Make(attributes));
    rel = XRelation(name, schema);
    rel_initialized = true;
    return Status::OK();
  };

  size_t line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    if (StartsWith(line, "relation ")) {
      name = std::string(Trim(line.substr(9)));
      if (name.empty()) return LineError(line_no, "empty relation name");
    } else if (StartsWith(line, "schema ")) {
      for (const std::string& piece : Split(line.substr(7), ',')) {
        std::string_view field = Trim(piece);
        size_t colon = field.find(':');
        if (colon == std::string_view::npos) {
          return LineError(line_no, "schema field '" + std::string(field) +
                                        "' lacks ':type'");
        }
        AttributeDef attr;
        attr.name = std::string(Trim(field.substr(0, colon)));
        std::string_view type = Trim(field.substr(colon + 1));
        if (type == "string") {
          attr.type = ValueType::kString;
        } else if (type == "numeric") {
          attr.type = ValueType::kNumeric;
        } else {
          return LineError(line_no,
                           "unknown type '" + std::string(type) + "'");
        }
        attributes.push_back(std::move(attr));
      }
      have_schema = true;
    } else if (StartsWith(line, "vocab ")) {
      if (rel_initialized) {
        return LineError(line_no, "'vocab' must precede the first tuple");
      }
      std::string_view rest = Trim(line.substr(6));
      size_t space = rest.find(' ');
      if (space == std::string_view::npos) {
        return LineError(line_no, "vocab needs '<attr> <words>'");
      }
      std::string attr_name(Trim(rest.substr(0, space)));
      bool found = false;
      for (AttributeDef& attr : attributes) {
        if (attr.name == attr_name) {
          for (const std::string& word : Split(rest.substr(space + 1), ',')) {
            attr.vocabulary.emplace_back(Trim(word));
          }
          found = true;
          break;
        }
      }
      if (!found) {
        return LineError(line_no, "vocab references unknown attribute '" +
                                      attr_name + "'");
      }
    } else if (StartsWith(line, "tuple ")) {
      PDD_RETURN_IF_ERROR(ensure_relation());
      Status flushed = flush_tuple();
      if (!flushed.ok()) return LineError(line_no, flushed.message());
      pending_id = std::string(Trim(line.substr(6)));
      if (pending_id.empty()) return LineError(line_no, "empty tuple id");
    } else if (StartsWith(line, "alt ")) {
      if (pending_id.empty()) {
        return LineError(line_no, "'alt' outside of a tuple");
      }
      std::string_view rest = line.substr(4);
      size_t bar = rest.find('|');
      if (bar == std::string_view::npos) {
        return LineError(line_no, "alt needs '<prob> | <values>'");
      }
      AltTuple alt;
      if (!ParseDouble(rest.substr(0, bar), &alt.prob)) {
        return LineError(line_no, "malformed alternative probability");
      }
      for (const std::string& piece : Split(rest.substr(bar + 1), ';')) {
        Result<Value> value = ParseValue(piece);
        if (!value.ok()) return LineError(line_no, value.status().message());
        alt.values.push_back(std::move(value).value());
      }
      pending_alternatives.push_back(std::move(alt));
    } else {
      return LineError(line_no, "unrecognized line '" + std::string(line) +
                                    "'");
    }
  }
  PDD_RETURN_IF_ERROR(ensure_relation());
  Status flushed = flush_tuple();
  if (!flushed.ok()) return Status::ParseError(flushed.message());
  return rel;
}

Result<XRelation> LoadXRelation(const std::string& path) {
  PDD_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseXRelation(text);
}

}  // namespace pdd
