#include "plan/plan_spec.h"

#include "util/fnv.h"
#include "util/string_util.h"

namespace pdd {

namespace {

std::string EscapeValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    char c = value[i];
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == ' ' && (i == 0 || i + 1 == value.size())) {
      // Edge spaces would be lost to the parser's Trim; escaping the
      // outermost one preserves any run of them.
      out += "\\s";
    } else {
      out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '\\') {
      out += value[i];
      continue;
    }
    if (i + 1 >= value.size()) {
      return Status::ParseError("dangling escape in value '" +
                                std::string(value) + "'");
    }
    char next = value[++i];
    if (next == '\\') {
      out += '\\';
    } else if (next == 'n') {
      out += '\n';
    } else if (next == 't') {
      out += '\t';
    } else if (next == 'r') {
      out += '\r';
    } else if (next == 's') {
      out += ' ';
    } else {
      return Status::ParseError(std::string("unknown escape '\\") + next +
                                "' in value '" + std::string(value) + "'");
    }
  }
  return out;
}

/// Splits "key=value" (or "key = value") at the first '=', trims both
/// sides, validates the key and unescapes the value.
Result<std::pair<std::string, std::string>> ParseAssignment(
    std::string_view line) {
  size_t eq = line.find('=');
  if (eq == std::string_view::npos) {
    return Status::ParseError("expected 'key = value', got '" +
                              std::string(line) + "'");
  }
  std::string_view key = Trim(line.substr(0, eq));
  std::string_view raw = Trim(line.substr(eq + 1));
  if (!IsValidParamKey(key)) {
    return Status::ParseError("invalid plan key '" + std::string(key) + "'");
  }
  PDD_ASSIGN_OR_RETURN(std::string value, UnescapeValue(raw));
  return std::make_pair(std::string(key), std::move(value));
}

}  // namespace

Result<PlanSpec> PlanSpec::Parse(std::string_view text) {
  PlanSpec spec;
  size_t line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    auto parsed = ParseAssignment(line);
    if (!parsed.ok()) {
      return Status::ParseError("line " + std::to_string(line_number) + ": " +
                                parsed.status().message());
    }
    auto [key, value] = std::move(parsed).value();
    if (spec.params_.Has(key)) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": duplicate key '" + key + "'");
    }
    spec.params_.Set(std::move(key), std::move(value));
  }
  return spec;
}

Status PlanSpec::SetAssignment(std::string_view assignment) {
  auto parsed = ParseAssignment(assignment);
  if (!parsed.ok()) return parsed.status();
  auto [key, value] = std::move(parsed).value();
  params_.Set(std::move(key), std::move(value));
  return Status::OK();
}

std::string PlanSpec::ToText() const {
  std::string out;
  for (const auto& [key, value] : params_.entries()) {
    out += key;
    out += " = ";
    out += EscapeValue(value);
    out += '\n';
  }
  return out;
}

uint64_t PlanSpec::Fingerprint() const {
  const std::string text = ToText();
  return FnvBytes(kFnvOffset, text.data(), text.size());
}

std::string FingerprintHex(uint64_t fingerprint) {
  return HexU64(fingerprint);
}

}  // namespace pdd
