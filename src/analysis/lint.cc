#include "analysis/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <sstream>

#include "util/file_util.h"

namespace pdd {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

/// The deterministic core: stages between candidate generation and the
/// report, where any hidden entropy breaks the serial ≡ pooled ≡
/// cached ≡ streamed byte-identity gates. src/index/ is in: a
/// decision-index image must be a pure function of (record ids,
/// report content) or byte-identical serving breaks. src/ingest/ is
/// in: the standing drain promises a report byte-identical to the
/// batch run for any arrival order, so its queue/admission/session
/// code must stay clock- and entropy-free (arrival stamps are opaque
/// caller-provided values).
bool InDeterministicCore(std::string_view path) {
  return StartsWith(path, "src/pipeline/") ||
         StartsWith(path, "src/decision/") ||
         StartsWith(path, "src/cache/") ||
         StartsWith(path, "src/columnar/") ||
         StartsWith(path, "src/index/") ||
         StartsWith(path, "src/ingest/");
}

bool InLibraryOrTools(std::string_view path) {
  return StartsWith(path, "src/") || StartsWith(path, "tools/");
}

bool InDecisionCode(std::string_view path) {
  return StartsWith(path, "src/decision/");
}

// ------------------------------------------------------------------
// Preprocessing: strip comments and string/char literals (replaced by
// spaces so offsets and line numbers survive), collect per-line
// `pddlint: allow(rule[,rule])` suppressions from the comment text.

struct PreparedSource {
  /// Content with comments and literal bodies blanked to spaces.
  std::string code;
  /// line (1-based) → rules suppressed on that line.
  std::map<size_t, std::set<std::string>> line_allows;
};

void RecordAllowMarkers(std::string_view comment, size_t line,
                        PreparedSource* out) {
  static constexpr std::string_view kMarker = "pddlint: allow(";
  size_t pos = comment.find(kMarker);
  while (pos != std::string_view::npos) {
    size_t start = pos + kMarker.size();
    size_t end = comment.find(')', start);
    if (end == std::string_view::npos) break;
    std::stringstream rules(std::string(comment.substr(start, end - start)));
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      size_t first = rule.find_first_not_of(" \t");
      size_t last = rule.find_last_not_of(" \t");
      if (first != std::string::npos) {
        out->line_allows[line].insert(rule.substr(first, last - first + 1));
      }
    }
    pos = comment.find(kMarker, end);
  }
}

PreparedSource PrepareSource(std::string_view content) {
  PreparedSource out;
  out.code.assign(content.size(), ' ');
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string comment_text;       // accumulates the current comment
  size_t comment_line = 0;        // line where the current comment began
  std::string raw_delimiter;      // )delim" terminator of a raw string
  size_t line = 1;
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_text.clear();
          comment_line = line;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_text.clear();
          comment_line = line;
          ++i;
        } else if (c == '"') {
          // Raw string literal: R"delim( ... )delim".
          if (i > 0 && content[i - 1] == 'R' &&
              (i == 1 || !IsIdentChar(content[i - 2]))) {
            size_t open = content.find('(', i + 1);
            if (open != std::string_view::npos) {
              raw_delimiter = ")" +
                  std::string(content.substr(i + 1, open - i - 1)) + "\"";
              state = State::kRawString;
              out.code[i] = '"';
              break;
            }
          }
          state = State::kString;
          out.code[i] = '"';
        } else if (c == '\'') {
          state = State::kChar;
          out.code[i] = '\'';
        } else {
          out.code[i] = c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          RecordAllowMarkers(comment_text, comment_line, &out);
          state = State::kCode;
        } else {
          comment_text.push_back(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          RecordAllowMarkers(comment_text, comment_line, &out);
          state = State::kCode;
          ++i;
        } else {
          comment_text.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
          if (i < content.size() && content[i] == '\n') ++line;
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == ')' &&
            content.compare(i, raw_delimiter.size(), raw_delimiter) == 0) {
          i += raw_delimiter.size() - 1;
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
    }
    if (c == '\n') {
      out.code[i] = '\n';
      ++line;
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    RecordAllowMarkers(comment_text, comment_line, &out);
  }
  return out;
}

size_t LineOfOffset(std::string_view code, size_t offset) {
  return 1 + static_cast<size_t>(
                 std::count(code.begin(),
                            code.begin() + static_cast<ptrdiff_t>(offset),
                            '\n'));
}

// ------------------------------------------------------------------
// Shared scanning helpers.

/// Offset of the next `name` with identifier boundaries on both sides,
/// or npos.
size_t FindWord(std::string_view code, std::string_view name, size_t from) {
  size_t pos = code.find(name, from);
  while (pos != std::string_view::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    size_t end = pos + name.size();
    bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) return pos;
    pos = code.find(name, pos + 1);
  }
  return std::string_view::npos;
}

/// First non-space offset at or after `pos`, or npos.
size_t SkipSpaces(std::string_view code, size_t pos) {
  while (pos < code.size() &&
         (code[pos] == ' ' || code[pos] == '\t' || code[pos] == '\n')) {
    ++pos;
  }
  return pos < code.size() ? pos : std::string_view::npos;
}

struct RuleContext {
  std::string_view rel_path;
  const PreparedSource* source = nullptr;
  const LintOptions* options = nullptr;
  std::vector<LintFinding>* findings = nullptr;
};

bool RuleAllowedForFile(const RuleContext& ctx, const std::string& rule) {
  auto it = ctx.options->allowlist.find(rule);
  return it != ctx.options->allowlist.end() &&
         it->second.count(std::string(ctx.rel_path)) > 0;
}

void Report(const RuleContext& ctx, size_t offset, const std::string& rule,
            std::string message) {
  size_t line = LineOfOffset(ctx.source->code, offset);
  // A marker suppresses its own line and the next, so a comment-only
  // `// pddlint: allow(rule)` line covers the statement below it.
  for (size_t marker_line : {line, line - 1}) {
    auto allows = ctx.source->line_allows.find(marker_line);
    if (allows != ctx.source->line_allows.end() &&
        allows->second.count(rule) > 0) {
      return;
    }
  }
  ctx.findings->push_back(LintFinding{std::string(ctx.rel_path), line, rule,
                                      std::move(message)});
}

// ------------------------------------------------------------------
// Rule: unordered-iteration.

/// Names of variables declared with an unordered container type in
/// this file. Heuristic: after `unordered_map<...>` / `unordered_set
/// <...>` (angle brackets matched), skip `&`, `*`, `const` and take
/// the next identifier as the declared name.
std::vector<std::string> CollectUnorderedVariables(std::string_view code) {
  std::vector<std::string> names;
  for (std::string_view container : {"unordered_map", "unordered_set",
                                     "unordered_multimap",
                                     "unordered_multiset"}) {
    size_t pos = FindWord(code, container, 0);
    while (pos != std::string_view::npos) {
      size_t cursor = SkipSpaces(code, pos + container.size());
      if (cursor != std::string_view::npos && code[cursor] == '<') {
        int depth = 0;
        while (cursor < code.size()) {
          if (code[cursor] == '<') ++depth;
          if (code[cursor] == '>') {
            --depth;
            if (depth == 0) break;
          }
          ++cursor;
        }
        // Past the template arguments: skip qualifiers to the name.
        ++cursor;
        while (true) {
          cursor = SkipSpaces(code, cursor);
          if (cursor == std::string_view::npos) break;
          if (code[cursor] == '&' || code[cursor] == '*') {
            ++cursor;
            continue;
          }
          if (code.compare(cursor, 5, "const") == 0 &&
              (cursor + 5 >= code.size() || !IsIdentChar(code[cursor + 5]))) {
            cursor += 5;
            continue;
          }
          break;
        }
        if (cursor != std::string_view::npos && IsIdentChar(code[cursor]) &&
            std::isdigit(static_cast<unsigned char>(code[cursor])) == 0) {
          size_t end = cursor;
          while (end < code.size() && IsIdentChar(code[end])) ++end;
          names.emplace_back(code.substr(cursor, end - cursor));
        }
      }
      pos = FindWord(code, container, pos + 1);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void CheckUnorderedIteration(const RuleContext& ctx) {
  static const std::string kRule = "unordered-iteration";
  if (!InLibraryOrTools(ctx.rel_path)) return;
  if (RuleAllowedForFile(ctx, kRule)) return;
  std::string_view code = ctx.source->code;
  std::vector<std::string> unordered = CollectUnorderedVariables(code);

  // Range-for whose range expression is an unordered variable (or an
  // unordered temporary): `for (decl : range)`.
  size_t pos = FindWord(code, "for", 0);
  while (pos != std::string_view::npos) {
    size_t open = SkipSpaces(code, pos + 3);
    if (open != std::string_view::npos && code[open] == '(') {
      int depth = 0;
      size_t colon = std::string_view::npos;
      size_t close = std::string_view::npos;
      for (size_t i = open; i < code.size(); ++i) {
        char c = code[i];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') {
          --depth;
          if (depth == 0) {
            close = i;
            break;
          }
        }
        if (c == ':' && depth == 1 && colon == std::string_view::npos &&
            (i == 0 || code[i - 1] != ':') &&
            (i + 1 >= code.size() || code[i + 1] != ':')) {
          colon = i;
        }
        if (c == ';' && depth == 1) break;  // classic three-clause for
      }
      if (colon != std::string_view::npos && close != std::string_view::npos) {
        size_t start = SkipSpaces(code, colon + 1);
        size_t end = close;
        while (end > start && (code[end - 1] == ' ' || code[end - 1] == '\n' ||
                               code[end - 1] == '\t')) {
          --end;
        }
        std::string range(code.substr(start, end - start));
        bool unordered_range =
            range.find("unordered_") != std::string::npos ||
            std::find(unordered.begin(), unordered.end(), range) !=
                unordered.end();
        if (unordered_range) {
          Report(ctx, pos, kRule,
                 "range-for over unordered container '" + range +
                     "': bucket order is nondeterministic — iterate a "
                     "sorted view or canonicalize afterwards (allowlist "
                     "audited sites)");
        }
      }
    }
    pos = FindWord(code, "for", pos + 1);
  }

  // Explicit iterator loops: `var.begin()` / `var.cbegin()` etc.
  for (const std::string& name : unordered) {
    for (std::string_view method :
         {".begin(", ".cbegin(", ".rbegin(", ".crbegin("}) {
      std::string pattern = name + std::string(method);
      size_t at = code.find(pattern);
      while (at != std::string_view::npos) {
        if (at == 0 || !IsIdentChar(code[at - 1])) {
          Report(ctx, at, kRule,
                 "iterator over unordered container '" + name +
                     "': bucket order is nondeterministic");
        }
        at = code.find(pattern, at + 1);
      }
    }
  }
}

// ------------------------------------------------------------------
// Rule: nondeterminism.

void CheckNondeterminism(const RuleContext& ctx) {
  static const std::string kRule = "nondeterminism";
  if (!InDeterministicCore(ctx.rel_path)) return;
  if (RuleAllowedForFile(ctx, kRule)) return;
  std::string_view code = ctx.source->code;
  struct Banned {
    std::string_view name;
    bool call_only;  // require '(' right after the name
    std::string_view why;
  };
  static constexpr Banned kBanned[] = {
      {"rand", true, "unseeded global RNG"},
      {"srand", true, "global RNG seeding"},
      {"rand_r", true, "hidden per-call entropy"},
      {"time", true, "wall-clock value"},
      {"clock", true, "processor-time value"},
      {"getenv", false, "environment-dependent behavior"},
      {"random_device", false, "hardware entropy source"},
  };
  for (const Banned& banned : kBanned) {
    size_t pos = FindWord(code, banned.name, 0);
    while (pos != std::string_view::npos) {
      size_t after = SkipSpaces(code, pos + banned.name.size());
      bool is_call = after != std::string_view::npos && code[after] == '(';
      if (!banned.call_only || is_call) {
        Report(ctx, pos, kRule,
               std::string(banned.name) + " (" + std::string(banned.why) +
                   ") in the deterministic core — use seeded pdd::Rng / "
                   "plumb values in explicitly");
      }
      pos = FindWord(code, banned.name, pos + 1);
    }
  }
  // Pointer-value ordering: addresses vary run to run, so any order or
  // hash derived from them is nondeterministic across processes.
  for (std::string_view pattern :
       {"reinterpret_cast<uintptr_t>", "reinterpret_cast<std::uintptr_t>",
        "reinterpret_cast<intptr_t>", "reinterpret_cast<std::intptr_t>",
        "std::less<void"}) {
    size_t pos = code.find(pattern);
    while (pos != std::string_view::npos) {
      Report(ctx, pos, kRule,
             "pointer-value ordering (" + std::string(pattern) +
                 ") in the deterministic core — order by stable ids or "
                 "indices instead of addresses");
      pos = code.find(pattern, pos + 1);
    }
  }
}

// ------------------------------------------------------------------
// Rule: banned-function.

void CheckBannedFunctions(const RuleContext& ctx) {
  static const std::string kRule = "banned-function";
  if (RuleAllowedForFile(ctx, kRule)) return;
  std::string_view code = ctx.source->code;
  struct Banned {
    std::string_view name;
    std::string_view replacement;
  };
  static constexpr Banned kBanned[] = {
      {"strcpy", "std::string"},
      {"strcat", "std::string"},
      {"sprintf", "std::snprintf or std::to_string"},
      {"vsprintf", "std::vsnprintf"},
      {"gets", "std::getline"},
      {"atoi", "std::strtol / ParseDouble (atoi returns 0 on garbage)"},
      {"atol", "std::strtol"},
      {"atoll", "std::strtoll"},
      {"atof", "std::strtod / ParseDouble (atof returns 0 on garbage)"},
  };
  for (const Banned& banned : kBanned) {
    size_t pos = FindWord(code, banned.name, 0);
    while (pos != std::string_view::npos) {
      size_t after = SkipSpaces(code, pos + banned.name.size());
      if (after != std::string_view::npos && code[after] == '(') {
        Report(ctx, pos, kRule,
               std::string(banned.name) + " is banned — use " +
                   std::string(banned.replacement));
      }
      pos = FindWord(code, banned.name, pos + 1);
    }
  }
}

// ------------------------------------------------------------------
// Rule: float-equality.

/// Whether `token` is a floating-point literal ("0.7", "1.", ".5",
/// "1e-9", "0.5f").
bool IsFloatLiteral(std::string_view token) {
  if (token.empty()) return false;
  size_t i = 0;
  size_t digits = 0;
  while (i < token.size() &&
         std::isdigit(static_cast<unsigned char>(token[i])) != 0) {
    ++i;
    ++digits;
  }
  bool has_dot = i < token.size() && token[i] == '.';
  if (has_dot) {
    ++i;
    while (i < token.size() &&
           std::isdigit(static_cast<unsigned char>(token[i])) != 0) {
      ++i;
      ++digits;
    }
  }
  if (digits == 0) return false;
  bool has_exponent = false;
  if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
    size_t j = i + 1;
    if (j < token.size() && (token[j] == '+' || token[j] == '-')) ++j;
    size_t exp_digits = 0;
    while (j < token.size() &&
           std::isdigit(static_cast<unsigned char>(token[j])) != 0) {
      ++j;
      ++exp_digits;
    }
    if (exp_digits > 0) {
      has_exponent = true;
      i = j;
    }
  }
  if (i < token.size() && (token[i] == 'f' || token[i] == 'F' ||
                           token[i] == 'l' || token[i] == 'L')) {
    ++i;
  }
  return i == token.size() && (has_dot || has_exponent);
}

void CheckFloatEquality(const RuleContext& ctx) {
  static const std::string kRule = "float-equality";
  if (!InDecisionCode(ctx.rel_path)) return;
  if (RuleAllowedForFile(ctx, kRule)) return;
  std::string_view code = ctx.source->code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    bool equality = code[i] == '=' && code[i + 1] == '=' &&
                    (i == 0 || std::string_view("!<>=+-*/%&|^")
                                       .find(code[i - 1]) ==
                                   std::string_view::npos);
    bool inequality = code[i] == '!' && code[i + 1] == '=';
    if (!equality && !inequality) continue;
    // Right operand.
    size_t right = SkipSpaces(code, i + 2);
    bool right_float = false;
    if (right != std::string_view::npos) {
      size_t end = right;
      while (end < code.size() && (IsIdentChar(code[end]) ||
                                   code[end] == '.' || code[end] == '+' ||
                                   code[end] == '-')) {
        if ((code[end] == '+' || code[end] == '-') &&
            (end == right ||
             (code[end - 1] != 'e' && code[end - 1] != 'E'))) {
          break;
        }
        ++end;
      }
      right_float = IsFloatLiteral(code.substr(right, end - right));
    }
    // Left operand: the contiguous token run ending at the operator.
    size_t left_end = i;
    while (left_end > 0 &&
           (code[left_end - 1] == ' ' || code[left_end - 1] == '\t')) {
      --left_end;
    }
    size_t left_start = left_end;
    while (left_start > 0 && (IsIdentChar(code[left_start - 1]) ||
                              code[left_start - 1] == '.')) {
      --left_start;
    }
    bool left_float = IsFloatLiteral(code.substr(left_start,
                                                 left_end - left_start));
    if (right_float || left_float) {
      Report(ctx, i, kRule,
             "exact floating-point comparison against a literal in "
             "decision code — thresholds must use ordered comparisons "
             "(<, >=) or an explicit epsilon");
    }
  }
}

}  // namespace

// ------------------------------------------------------------------

std::string LintFinding::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

const std::vector<LintRuleInfo>& LintRules() {
  static const std::vector<LintRuleInfo> kRules = {
      {"unordered-iteration",
       "no unordered_map/unordered_set iteration in src/ or tools/ "
       "(bucket order leaks into reports); allowlist audited sites"},
      {"nondeterminism",
       "no rand/time/clock/getenv/random_device or pointer-value "
       "ordering in src/pipeline, src/decision, src/cache, "
       "src/columnar"},
      {"banned-function",
       "no strcpy/strcat/sprintf/vsprintf/gets/atoi/atol/atof anywhere"},
      {"float-equality",
       "no exact ==/!= against floating-point literals in src/decision"},
      {"spec-closure",
       "every PlanSpec key read by FromSpec is printed by ToSpec or on "
       "the documented fingerprint-irrelevant list"},
  };
  return kRules;
}

Status ParseLintAllowlist(std::string_view text, LintOptions* options) {
  std::set<std::string> known;
  for (const LintRuleInfo& rule : LintRules()) known.insert(rule.name);
  std::stringstream stream{std::string(text)};
  std::string line;
  size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::stringstream fields(line);
    std::string rule;
    std::string path;
    if (!(fields >> rule)) continue;  // blank / comment-only line
    if (!(fields >> path)) {
      return Status::InvalidArgument(
          "allowlist line " + std::to_string(line_number) +
          ": expected `rule path`, got '" + rule + "'");
    }
    if (known.count(rule) == 0) {
      return Status::InvalidArgument(
          "allowlist line " + std::to_string(line_number) +
          ": unknown rule '" + rule + "'");
    }
    std::string extra;
    if (fields >> extra) {
      return Status::InvalidArgument(
          "allowlist line " + std::to_string(line_number) +
          ": trailing token '" + extra + "' (comments start with #)");
    }
    options->allowlist[rule].insert(path);
  }
  return Status::OK();
}

Status LoadLintAllowlist(const std::string& path, LintOptions* options) {
  PDD_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseLintAllowlist(text, options);
}

std::vector<LintFinding> LintSource(std::string_view rel_path,
                                    std::string_view content,
                                    const LintOptions& options) {
  PreparedSource source = PrepareSource(content);
  std::vector<LintFinding> findings;
  RuleContext ctx{rel_path, &source, &options, &findings};
  CheckUnorderedIteration(ctx);
  CheckNondeterminism(ctx);
  CheckBannedFunctions(ctx);
  CheckFloatEquality(ctx);
  std::sort(findings.begin(), findings.end(),
            [](const LintFinding& a, const LintFinding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return findings;
}

Result<std::vector<LintFinding>> LintTree(const std::string& root,
                                          const LintOptions& options) {
  namespace fs = std::filesystem;
  fs::path base(root);
  if (!fs::exists(base)) {
    return Status::NotFound("source root '" + root + "' does not exist");
  }
  std::vector<LintFinding> findings;
  for (std::string_view dir : {"src", "tools", "tests", "bench", "examples"}) {
    fs::path subdir = base / dir;
    if (!fs::exists(subdir)) continue;
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(subdir)) {
      if (!entry.is_regular_file()) continue;
      std::string extension = entry.path().extension().string();
      if (extension != ".h" && extension != ".cc" && extension != ".cpp") {
        continue;
      }
      PDD_ASSIGN_OR_RETURN(std::string text,
                           ReadFileToString(entry.path().string()));
      std::string rel_path =
          fs::relative(entry.path(), base).generic_string();
      std::vector<LintFinding> file_findings =
          LintSource(rel_path, text, options);
      findings.insert(findings.end(),
                      std::make_move_iterator(file_findings.begin()),
                      std::make_move_iterator(file_findings.end()));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const LintFinding& a, const LintFinding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

std::string DefaultSourceRoot() {
#ifdef PDD_SOURCE_ROOT
  return PDD_SOURCE_ROOT;
#else
  return "";
#endif
}

}  // namespace pdd
