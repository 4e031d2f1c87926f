// Plan-key declarations: each component declares its keys once, next
// to the DetectorConfig field each key sets, and one ParamVisitor walks
// that declaration three ways.
//
//   void SnmCertainParams(ParamVisitor& v, DetectorConfig& c) {
//     v("reduction.window", c.window);
//     v("reduction.conflict", c.conflict_strategy, ConflictStrategies());
//   }
//
//   * read  — DetectorConfig::FromSpec: a present key is parsed into
//     its field, an absent key keeps the field's value. The walk stops
//     at the first malformed value (later keys are skipped) and
//     status() holds the error.
//   * print — DetectorConfig::ToSpec: every field in canonical form.
//   * list  — the declared keys: the keys a spec may name (FromSpec
//     rejects every other key) and the read set of the spec-closure
//     lint.
//
// An enum field is spelled through its Vocabulary, the one name table
// of that enum.

#ifndef PDD_PLAN_PARAMS_H_
#define PDD_PLAN_PARAMS_H_

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "decision/fellegi_sunter.h"
#include "plan/param_map.h"
#include "sim/comparator.h"
#include "util/status.h"

namespace pdd {

/// InvalidArgument for an unresolved name: names the family, suggests
/// the nearest registered name by edit distance and lists the
/// registered names.
Status UnknownComponentError(std::string_view family, std::string_view name,
                             const std::vector<std::string>& registered);

/// The plan-spec form of key components, "attr:len[,attr:len...]"
/// (prefix length 0 = whole value), as in "name:3,job:2".
std::string FormatKeyComponents(
    const std::vector<std::pair<std::string, size_t>>& key);

/// The name table of one enum: its family name ("conflict strategy")
/// and the stable name of every value.
template <typename E>
class Vocabulary {
 public:
  Vocabulary(const char* family, std::vector<std::pair<E, const char*>> names)
      : family_(family), names_(std::move(names)) {}

  /// The name of `value`; "unknown" for a value outside the table.
  const char* Name(E value) const {
    for (const auto& [entry, name] : names_) {
      if (entry == value) return name;
    }
    return "unknown";
  }

  /// The value named `name`, or UnknownComponentError.
  Result<E> Find(std::string_view name) const {
    for (const auto& [entry, entry_name] : names_) {
      if (name == entry_name) return entry;
    }
    return UnknownComponentError(family_, name, Names());
  }

  /// Every name, sorted.
  std::vector<std::string> Names() const {
    std::set<std::string> sorted;
    for (const auto& [entry, name] : names_) sorted.insert(name);
    return {sorted.begin(), sorted.end()};
  }

 private:
  const char* family_;
  std::vector<std::pair<E, const char*>> names_;
};

class ParamVisitor {
 public:
  /// Reads `params` into the visited fields.
  static ParamVisitor Reading(const ParamMap& params);
  /// Prints the visited fields into `*params`.
  static ParamVisitor Printing(ParamMap* params);
  /// Adds the visited keys to `*keys`.
  static ParamVisitor Listing(std::set<std::string>* keys);

  bool printing() const { return print_ != nullptr; }
  /// The first read error; OK while every value parsed.
  const Status& status() const { return status_; }

  /// Counts, numbers, booleans ("true"/"false"/"1"/"0"/"yes"/"no")
  /// and verbatim strings.
  void operator()(const char* key, size_t& field);
  void operator()(const char* key, double& field);
  void operator()(const char* key, bool& field);
  void operator()(const char* key, std::string& field);
  /// Key components, "attr:len[,attr:len...]" (prefix length 0 = whole
  /// value). An empty value keeps the field.
  void operator()(const char* key,
                  std::vector<std::pair<std::string, size_t>>& field);
  /// A comma-separated weight list; an empty value is the empty list.
  void operator()(const char* key, std::vector<double>& field);
  /// Fellegi-Sunter attributes, "m:u:agreement_threshold[,...]".
  void operator()(const char* key, std::vector<FsAttribute>& field);
  /// A key-distance comparator by registry name; "overlap" is the
  /// distribution-overlap default (null). A null field prints nothing;
  /// an instance that is not the registry's prints as "custom", which
  /// a read refuses. An empty value keeps the field.
  void operator()(const char* key, const Comparator*& field);
  /// An enum by its name in `vocabulary`.
  template <typename E>
  void operator()(const char* key, E& field, const Vocabulary<E>& vocabulary);

  /// A key whose reading and printing are written by hand: listing
  /// names it, reading and printing skip it.
  void Accept(const char* key);

 private:
  ParamVisitor(const ParamMap* read, ParamMap* print,
               std::set<std::string>* list)
      : read_(read), print_(print), list_(list) {}

  /// Lists `key` when listing; true when the caller reads or prints it.
  bool Visit(const char* key);

  template <typename T>
  void Assign(Result<T> value, T* field) {
    if (value.ok()) {
      *field = std::move(*value);
    } else {
      status_ = value.status();
    }
  }

  const ParamMap* read_;
  ParamMap* print_;
  std::set<std::string>* list_;
  Status status_;
};

template <typename E>
void ParamVisitor::operator()(const char* key, E& field,
                              const Vocabulary<E>& vocabulary) {
  std::string name = vocabulary.Name(field);
  (*this)(key, name);
  // An absent key resolves the field's own name, so a value outside
  // the table fails the read like a misspelled one.
  if (read_ != nullptr && status_.ok()) {
    Assign(vocabulary.Find(name), &field);
  }
}

}  // namespace pdd

#endif  // PDD_PLAN_PARAMS_H_
