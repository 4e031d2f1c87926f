// Seeded inputs of the benchmark: person relations from the engine's
// synthetic generator, written to the text format and guaranteed to
// parse back for every seed.
//
// The person generator's error channel can shorten a text to nothing
// (truncation, deletions), and the text format has no spelling for an
// empty text, so such relations fail to parse ("empty value", "empty
// alternative text"). The benchmark maps them before writing:
//
//   * a value alternative whose text is empty (or only structural
//     characters and whitespace) is removed, and its probability mass
//     becomes the value's non-existence mass ⊥; a value left with no
//     alternatives is ⊥ (`_` in the file);
//   * structural characters (`;,:{}|`) are stripped and surrounding
//     whitespace is trimmed, since the parser would reject or trim them;
//   * alternatives of one value whose texts coincide after mapping are
//     merged by summing their masses.
//
// The mapped relation is then serialized, parsed back and serialized
// again; any difference is a failure of the input, reported before
// measuring starts.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>

#include "pdb/xrelation.h"
#include "verify/gold_standard.h"

namespace perfbench {

struct PersonInput {
  pdd::XRelation relation;
  pdd::GoldStandard gold;
  /// The serialized relation (what the input file holds).
  std::string text;
  size_t tuples = 0;
  size_t alternatives = 0;
  /// Full candidate-pair universe n(n-1)/2.
  uint64_t pairs = 0;
  /// Value alternatives removed because their text was empty.
  size_t emptied_alternatives = 0;
};

/// Person relation of `entities` entities from seed `seed` with the
/// same generator settings as `pddgen person`; keeps the first
/// `max_tuples` tuples when non-zero. Returns false (with `*error` set)
/// when the mapped relation does not round-trip through the parser.
bool MakePersonInput(size_t entities, uint64_t seed, size_t max_tuples,
                     PersonInput* input, std::string* error);

/// Writes `text` to `path`; false on I/O error.
bool WriteTextFile(const std::string& path, const std::string& text);

/// Reads the whole file at `path` into `*text`; false on I/O error.
bool ReadTextFile(const std::string& path, std::string* text);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
