// pddgen — synthetic probabilistic dataset generator.
//
// Usage:
//   pddgen person   <out.pxr> <gold.csv> [--entities N] [--dup-rate X]
//                   [--error-rate X] [--uncertainty X] [--seed N]
//                   [--full-names]
//   pddgen astro    <out1.pxr> <out2.pxr> <gold.csv> [--objects N]
//                   [--seed N]
//   pddgen biblio   <out.pxr> <gold.csv> [--publications N] [--seed N]
//
// Options may come before, between or after the output paths, and
// every generator accepts every option (ignoring the others' own).
//
// Relations are written in the text format of pdb/text_format.h, with
// every text trimmed as the parser trims it, alternatives that then
// match merged and empty ones dropped into ⊥ (datagen/text_safe.h);
// pddgen parses each written text back and fails unless it
// re-serializes to the same bytes. Gold standards are "id1,id2" lines
// (verify/gold_io.h).
// Counts and seeds are integers of 0 and up; entity, object and
// publication counts above 2^32 - 1 are flag errors (the engine
// addresses tuples by 32-bit index), and a count the machine cannot
// hold fails with a message, not a crash. Every output path is checked
// before anything is generated: one that is no regular file (a
// directory, a FIFO, /dev/full), is where stdout or stderr goes
// (/dev/stdout) or lies in a missing directory exits 1 and nothing is
// written. Each output is replaced atomically (a link is written
// through), and one that cannot be written in full (a full disk) exits
// 1 naming it.

#include <cstdint>
#include <iostream>
#include <limits>
#include <new>
#include <stdexcept>

#include "core/tool_args.h"
#include "datagen/astronomy_generator.h"
#include "datagen/bibliography_generator.h"
#include "datagen/person_generator.h"
#include "datagen/text_safe.h"
#include "pdb/text_format.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "verify/gold_io.h"

namespace {

using namespace pdd;

int Fail(const std::string& message) {
  std::cerr << "pddgen: " << message << "\n";
  return 1;
}

/// The text form of `rel` that the parser reads back byte for byte, or
/// an error naming what does not round-trip.
Result<std::string> SerializeRoundTrip(const XRelation& rel) {
  std::string text = SerializeXRelation(TextSafeRelation(rel));
  Result<XRelation> parsed = ParseXRelation(text);
  if (!parsed.ok()) {
    return Status::Internal("relation '" + rel.name() +
                            "' does not parse back: " +
                            parsed.status().ToString());
  }
  if (SerializeXRelation(*parsed) != text) {
    return Status::Internal("relation '" + rel.name() +
                            "' does not re-serialize to the same text");
  }
  return text;
}

/// A number as written (strtod's syntax).
ToolFlag NumberFlag(std::string name, double* value) {
  const std::string error = name + " needs a number";
  return {std::move(name), true, [value, error](const std::string& text) {
            return ParseDouble(text, value) ? Status::OK()
                                            : Status::InvalidArgument(error);
          }};
}

/// An integer of 0 and up, at most `max`.
ToolFlag IntegerFlag(std::string name, size_t* value,
                     size_t max = std::numeric_limits<size_t>::max()) {
  return {name, true, [name, value, max](const std::string& text) {
            if (!ParseSize(text, value)) {
              return Status::InvalidArgument(name +
                                             " needs a non-negative integer");
            }
            if (*value > max) {
              return Status::InvalidArgument(name + " must be at most " +
                                             std::to_string(max));
            }
            return Status::OK();
          }};
}

int Run(const std::vector<std::string>& argv) {
  if (argv.empty()) {
    return Fail("usage: pddgen <person|astro|biblio> <outputs...> [options]");
  }
  const std::string& kind = argv[0];
  if (kind != "person" && kind != "astro" && kind != "biblio") {
    return Fail("unknown generator '" + kind + "'");
  }
  size_t entities = 100;
  double dup_rate = 0.6;
  double error_rate = 0.04;
  double uncertainty = 0.3;
  size_t objects = 100;
  size_t publications = 100;
  size_t seed = 42;
  bool full_names = false;
  // Generated tuples are addressed by the engine's 32-bit index.
  const size_t max_tuples = std::numeric_limits<uint32_t>::max();
  Result<ToolArgs> args = ParseToolArgs(
      {argv.begin() + 1, argv.end()}, 0,
      {IntegerFlag("--entities", &entities, max_tuples),
       NumberFlag("--dup-rate", &dup_rate),
       NumberFlag("--error-rate", &error_rate),
       NumberFlag("--uncertainty", &uncertainty),
       IntegerFlag("--objects", &objects, max_tuples),
       IntegerFlag("--publications", &publications, max_tuples),
       IntegerFlag("--seed", &seed), SwitchFlag("--full-names", &full_names)});
  if (!args.ok()) return Fail(args.status().ToString());
  const std::vector<std::string>& outputs = args->positional;
  if (outputs.size() != (kind == "astro" ? 3u : 2u)) {
    return Fail(kind + (kind == "astro" ? " needs <out1.pxr> <out2.pxr> "
                                          "<gold.csv>"
                                        : " needs <out.pxr> <gold.csv>"));
  }
  for (const std::string& path : outputs) {
    Status usable = CheckOutputPath(path);
    if (!usable.ok()) return Fail(usable.ToString());
  }
  // Replaces each output with its generated text, in operand order.
  auto write = [&outputs](const std::vector<std::string>& texts) {
    for (size_t i = 0; i < texts.size(); ++i) {
      Status written = WriteFileAtomically(outputs[i], texts[i]);
      if (!written.ok()) return Fail(written.ToString());
    }
    return 0;
  };
  if (kind == "person") {
    PersonGenOptions options;
    options.num_entities = entities;
    options.duplicate_rate = dup_rate;
    options.errors.char_error_rate = error_rate;
    options.uncertainty.value_uncertainty_prob = uncertainty;
    options.uncertainty.xtuple_alternative_prob = uncertainty / 2;
    options.seed = seed;
    options.full_names = full_names;
    GeneratedData data = GeneratePersons(options);
    Result<std::string> text = SerializeRoundTrip(data.relation);
    if (!text.ok()) return Fail(text.status().ToString());
    if (write({*text, SerializeGoldStandard(data.gold)}) != 0) return 1;
    std::cout << "wrote " << data.relation.size() << " records, "
              << data.gold.size() << " gold pairs\n";
    return 0;
  }
  if (kind == "astro") {
    AstroGenOptions options;
    options.num_objects = objects;
    options.seed = seed;
    GeneratedSources sources = GenerateTelescopeSources(options);
    Result<std::string> text1 = SerializeRoundTrip(sources.source1);
    if (!text1.ok()) return Fail(text1.status().ToString());
    Result<std::string> text2 = SerializeRoundTrip(sources.source2);
    if (!text2.ok()) return Fail(text2.status().ToString());
    if (write({*text1, *text2, SerializeGoldStandard(sources.gold)}) != 0) {
      return 1;
    }
    std::cout << "wrote " << sources.source1.size() << " + "
              << sources.source2.size() << " detections, "
              << sources.gold.size() << " gold pairs\n";
    return 0;
  }
  BiblioGenOptions options;
  options.num_publications = publications;
  options.seed = seed;
  GeneratedData data = GenerateBibliography(options);
  Result<std::string> text = SerializeRoundTrip(data.relation);
  if (!text.ok()) return Fail(text.status().ToString());
  if (write({*text, SerializeGoldStandard(data.gold)}) != 0) return 1;
  std::cout << "wrote " << data.relation.size() << " citations, "
            << data.gold.size() << " gold pairs\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run({argv + 1, argv + argc});
  } catch (const std::bad_alloc&) {
    return Fail("out of memory: the requested count is too large");
  } catch (const std::length_error&) {
    return Fail("the requested count is too large to generate");
  }
}
