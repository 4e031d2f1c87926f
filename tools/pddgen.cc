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
// Relations are written in the text format of pdb/text_format.h, with
// empty-text alternatives dropped into ⊥ (datagen/text_safe.h); pddgen
// parses each written text back and fails unless it re-serializes to
// the same bytes. Gold standards are "id1,id2" lines (verify/gold_io.h).
// Entity, object and publication counts above 2^32 - 1 are flag errors
// (the engine addresses tuples by 32-bit index), and a count the
// machine cannot hold fails with a message, not a crash. An output
// file that cannot be written in full (a full disk) exits 1 naming it.
// The output paths come first: an output operand that starts with
// "--" (an option given before the paths) exits 1 naming it, before
// anything is written.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <new>
#include <stdexcept>

#include "datagen/astronomy_generator.h"
#include "datagen/bibliography_generator.h"
#include "datagen/person_generator.h"
#include "datagen/text_safe.h"
#include "pdb/text_format.h"
#include "util/string_util.h"
#include "verify/gold_io.h"

namespace {

using namespace pdd;

int Fail(const std::string& message) {
  std::cerr << "pddgen: " << message << "\n";
  return 1;
}

/// False, after a message naming `path`, unless all of `content` got there.
bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.close();  // flushes, so a full disk fails here
  if (!out) Fail("cannot write '" + path + "'");
  return static_cast<bool>(out);
}

/// The text form of `rel` that the parser reads back byte for byte, or
/// an error naming what does not round-trip.
Result<std::string> SerializeRoundTrip(const XRelation& rel) {
  std::string text = SerializeXRelation(DropEmptyAlternatives(rel));
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

// Shared numeric flag scanning.
struct Flags {
  size_t entities = 100;
  double dup_rate = 0.6;
  double error_rate = 0.04;
  double uncertainty = 0.3;
  size_t objects = 100;
  size_t publications = 100;
  size_t seed = 42;
  bool full_names = false;
};

/// Parses the options after the output operands argv[2, first).
int ParseFlags(int argc, char** argv, int first, Flags* flags) {
  for (int i = 2; i < first; ++i) {
    if (std::string(argv[i]).rfind("--", 0) == 0) {
      return Fail("output path '" + std::string(argv[i]) +
                  "' looks like an option; options follow the output paths");
    }
  }
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    auto number = [&](double* slot) -> int {
      if (i + 1 >= argc) return Fail(arg + " needs a value");
      double v = 0.0;
      if (!ParseDouble(argv[++i], &v)) return Fail(arg + " needs a number");
      *slot = v;
      return 0;
    };
    auto count = [&](size_t* slot) -> int {
      if (i + 1 >= argc) return Fail(arg + " needs a value");
      if (!ParseSize(argv[++i], slot)) {
        return Fail(arg + " needs a non-negative integer");
      }
      return 0;
    };
    // Generated tuples are addressed by the engine's 32-bit index.
    auto tuple_count = [&](size_t* slot) -> int {
      int rc = count(slot);
      if (rc == 0 && *slot > std::numeric_limits<uint32_t>::max()) {
        return Fail(arg + " must be at most " +
                    std::to_string(std::numeric_limits<uint32_t>::max()));
      }
      return rc;
    };
    int rc = 0;
    if (arg == "--entities") {
      rc = tuple_count(&flags->entities);
    } else if (arg == "--dup-rate") {
      rc = number(&flags->dup_rate);
    } else if (arg == "--error-rate") {
      rc = number(&flags->error_rate);
    } else if (arg == "--uncertainty") {
      rc = number(&flags->uncertainty);
    } else if (arg == "--objects") {
      rc = tuple_count(&flags->objects);
    } else if (arg == "--publications") {
      rc = tuple_count(&flags->publications);
    } else if (arg == "--seed") {
      rc = count(&flags->seed);
    } else if (arg == "--full-names") {
      flags->full_names = true;
    } else {
      return Fail("unknown option '" + arg + "'");
    }
    if (rc != 0) return rc;
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: pddgen <person|astro|biblio> <outputs...> [options]");
  }
  std::string kind = argv[1];
  if (kind == "person") {
    if (argc < 4) return Fail("person needs <out.pxr> <gold.csv>");
    Flags flags;
    int rc = ParseFlags(argc, argv, 4, &flags);
    if (rc != 0) return rc;
    PersonGenOptions options;
    options.num_entities = flags.entities;
    options.duplicate_rate = flags.dup_rate;
    options.errors.char_error_rate = flags.error_rate;
    options.uncertainty.value_uncertainty_prob = flags.uncertainty;
    options.uncertainty.xtuple_alternative_prob = flags.uncertainty / 2;
    options.seed = flags.seed;
    options.full_names = flags.full_names;
    GeneratedData data = GeneratePersons(options);
    Result<std::string> text = SerializeRoundTrip(data.relation);
    if (!text.ok()) return Fail(text.status().ToString());
    if (!WriteFile(argv[2], *text) ||
        !WriteFile(argv[3], SerializeGoldStandard(data.gold))) {
      return 1;
    }
    std::cout << "wrote " << data.relation.size() << " records, "
              << data.gold.size() << " gold pairs\n";
    return 0;
  }
  if (kind == "astro") {
    if (argc < 5) return Fail("astro needs <out1.pxr> <out2.pxr> <gold.csv>");
    Flags flags;
    int rc = ParseFlags(argc, argv, 5, &flags);
    if (rc != 0) return rc;
    AstroGenOptions options;
    options.num_objects = flags.objects;
    options.seed = flags.seed;
    GeneratedSources sources = GenerateTelescopeSources(options);
    Result<std::string> text1 = SerializeRoundTrip(sources.source1);
    if (!text1.ok()) return Fail(text1.status().ToString());
    Result<std::string> text2 = SerializeRoundTrip(sources.source2);
    if (!text2.ok()) return Fail(text2.status().ToString());
    if (!WriteFile(argv[2], *text1) || !WriteFile(argv[3], *text2) ||
        !WriteFile(argv[4], SerializeGoldStandard(sources.gold))) {
      return 1;
    }
    std::cout << "wrote " << sources.source1.size() << " + "
              << sources.source2.size() << " detections, "
              << sources.gold.size() << " gold pairs\n";
    return 0;
  }
  if (kind == "biblio") {
    if (argc < 4) return Fail("biblio needs <out.pxr> <gold.csv>");
    Flags flags;
    int rc = ParseFlags(argc, argv, 4, &flags);
    if (rc != 0) return rc;
    BiblioGenOptions options;
    options.num_publications = flags.publications;
    options.seed = flags.seed;
    GeneratedData data = GenerateBibliography(options);
    Result<std::string> text = SerializeRoundTrip(data.relation);
    if (!text.ok()) return Fail(text.status().ToString());
    if (!WriteFile(argv[2], *text) ||
        !WriteFile(argv[3], SerializeGoldStandard(data.gold))) {
      return 1;
    }
    std::cout << "wrote " << data.relation.size() << " citations, "
              << data.gold.size() << " gold pairs\n";
    return 0;
  }
  return Fail("unknown generator '" + kind + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::bad_alloc&) {
    return Fail("out of memory: the requested count is too large");
  } catch (const std::length_error&) {
    return Fail("the requested count is too large to generate");
  }
}
