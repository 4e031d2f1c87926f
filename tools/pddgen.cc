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

#include <fstream>
#include <iostream>

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

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return true;
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

int ParseFlags(int argc, char** argv, int first, Flags* flags) {
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
    int rc = 0;
    if (arg == "--entities") {
      rc = count(&flags->entities);
    } else if (arg == "--dup-rate") {
      rc = number(&flags->dup_rate);
    } else if (arg == "--error-rate") {
      rc = number(&flags->error_rate);
    } else if (arg == "--uncertainty") {
      rc = number(&flags->uncertainty);
    } else if (arg == "--objects") {
      rc = count(&flags->objects);
    } else if (arg == "--publications") {
      rc = count(&flags->publications);
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

}  // namespace

int main(int argc, char** argv) {
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
      return Fail("cannot write output files");
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
      return Fail("cannot write output files");
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
      return Fail("cannot write output files");
    }
    std::cout << "wrote " << data.relation.size() << " citations, "
              << data.gold.size() << " gold pairs\n";
    return 0;
  }
  return Fail("unknown generator '" + kind + "'");
}
