// Quickstart: detect duplicates between two tiny probabilistic relations.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The example constructs the paper's two x-relations R3 and R4 (Fig. 5),
// configures the default pipeline (normalized Hamming matching, weighted
// sum φ with weights 0.8/0.2, expected-similarity derivation, thresholds
// Tλ=0.4 / Tμ=0.7) and prints the decision for every tuple pair.

#include <cstdio>
#include <iostream>

#include "core/detector.h"
#include "core/paper_examples.h"
#include "util/table_printer.h"

int main() {
  using namespace pdd;

  // 1. The probabilistic sources (see Fig. 5 of the paper).
  XRelation r3 = BuildR3();
  XRelation r4 = BuildR4();
  std::cout << r3.ToString() << "\n" << r4.ToString() << "\n";

  // 2. Configure the pipeline. The defaults replicate the paper's
  //    running example; only the thresholds are stated explicitly here.
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.8, 0.2};
  config.final_thresholds = {0.4, 0.7};

  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PaperSchema());
  if (!detector.ok()) {
    std::cerr << "config error: " << detector.status().ToString() << "\n";
    return 1;
  }

  // 3. Run on the union of both sources.
  Result<DetectionResult> result = detector->RunOnSources(r3, r4);
  if (!result.ok()) {
    std::cerr << "run error: " << result.status().ToString() << "\n";
    return 1;
  }

  // 4. Inspect the decisions.
  TablePrinter table({"pair", "similarity", "decision"});
  for (const PairDecisionRecord& rec : result->decisions) {
    char sim[32];
    std::snprintf(sim, sizeof(sim), "%.4f", rec.similarity);
    table.AddRow({result->id(rec.index1) + " ~ " + result->id(rec.index2), sim,
                  MatchClassName(rec.match_class)});
  }
  table.Print(std::cout);

  std::cout << "\nmatches:";
  for (const IdPair& pair : result->Matches()) {
    std::cout << " (" << pair.first << ", " << pair.second << ")";
  }
  std::cout << "\npossible matches (clerical review):";
  for (const IdPair& pair : result->PossibleMatches()) {
    std::cout << " (" << pair.first << ", " << pair.second << ")";
  }
  std::cout << "\n";
  return 0;
}
