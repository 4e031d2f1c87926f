// Unit tests for the rule-based end-to-end configuration, the pair
// explanation API and the report writer.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/detector.h"
#include "core/explain.h"
#include "core/paper_examples.h"
#include "core/report_writer.h"
#include "core/tool_args.h"
#include "datagen/person_generator.h"
#include "index/format.h"
#include "index/index_builder.h"
#include "index/index_cli.h"
#include "pdb/text_format.h"
#include "util/file_util.h"
#include "util/fnv.h"

namespace pdd {
namespace {

DetectorConfig PaperConfig() {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.8, 0.2};
  config.final_thresholds = {0.4, 0.7};
  return config;
}

// ------------------------------------------------------- rule combination

TEST(RuleCombinationTest, EndToEndWithPaperRule) {
  DetectorConfig config = PaperConfig();
  config.combination = CombinationKind::kRules;
  config.rules_text =
      "IF name > 0.8 AND job > 0.5 THEN DUPLICATES WITH CERTAINTY 0.8\n";
  // Certainty factors are normalized; a single threshold suits the
  // knowledge-based technique (P unused, per Section III-D).
  config.final_thresholds = {0.5, 0.5};
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PaperSchema());
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();
  // (t11, t22) fires the rule: comparison vector (0.9, 0.589) -> 0.8.
  XRelation r12("R12", PaperSchema());
  Relation r1 = BuildR1();
  Relation r2 = BuildR2();
  XRelation x1 = XRelation::FromRelation(r1);
  XRelation x2 = XRelation::FromRelation(r2);
  Result<DetectionResult> result = detector->RunOnSources(x1, x2);
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const PairDecisionRecord& rec : result->decisions) {
    const std::string& id1 = result->id(rec.index1);
    const std::string& id2 = result->id(rec.index2);
    if ((id1 == "t11" && id2 == "t22") || (id1 == "t22" && id2 == "t11")) {
      found = true;
      EXPECT_NEAR(rec.similarity, 0.8, 1e-12);
      EXPECT_EQ(rec.match_class, MatchClass::kMatch);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RuleCombinationTest, ConfigValidation) {
  DetectorConfig config = PaperConfig();
  config.combination = CombinationKind::kRules;
  EXPECT_FALSE(config.Validate().ok());  // missing rules_text
  config.rules_text = "IF bogus > 0.5 THEN DUPLICATES";
  EXPECT_TRUE(config.Validate().ok());   // syntax checked at Make
  EXPECT_FALSE(DuplicateDetector::Make(config, PaperSchema()).ok());
}

TEST(RuleCombinationTest, AdapterExposesEngine) {
  RuleEngine engine({PaperRule()});
  RuleCombination phi(std::move(engine));
  EXPECT_EQ(phi.name(), "rules");
  EXPECT_TRUE(phi.normalized());
  EXPECT_DOUBLE_EQ(phi.Combine(ComparisonVector({0.9, 0.6})), 0.8);
  EXPECT_DOUBLE_EQ(phi.Combine(ComparisonVector({0.1, 0.6})), 0.0);
  EXPECT_EQ(phi.engine().rules().size(), 1u);
}

// ------------------------------------------------------------ explanation

TEST(ExplainTest, PaperPairBreakdown) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  ASSERT_TRUE(detector.ok());
  XTuple t32 = BuildR3().xtuple(1);
  XTuple t42 = BuildR4().xtuple(1);
  PairExplanation explanation = ExplainPair(*detector, t32, t42);
  ASSERT_EQ(explanation.alternatives.size(), 3u);
  // φ values of the three alternative pairs (Fig. 7 example).
  EXPECT_NEAR(explanation.alternatives[0].phi, 11.0 / 15.0, 1e-12);
  EXPECT_NEAR(explanation.alternatives[1].phi, 7.0 / 15.0, 1e-12);
  EXPECT_NEAR(explanation.alternatives[2].phi, 4.0 / 15.0, 1e-12);
  // η classes m, p, u.
  EXPECT_EQ(explanation.alternatives[0].eta, MatchClass::kMatch);
  EXPECT_EQ(explanation.alternatives[1].eta, MatchClass::kPossible);
  EXPECT_EQ(explanation.alternatives[2].eta, MatchClass::kUnmatch);
  // Masses and derived similarity match the paper.
  EXPECT_NEAR(explanation.mass.p_match, 3.0 / 9.0, 1e-12);
  EXPECT_NEAR(explanation.mass.p_unmatch, 4.0 / 9.0, 1e-12);
  EXPECT_NEAR(explanation.similarity, 7.0 / 15.0, 1e-12);
  EXPECT_EQ(explanation.match_class, MatchClass::kPossible);
}

TEST(ExplainTest, WeightsAreConditioned) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  ASSERT_TRUE(detector.ok());
  XTuple t32 = BuildR3().xtuple(1);
  XTuple t42 = BuildR4().xtuple(1);
  PairExplanation explanation = ExplainPair(*detector, t32, t42);
  double total = 0.0;
  for (const AlternativePairExplanation& alt : explanation.alternatives) {
    total += alt.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ExplainTest, ToStringMentionsAttributesAndClasses) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  ASSERT_TRUE(detector.ok());
  PairExplanation explanation =
      ExplainPair(*detector, BuildR3().xtuple(1), BuildR4().xtuple(1));
  std::string s = explanation.ToString(PaperSchema());
  EXPECT_NE(s.find("pair (t32, t42)"), std::string::npos);
  EXPECT_NE(s.find("name="), std::string::npos);
  EXPECT_NE(s.find("job="), std::string::npos);
  EXPECT_NE(s.find("P(m)=0.3333"), std::string::npos);
  EXPECT_NE(s.find("possible"), std::string::npos);
}

// ----------------------------------------------------------------- report

DetectionResult RunPaperDetection() {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  return *detector->Run(BuildR34());
}

TEST(ReportTest, CsvHasHeaderAndRows) {
  DetectionResult result = RunPaperDetection();
  std::string csv = DecisionsToCsv(result);
  EXPECT_EQ(csv.find("id1,id2,similarity,decision\n"), 0u);
  // 10 data rows + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 11);
  EXPECT_NE(csv.find("t31,t41"), std::string::npos);
}

TEST(ReportTest, CsvGoldColumn) {
  DetectionResult result = RunPaperDetection();
  GoldStandard gold;
  gold.AddMatch("t31", "t41");
  std::string csv = DecisionsToCsv(result, &gold);
  EXPECT_NE(csv.find("id1,id2,similarity,decision,gold"), std::string::npos);
  EXPECT_NE(csv.find(",match"), std::string::npos);
  EXPECT_NE(csv.find(",non-match"), std::string::npos);
}

TEST(ReportTest, CsvEscapesStructuralCharacters) {
  DetectionResult result;
  result.total_pairs = 1;
  result.candidate_count = 1;
  result.ids = std::make_shared<std::vector<std::string>>(
      std::vector<std::string>{"id,with,commas", "id\"quoted\""});
  result.decisions.push_back({0, 1, 0.5, MatchClass::kMatch});
  std::string csv = DecisionsToCsv(result);
  EXPECT_NE(csv.find("\"id,with,commas\""), std::string::npos);
  EXPECT_NE(csv.find("\"id\"\"quoted\"\"\""), std::string::npos);
}

// `pddquery pair` prints the --csv row of the pair, ids escaped the
// same way, `none` for a pair the run never examined, and `verify`
// compares those rows.
TEST(ReportTest, IndexQueriesPrintTheCsvRow) {
  const std::string relation_path = "explain_report_test_csv.pxr";
  const std::string index_path = "explain_report_test_csv.pddindex";
  // Blocking on the key keeps c out of a's and b's block.
  const std::vector<std::string> plan = {"--set",
                                         "reduction=blocking_certain_keys"};
  ASSERT_TRUE(WriteFileAtomically(relation_path,
                                  "relation quoted\n"
                                  "schema name:string, job:string\n"
                                  "tuple a,1\nalt 1 | anna ; baker\n"
                                  "tuple b\"2\nalt 1 | anna ; baker\n"
                                  "tuple c\nalt 1 | zora ; miner\n")
                  .ok());
  std::vector<std::string> build = {relation_path, index_path};
  build.insert(build.end(), plan.begin(), plan.end());
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunIndexBuild(build), 0);
  ::testing::internal::GetCapturedStdout();

  Result<XRelation> rel = LoadXRelation(relation_path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  Result<ToolArgs> args = ParseToolArgs(plan, kPlanFlags);
  ASSERT_TRUE(args.ok());
  Result<DetectorConfig> config = ResolveConfig(*args, rel->schema());
  ASSERT_TRUE(config.ok());
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(*config, rel->schema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result = detector->Run(*rel);
  ASSERT_TRUE(result.ok());
  const std::string csv = DecisionsToCsv(*result);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2) << csv;
  const std::string row = csv.substr(csv.find('\n') + 1);
  EXPECT_EQ(row.rfind("\"a,1\",\"b\"\"2\",", 0), 0u) << row;

  auto query = [](const std::vector<std::string>& command) {
    ::testing::internal::CaptureStdout();
    const int rc =
        RunIndexQuery(command[0], {command.begin() + 1, command.end()});
    return std::to_string(rc) + ":" +
           ::testing::internal::GetCapturedStdout();
  };
  EXPECT_EQ(query({"pair", index_path, "a,1", "b\"2"}), "0:" + row);
  EXPECT_EQ(query({"pair", index_path, "a,1", "c"}), "0:\"a,1\",c,,none\n");
  std::vector<std::string> verify = {"verify", index_path, relation_path};
  verify.insert(verify.end(), plan.begin(), plan.end());
  EXPECT_EQ(query(verify).rfind("0:index verify: OK", 0), 0u);
  std::remove(relation_path.c_str());
  std::remove(index_path.c_str());
}

TEST(ReportTest, MarkdownReportSections) {
  DetectionResult result = RunPaperDetection();
  GoldStandard gold;
  gold.AddMatch("t31", "t41");
  std::string report = DetectionReport(result, &gold);
  EXPECT_NE(report.find("# Duplicate detection report"), std::string::npos);
  EXPECT_NE(report.find("## Verification"), std::string::npos);
  EXPECT_NE(report.find("## Clerical review queue"), std::string::npos);
  EXPECT_NE(report.find("matches (M): 1"), std::string::npos);
}

TEST(ReportTest, ReviewQueueTruncates) {
  DetectionResult result;
  result.total_pairs = 100;
  result.candidate_count = 20;
  // Tuple i is "a<i>", tuple 20 + i is "b<i>"; decision i pairs them.
  auto ids = std::make_shared<std::vector<std::string>>();
  for (const char* prefix : {"a", "b"}) {
    for (int i = 0; i < 20; ++i) ids->push_back(prefix + std::to_string(i));
  }
  result.ids = ids;
  for (uint32_t i = 0; i < 20; ++i) {
    result.decisions.push_back(
        {i, 20 + i, 0.5 + i * 0.001, MatchClass::kPossible});
  }
  std::string report = DetectionReport(result, nullptr, 5);
  EXPECT_NE(report.find("(15 more)"), std::string::npos);
  // Highest similarity first.
  size_t first = report.find("a19 ~ b19");
  size_t later = report.find("a15 ~ b15");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(later, std::string::npos);
  EXPECT_LT(first, later);
}

TEST(ReportTest, ReportWithoutGoldSkipsVerification) {
  DetectionResult result = RunPaperDetection();
  std::string report = DetectionReport(result);
  EXPECT_EQ(report.find("## Verification"), std::string::npos);
}

// ----------------------------------------------------------- golden bytes
//
// One seeded person run rendered every way a user sees it: the Markdown
// report with its clerical review queue, the per-pair CSV, the index
// payload and `pddquery pair` rows. Decision records carry tuple
// indices only and every renderer looks the ids up, so these pins are
// what proves the lookup reproduces each byte.

struct GoldenRun {
  GeneratedData data;
  Result<DetectionResult> result = Status::Internal("not run");
};

GoldenRun SeededPersonRun() {
  PersonGenOptions options;
  options.num_entities = 60;
  options.duplicate_rate = 0.8;
  options.uncertainty.value_uncertainty_prob = 0.3;
  options.uncertainty.xtuple_alternative_prob = 0.3;
  options.seed = 7;
  GoldenRun run{GeneratePersons(options)};
  const Schema& schema = run.data.relation.schema();
  DetectorConfig config;
  config.key = {{schema.attribute(0).name, 3}, {schema.attribute(1).name, 2}};
  config.weights.assign(schema.arity(),
                        1.0 / static_cast<double>(schema.arity()));
  Result<DuplicateDetector> detector = DuplicateDetector::Make(config, schema);
  run.result = detector.ok() ? detector->Run(run.data.relation)
                             : Result<DetectionResult>(detector.status());
  return run;
}

uint64_t Fnv1a(const std::string& bytes) {
  return FnvBytes(kFnvOffset, bytes.data(), bytes.size());
}

TEST(GoldenRenderingTest, ReportWithGoldIsPinned) {
  GoldenRun run = SeededPersonRun();
  ASSERT_TRUE(run.result.ok()) << run.result.status().ToString();
  ASSERT_EQ(run.result->decisions.size(), 4186u);
  EXPECT_EQ(DetectionReport(*run.result, &run.data.gold),
            "# Duplicate detection report\n"
            "\n"
            "- plan fingerprint: 4547001959f64439\n"
            "- pairs examined: 4186 of 4186\n"
            "- matches (M): 33\n"
            "- possible matches (P): 15\n"
            "- non-matches (U): 4138\n"
            "\n"
            "## Verification\n"
            "\n"
            "- matches only: P=1 R=0.8049 F1=0.8919 FPR=0 FNR=0.1951\n"
            "- incl. possible: P=0.8542 R=1 F1=0.9213 FPR=0.0017 FNR=0\n"
            "- reduction: RR=0 PC=1 PQ=0.0098\n"
            "\n"
            "## Clerical review queue\n"
            "\n"
            "| pair | similarity |\n"
            "|---|---|\n"
            "| r23 ~ r24 | 0.6975 |\n"
            "| r46 ~ r47 | 0.6922 |\n"
            "| r73 ~ r74 | 0.6889 |\n"
            "| r85 ~ r86 | 0.6863 |\n"
            "| r86 ~ r87 | 0.6461 |\n"
            "| r72 ~ r74 | 0.6457 |\n"
            "| r10 ~ r11 | 0.626 |\n"
            "| r27 ~ r70 | 0.4732 |\n"
            "| r25 ~ r26 | 0.4607 |\n"
            "| r38 ~ r41 | 0.4444 |\n"
            "\n"
            "(5 more)\n");
}

TEST(GoldenRenderingTest, CsvWithGoldIsPinned) {
  GoldenRun run = SeededPersonRun();
  ASSERT_TRUE(run.result.ok()) << run.result.status().ToString();
  std::string csv = DecisionsToCsv(*run.result, &run.data.gold);
  EXPECT_EQ(csv.rfind("id1,id2,similarity,decision,gold\n"
                      "r0,r1,0.797758,match,match\n"
                      "r0,r2,0.047619,unmatch,non-match\n",
                      0),
            0u);
  // The 4,186 rows are pinned by length and FNV-1a digest.
  EXPECT_EQ(csv.size(), 139454u);
  EXPECT_EQ(Fnv1a(csv), 16588330242561578793ull);
}

TEST(GoldenRenderingTest, IndexPayloadAndPairRowsArePinned) {
  GoldenRun run = SeededPersonRun();
  ASSERT_TRUE(run.result.ok()) << run.result.status().ToString();
  Result<std::string> image =
      BuildDecisionIndexImage(run.data.relation, *run.result);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  // The payload only: the header also stamps the result's content
  // digest, a hash of in-memory records rather than a rendered byte.
  EXPECT_EQ(Fnv1a(image->substr(kIndexHeaderBytes)), 4686894013620785927ull);

  const std::string path = "explain_report_test_golden.pddindex";
  ASSERT_TRUE(WriteDecisionIndexFile(path, *image).ok());
  const XRelation& rel = run.data.relation;
  const auto& decisions = run.result->decisions;
  size_t first_possible = 0;
  while (decisions[first_possible].match_class != MatchClass::kPossible) {
    ++first_possible;
  }
  std::string rows;
  for (size_t d : {size_t{0}, first_possible, decisions.size() / 3,
                   decisions.size() - 1}) {
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(RunIndexQuery("pair", {path, rel.xtuple(decisions[d].index1).id(),
                                     rel.xtuple(decisions[d].index2).id()}),
              0);
    rows += ::testing::internal::GetCapturedStdout();
  }
  std::remove(path.c_str());
  EXPECT_EQ(rows,
            "r0,r1,0.797758,match\n"
            "r10,r11,0.626039,possible\n"
            "r16,r76,0.102124,unmatch\n"
            "r90,r91,0.055556,unmatch\n");
}

}  // namespace
}  // namespace pdd
