// Unit tests for the utility layer: Status/Result, string helpers,
// deterministic RNG and the table printer.

#include <gtest/gtest.h>

#include <set>

#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pdd {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusCodeNameTest, CoversAllCodes) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("not positive");
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value(), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, ValueOrFallsBack) {
  EXPECT_EQ(ParsePositive(3).value_or(9), 3);
  EXPECT_EQ(ParsePositive(-3).value_or(9), 9);
}

Result<int> DoubledPositive(int v) {
  PDD_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(DoubledPositive(4).value(), 8);
  EXPECT_FALSE(DoubledPositive(0).ok());
}

Status CheckPositive(int v) {
  PDD_RETURN_IF_ERROR(ParsePositive(v).status());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(CheckPositive(1).ok());
  EXPECT_FALSE(CheckPositive(-1).ok());
}

// ----------------------------------------------------------- StringUtil

TEST(StringUtilTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_EQ(ToUpper("MiXeD"), "MIXED");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string> parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitSingleField) {
  std::vector<std::string> parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  std::vector<std::string> parts = SplitWhitespace("  a \t b  c ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("machinist", "mach"));
  EXPECT_FALSE(StartsWith("machinist", "mech"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_TRUE(EndsWith("machinist", "ist"));
  EXPECT_FALSE(EndsWith("machinist", "isx"));
}

TEST(StringUtilTest, PrefixClampsToLength) {
  EXPECT_EQ(Prefix("John", 3), "Joh");
  EXPECT_EQ(Prefix("Jo", 3), "Jo");
  EXPECT_EQ(Prefix("John", 0), "");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("THEN", "then"));
  EXPECT_FALSE(EqualsIgnoreCase("then", "they"));
  EXPECT_FALSE(EqualsIgnoreCase("then", "the"));
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(0.59, 4), "0.59");
  EXPECT_EQ(FormatDouble(1.0, 4), "1");
  EXPECT_EQ(FormatDouble(0.8383, 4), "0.8383");
  EXPECT_EQ(FormatDouble(0.5, 1), "0.5");
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("0.8", &v));
  EXPECT_DOUBLE_EQ(v, 0.8);
  EXPECT_TRUE(ParseDouble("  -1.5  ", &v));
  EXPECT_DOUBLE_EQ(v, -1.5);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringUtilTest, ParseSizeAcceptsIntegerCounts) {
  size_t v = 7;
  EXPECT_TRUE(ParseSize("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseSize("42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseSize("1e3", &v));
  EXPECT_EQ(v, 1000u);
  EXPECT_TRUE(ParseSize(" 17 ", &v));
  EXPECT_EQ(v, 17u);
}

TEST(StringUtilTest, ParseSizeRejectsWhatNoCountCanHold) {
  // Each of these would reach an out-of-range float-to-integer cast
  // (undefined behaviour) or silently truncate without the checks.
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "1e30", "-1", "-0.5",
                          "2.5", "0.1", "18446744073709551616", "1e20", "",
                          "abc", "3x"}) {
    size_t v = 7;
    EXPECT_FALSE(ParseSize(bad, &v)) << bad;
    EXPECT_EQ(v, 7u) << bad;
  }
}

TEST(StringUtilTest, QGramsPadded) {
  std::vector<std::string> grams = QGrams("ab", 2);
  // #a, ab, b#
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], "#a");
  EXPECT_EQ(grams[1], "ab");
  EXPECT_EQ(grams[2], "b#");
}

TEST(StringUtilTest, QGramsUnpadded) {
  std::vector<std::string> grams = QGrams("abcd", 3, '\0');
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "abc");
  EXPECT_EQ(grams[1], "bcd");
}

TEST(StringUtilTest, QGramsShortInput) {
  EXPECT_TRUE(QGrams("a", 3, '\0').empty());
  EXPECT_EQ(QGrams("", 2).size(), 1u);  // "##" from padding
}

// ----------------------------------------------------------------- Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != b.Uniform()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, DiscretePicksOnlyPositiveWeights) {
  Rng rng(7);
  std::vector<double> weights = {0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 200; ++i) {
    size_t pick = rng.Discrete(weights);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(RngTest, DiscreteAllZeroReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.Discrete({0.0, 0.0}), 0u);
}

TEST(RngTest, DiscreteRoughlyProportional) {
  Rng rng(7);
  std::vector<double> weights = {1.0, 3.0};
  int count1 = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Discrete(weights) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / trials, 0.75, 0.03);
}

TEST(RngTest, ZipfSkewFavorsLowIndices) {
  Rng rng(7);
  int zero_count = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Zipf(50, 1.5) == 0) ++zero_count;
  }
  // With skew 1.5 index 0 has far more than uniform (2%) mass.
  EXPECT_GT(zero_count, trials / 10);
}

TEST(RngTest, ZipfZeroSkewIsNearUniform) {
  Rng rng(7);
  int zero_count = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Zipf(10, 0.0) == 0) ++zero_count;
  }
  EXPECT_NEAR(static_cast<double>(zero_count) / trials, 0.1, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(7);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> sa(v.begin(), v.end()), sb(original.begin(),
                                                original.end());
  EXPECT_EQ(sa, sb);
}

TEST(RngTest, IndexWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Index(5), 5u);
  }
}

// Poisson(0) is outside std::poisson_distribution's mean > 0 domain.
// It must return 0 and advance the engine by exactly the one draw
// libstdc++ takes there, so generated datasets keep their bytes.
TEST(RngTest, PoissonZeroMeanReturnsZeroAfterOneDraw) {
  for (uint64_t seed : {1u, 7u, 20100301u}) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    EXPECT_EQ(rng.Poisson(0.0), 0);
    reference.discard(1);
    EXPECT_EQ(rng.engine()(), reference()) << seed;
  }
}

// -------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"key", "tuple"});
  table.AddRow({"Johpi", "t31"});
  table.AddRow({"Timme", "t32"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| key   | tuple |"), std::string::npos);
  EXPECT_NE(out.find("| Johpi | t31   |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TablePrinterTest, PadsMissingCellsAndDropsExtra) {
  TablePrinter table({"a", "b"});
  table.AddRow({"only"});
  table.AddRow({"x", "y", "ignored"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| only |"), std::string::npos);
  EXPECT_EQ(out.find("ignored"), std::string::npos);
}

TEST(TablePrinterTest, EmptyTableStillRendersHeader) {
  TablePrinter table({"h1"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("h1"), std::string::npos);
  EXPECT_EQ(table.row_count(), 0u);
}

}  // namespace
}  // namespace pdd
