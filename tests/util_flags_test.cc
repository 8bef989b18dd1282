#include "src/util/flags.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace deepcrawl {
namespace {

// Helper turning an initializer list into argc/argv with a program name.
Status ParseArgs(FlagParser& parser, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return parser.Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, EqualsSyntax) {
  std::string name = "default";
  int64_t count = 5;
  double rate = 1.0;
  bool verbose = false;
  FlagParser parser;
  parser.AddString("name", &name, "");
  parser.AddInt64("count", &count, INT64_MIN, INT64_MAX, "");
  parser.AddDouble("rate", &rate, -1e9, 1e9, "");
  parser.AddBool("verbose", &verbose, "");
  ASSERT_TRUE(ParseArgs(parser, {"--name=abc", "--count=42",
                                 "--rate=0.25", "--verbose=true"})
                  .ok());
  EXPECT_EQ(name, "abc");
  EXPECT_EQ(count, 42);
  EXPECT_DOUBLE_EQ(rate, 0.25);
  EXPECT_TRUE(verbose);
}

TEST(FlagParserTest, SpaceSeparatedValues) {
  int64_t count = 0;
  std::string name;
  FlagParser parser;
  parser.AddInt64("count", &count, INT64_MIN, INT64_MAX, "");
  parser.AddString("name", &name, "");
  ASSERT_TRUE(ParseArgs(parser, {"--count", "7", "--name", "xyz"}).ok());
  EXPECT_EQ(count, 7);
  EXPECT_EQ(name, "xyz");
}

TEST(FlagParserTest, BareAndNegatedBooleans) {
  bool a = false, b = true;
  FlagParser parser;
  parser.AddBool("alpha", &a, "");
  parser.AddBool("beta", &b, "");
  ASSERT_TRUE(ParseArgs(parser, {"--alpha", "--no-beta"}).ok());
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
}

TEST(FlagParserTest, DefaultsSurviveWhenUnset) {
  std::string name = "kept";
  int64_t count = 9;
  FlagParser parser;
  parser.AddString("name", &name, "");
  parser.AddInt64("count", &count, INT64_MIN, INT64_MAX, "");
  ASSERT_TRUE(ParseArgs(parser, {}).ok());
  EXPECT_EQ(name, "kept");
  EXPECT_EQ(count, 9);
}

TEST(FlagParserTest, PositionalArgumentsCollected) {
  bool flag = false;
  FlagParser parser;
  parser.AddBool("flag", &flag, "");
  ASSERT_TRUE(ParseArgs(parser, {"one", "--flag", "two"}).ok());
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"one", "two"}));
}

TEST(FlagParserTest, UnknownFlagRejected) {
  FlagParser parser;
  Status status = ParseArgs(parser, {"--nope=1"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, BadValuesRejected) {
  int64_t count = 0;
  double rate = 0;
  bool flag = false;
  FlagParser parser;
  parser.AddInt64("count", &count, INT64_MIN, INT64_MAX, "");
  parser.AddDouble("rate", &rate, -1e9, 1e9, "");
  parser.AddBool("flag", &flag, "");
  EXPECT_FALSE(ParseArgs(parser, {"--count=abc"}).ok());
  EXPECT_FALSE(ParseArgs(parser, {"--rate=1.2.3"}).ok());
  EXPECT_FALSE(ParseArgs(parser, {"--flag=maybe"}).ok());
}

TEST(FlagParserTest, IntegerBoundsAreInclusive) {
  int64_t batch = 1;
  FlagParser parser;
  parser.AddInt64("batch", &batch, 1, 4294967295, "");
  EXPECT_TRUE(ParseArgs(parser, {"--batch=1"}).ok());
  EXPECT_EQ(batch, 1);
  EXPECT_TRUE(ParseArgs(parser, {"--batch=4294967295"}).ok());
  EXPECT_EQ(batch, 4294967295);

  Status below = ParseArgs(parser, {"--batch=0"});
  EXPECT_EQ(below.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(below.message(), "--batch must be in [1, 4294967295], got 0");
  Status above = ParseArgs(parser, {"--batch=4294967296"});
  EXPECT_EQ(above.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(above.message(),
            "--batch must be in [1, 4294967295], got 4294967296");
  EXPECT_EQ(batch, 4294967295);  // a rejected value leaves the target
}

TEST(FlagParserTest, OneSidedIntegerRangeReadsAsLowerBound) {
  int64_t seeds = 1;
  FlagParser parser;
  parser.AddInt64("seeds", &seeds, 1, INT64_MAX, "");
  EXPECT_TRUE(ParseArgs(parser, {"--seeds=9223372036854775807"}).ok());
  EXPECT_EQ(seeds, INT64_MAX);
  Status below = ParseArgs(parser, {"--seeds=-1"});
  EXPECT_EQ(below.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(below.message(), "--seeds must be >= 1, got -1");
}

TEST(FlagParserTest, IntegerOverflowIsOutOfRange) {
  int64_t seed = 0;
  FlagParser parser;
  parser.AddInt64("seed", &seed, INT64_MIN, INT64_MAX, "");
  EXPECT_TRUE(ParseArgs(parser, {"--seed=-9223372036854775808"}).ok());
  EXPECT_EQ(seed, INT64_MIN);
  // strtoll saturates these to INT64_MAX and INT64_MIN, inside the range.
  for (const char* arg : {"--seed=99999999999999999999",
                          "--seed=-99999999999999999999",
                          "--seed=9223372036854775808"}) {
    Status status = ParseArgs(parser, {arg});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(status.message().find("must be >= -9223372036854775808"),
              std::string::npos)
        << status.message();
  }
  EXPECT_EQ(seed, INT64_MIN);
}

TEST(FlagParserTest, DoubleBoundsAreInclusive) {
  double rate = 0.5;
  FlagParser parser;
  parser.AddDouble("rate", &rate, 0.0, 1.0, "");
  EXPECT_TRUE(ParseArgs(parser, {"--rate=0"}).ok());
  EXPECT_EQ(rate, 0.0);
  EXPECT_TRUE(ParseArgs(parser, {"--rate=1"}).ok());
  EXPECT_EQ(rate, 1.0);

  Status below = ParseArgs(parser, {"--rate=-0.001"});
  EXPECT_EQ(below.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(below.message(), "--rate must be in [0, 1], got -0.001");
  Status above = ParseArgs(parser, {"--rate=1.001"});
  EXPECT_EQ(above.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(above.message(), "--rate must be in [0, 1], got 1.001");
}

TEST(FlagParserTest, NanAndInfinitiesAreOutOfRange) {
  double rate = 0.5;
  FlagParser parser;
  parser.AddDouble("rate", &rate, -1.0, 1.0, "");
  for (const char* arg : {"--rate=nan", "--rate=-nan", "--rate=inf",
                          "--rate=-inf", "--rate=1e999"}) {
    Status status = ParseArgs(parser, {arg});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(status.message().find("--rate must be in [-1, 1]"),
              std::string::npos)
        << status.message();
  }
  EXPECT_EQ(rate, 0.5);

  // The smallest positive normal double as a lower bound: zero is out.
  double scale = 0.1;
  parser.AddDouble("scale", &scale, std::numeric_limits<double>::min(), 1.0,
                   "");
  EXPECT_EQ(ParseArgs(parser, {"--scale=0"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseArgs(parser, {"--scale=1e-300"}).ok());
}

TEST(FlagParserTest, HelpTextPrintsRanges) {
  int64_t batch = 1;
  int64_t rounds = 0;
  double saturation = 0.85;
  FlagParser parser;
  parser.AddInt64("batch", &batch, 1, 4294967295, "wave width");
  parser.AddInt64("max-rounds", &rounds, 0, INT64_MAX, "budget");
  parser.AddDouble("saturation", &saturation, 0.0, 1.0, "switch point");
  std::string help = parser.HelpText();
  EXPECT_NE(help.find("--batch (default: 1; in [1, 4294967295])"),
            std::string::npos)
      << help;
  EXPECT_NE(help.find("--max-rounds (default: 0; >= 0)"), std::string::npos)
      << help;
  EXPECT_NE(help.find("--saturation (default: 0.85; in [0, 1])"),
            std::string::npos)
      << help;
}

TEST(FlagParserDeathTest, DefaultOutsideRangeAborts) {
  int64_t count = 5;
  FlagParser parser;
  EXPECT_DEATH(parser.AddInt64("count", &count, 0, 4, ""),
               "default out of its range");
}

TEST(FlagParserTest, MissingValueRejected) {
  int64_t count = 0;
  FlagParser parser;
  parser.AddInt64("count", &count, INT64_MIN, INT64_MAX, "");
  EXPECT_FALSE(ParseArgs(parser, {"--count"}).ok());
}

TEST(FlagParserTest, HelpTextListsFlagsWithDefaults) {
  std::string name = "dflt";
  bool flag = true;
  FlagParser parser;
  parser.AddString("name", &name, "the name");
  parser.AddBool("flag", &flag, "a switch");
  std::string help = parser.HelpText();
  EXPECT_NE(help.find("--name (default: \"dflt\")"), std::string::npos);
  EXPECT_NE(help.find("--flag (default: true)"), std::string::npos);
  EXPECT_NE(help.find("the name"), std::string::npos);
}

TEST(FlagParserDeathTest, DuplicateRegistrationAborts) {
  int64_t a = 0, b = 0;
  FlagParser parser;
  parser.AddInt64("x", &a, 0, 1, "");
  EXPECT_DEATH(parser.AddInt64("x", &b, 0, 1, ""), "duplicate");
}

}  // namespace
}  // namespace deepcrawl
