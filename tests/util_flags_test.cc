#include "src/util/flags.h"

#include <gtest/gtest.h>

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
  parser.AddInt64("count", &count, "");
  parser.AddDouble("rate", &rate, "");
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
  parser.AddInt64("count", &count, "");
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
  parser.AddInt64("count", &count, "");
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
  parser.AddInt64("count", &count, "");
  parser.AddDouble("rate", &rate, "");
  parser.AddBool("flag", &flag, "");
  EXPECT_FALSE(ParseArgs(parser, {"--count=abc"}).ok());
  EXPECT_FALSE(ParseArgs(parser, {"--rate=1.2.3"}).ok());
  EXPECT_FALSE(ParseArgs(parser, {"--flag=maybe"}).ok());
}

TEST(FlagParserTest, CheckFlagRangeBoundsAreInclusive) {
  EXPECT_TRUE(CheckFlagRange("seeds", 1, 1).ok());
  EXPECT_TRUE(CheckFlagRange("seeds", INT64_MAX, 1).ok());
  EXPECT_TRUE(CheckFlagRange("batch", 4294967295, 1, 4294967295).ok());

  Status below = CheckFlagRange("seeds", -1, 1);
  EXPECT_EQ(below.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(below.message(), "--seeds must be >= 1, got -1");
  Status above = CheckFlagRange("batch", 4294967296, 1, 4294967295);
  EXPECT_EQ(above.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(above.message(),
            "--batch must be in [1, 4294967295], got 4294967296");
}

TEST(FlagParserTest, MissingValueRejected) {
  int64_t count = 0;
  FlagParser parser;
  parser.AddInt64("count", &count, "");
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
  parser.AddInt64("x", &a, "");
  EXPECT_DEATH(parser.AddInt64("x", &b, ""), "duplicate");
}

}  // namespace
}  // namespace deepcrawl
