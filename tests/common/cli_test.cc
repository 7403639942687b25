/**
 * @file
 * Tests of the command-line flag parser.
 */

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/status.hh"

namespace mc {
namespace {

CliParser
makeParser()
{
    CliParser p("test program");
    p.addFlag("verbose", false, "enable verbose output");
    p.addFlag("iters", static_cast<std::int64_t>(100), "iteration count");
    p.addFlag("alpha", 0.1, "alpha scale");
    p.addFlag("combo", std::string("sgemm"), "GEMM combo");
    return p;
}

TEST(CliParser, DefaultsApply)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog"};
    p.parse(1, argv);
    EXPECT_FALSE(p.getBool("verbose"));
    EXPECT_EQ(p.getInt("iters"), 100);
    EXPECT_DOUBLE_EQ(p.getDouble("alpha"), 0.1);
    EXPECT_EQ(p.getString("combo"), "sgemm");
}

TEST(CliParser, EqualsSyntax)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog", "--iters=250", "--alpha=0.5",
                          "--combo=hss", "--verbose=true"};
    p.parse(5, argv);
    EXPECT_EQ(p.getInt("iters"), 250);
    EXPECT_DOUBLE_EQ(p.getDouble("alpha"), 0.5);
    EXPECT_EQ(p.getString("combo"), "hss");
    EXPECT_TRUE(p.getBool("verbose"));
}

TEST(CliParser, SpaceSeparatedValue)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog", "--iters", "42"};
    p.parse(3, argv);
    EXPECT_EQ(p.getInt("iters"), 42);
}

TEST(CliParser, BareBooleanFlag)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog", "--verbose"};
    p.parse(2, argv);
    EXPECT_TRUE(p.getBool("verbose"));
}

TEST(CliParser, PositionalArgumentsCollected)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog", "input.csv", "--verbose", "out.csv"};
    p.parse(4, argv);
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "input.csv");
    EXPECT_EQ(p.positional()[1], "out.csv");
}

TEST(CliParser, NegativeNumbers)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog", "--iters=-5", "--alpha=-1.5"};
    p.parse(3, argv);
    EXPECT_EQ(p.getInt("iters"), -5);
    EXPECT_DOUBLE_EQ(p.getDouble("alpha"), -1.5);
}

TEST(CliParser, UsageMentionsFlagsAndHelp)
{
    CliParser p = makeParser();
    const std::string usage = p.usage();
    EXPECT_NE(usage.find("--iters"), std::string::npos);
    EXPECT_NE(usage.find("iteration count"), std::string::npos);
    EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(CliParser, UsageShowsRegisteredDefaultsNotParsedValues)
{
    // `--reps=3 --help` used to document "default 3", and --help
    // itself "(bool, default true)".
    CliParser p = makeParser();
    const char *argv[] = {"prog", "--iters=3", "--verbose", "--alpha=2.5",
                          "--combo=hss"};
    p.parse(5, argv);
    const std::string usage = p.usage();
    EXPECT_NE(usage.find("--iters (int, default 100)"), std::string::npos)
        << usage;
    EXPECT_NE(usage.find("--verbose (bool, default false)"),
              std::string::npos);
    EXPECT_NE(usage.find("--alpha (double, default 0.1)"),
              std::string::npos);
    EXPECT_NE(usage.find("--combo (string, default 'sgemm')"),
              std::string::npos);
    EXPECT_EQ(usage.find("default 3"), std::string::npos);
    EXPECT_EQ(usage.find("default true"), std::string::npos);
}

// Every usage error must exit with the shared Usage code (2) and the
// one-line "<prog>: error: ..." format the suite supervisor and shell
// scripts key on.

TEST(CliParserDeathTest, UnknownFlagIsUsageError)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog", "--no-such-flag"};
    EXPECT_EXIT(p.parse(2, argv),
                ::testing::ExitedWithCode(exit_code::Usage),
                "prog: error: unknown flag --no-such-flag");
}

TEST(CliParserDeathTest, MalformedIntIsUsageError)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog", "--iters=abc"};
    EXPECT_EXIT(p.parse(2, argv),
                ::testing::ExitedWithCode(exit_code::Usage),
                "prog: error: .*expects an integer");
}

TEST(CliParserDeathTest, MalformedDoubleIsUsageError)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog", "--alpha=fast"};
    EXPECT_EXIT(p.parse(2, argv),
                ::testing::ExitedWithCode(exit_code::Usage),
                "prog: error: .*expects a number");
}

TEST(CliParserDeathTest, MissingValueIsUsageError)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog", "--iters"};
    EXPECT_EXIT(p.parse(2, argv),
                ::testing::ExitedWithCode(exit_code::Usage),
                "prog: error: .*requires a value");
}

TEST(CliParserDeathTest, IntConstraintRejectsZero)
{
    CliParser p = makeParser();
    p.addFlag("jobs", static_cast<std::int64_t>(1), "workers");
    p.requireIntAtLeast("jobs", 1);
    const char *argv[] = {"prog", "--jobs", "0"};
    EXPECT_EXIT(p.parse(3, argv),
                ::testing::ExitedWithCode(exit_code::Usage),
                "prog: error: --jobs must be >= 1, got 0");
}

TEST(CliParserDeathTest, IntConstraintRejectsNegative)
{
    CliParser p = makeParser();
    p.addFlag("reps", static_cast<std::int64_t>(10), "repetitions");
    p.requireIntAtLeast("reps", 1);
    const char *argv[] = {"prog", "--reps=-3"};
    EXPECT_EXIT(p.parse(2, argv),
                ::testing::ExitedWithCode(exit_code::Usage),
                "prog: error: --reps must be >= 1, got -3");
}

TEST(CliParserDeathTest, DoubleConstraintRejectsNonPositive)
{
    CliParser p = makeParser();
    p.addFlag("deadline-sec", 3600.0, "deadline");
    p.requirePositiveDouble("deadline-sec");
    const char *argv[] = {"prog", "--deadline-sec=0"};
    EXPECT_EXIT(p.parse(2, argv),
                ::testing::ExitedWithCode(exit_code::Usage),
                "prog: error: --deadline-sec must be positive");
}

TEST(CliParser, ConstraintAcceptsValidValues)
{
    CliParser p = makeParser();
    p.addFlag("jobs", static_cast<std::int64_t>(1), "workers");
    p.requireIntAtLeast("jobs", 1);
    p.addFlag("deadline-sec", 3600.0, "deadline");
    p.requirePositiveDouble("deadline-sec");
    const char *argv[] = {"prog", "--jobs=8", "--deadline-sec=0.5"};
    p.parse(3, argv);
    EXPECT_EQ(p.getInt("jobs"), 8);
    EXPECT_DOUBLE_EQ(p.getDouble("deadline-sec"), 0.5);
}

TEST(CliParser, ConstraintOnDefaultValueHolds)
{
    // Constraints apply to the parsed result, not only to explicitly
    // passed flags: a valid default passes untouched.
    CliParser p = makeParser();
    p.addFlag("jobs", static_cast<std::int64_t>(1), "workers");
    p.requireIntAtLeast("jobs", 1);
    const char *argv[] = {"prog"};
    p.parse(1, argv);
    EXPECT_EQ(p.getInt("jobs"), 1);
}

TEST(CliParserDeathTest, WrongTypeAccessPanics)
{
    CliParser p = makeParser();
    const char *argv[] = {"prog"};
    p.parse(1, argv);
    EXPECT_DEATH((void)p.getBool("iters"), "wrong type");
    EXPECT_DEATH((void)p.getInt("never-registered"), "never registered");
}

} // namespace
} // namespace mc
