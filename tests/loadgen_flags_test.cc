// Unit tests for tools/loadgen_flags.h: every numeric flag goes through
// the strict common/string_util parsers, so malformed values are
// kInvalidArgument errors naming the flag — never the silent-zero
// behavior of bare strtoull.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/loadgen_flags.h"

namespace autocat {
namespace {

Result<LoadgenConfig> Parse(std::vector<std::string> args) {
  return ParseLoadgenArgs(args);
}

TEST(LoadgenFlagsTest, DefaultsWithNoArgs) {
  auto config = Parse({});
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->threads, 4u);
  EXPECT_EQ(config->deadline_ms, 0);
  // No override unless the flag is given.
  EXPECT_FALSE(config->cache_mb.has_value());
  EXPECT_FALSE(config->seed.has_value());
  EXPECT_FALSE(config->has_scenario());
  EXPECT_FALSE(config->adaptive);
  EXPECT_EQ(config->adapt_every, 64u);
  EXPECT_FALSE(config->paced);
}

TEST(LoadgenFlagsTest, ParsesEveryFlag) {
  // A given --cache-mb or --seed is kept whatever its value, so it
  // overrides the scenario's even at 64 MiB or seed 4242.
  auto config = Parse({"--threads=2", "--deadline-ms=150", "--cache-mb=64",
                       "--seed=4242", "--adaptive", "--adapt-every=32",
                       "--paced", "--scenario=drifting"});
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->threads, 2u);
  EXPECT_EQ(config->deadline_ms, 150);
  ASSERT_TRUE(config->cache_mb.has_value());
  EXPECT_EQ(*config->cache_mb, 64u);
  ASSERT_TRUE(config->seed.has_value());
  EXPECT_EQ(*config->seed, 4242u);
  EXPECT_TRUE(config->adaptive);
  EXPECT_EQ(config->adapt_every, 32u);
  EXPECT_TRUE(config->paced);
  EXPECT_EQ(config->scenario, "drifting");
  EXPECT_TRUE(config->has_scenario());
}

TEST(LoadgenFlagsTest, RejectsMalformedNumbers) {
  // The strtoull this replaced silently parsed all of these to 0 (or to
  // a partial prefix); now each is an error naming the flag.
  for (const char* arg :
       {"--threads=20x", "--threads=", "--threads=x20", "--threads=4 2",
        "--adapt-every=1.5", "--deadline-ms=1e--3", "--deadline-ms=fast",
        "--deadline-ms=12ms", "--seed=0xbeef", "--cache-mb=64MB"}) {
    const auto config = Parse({arg});
    EXPECT_FALSE(config.ok()) << arg << " should not parse";
    // The error must name the offending flag.
    const std::string flag =
        std::string(arg).substr(0, std::string(arg).find('='));
    EXPECT_NE(config.status().message().find(flag), std::string::npos)
        << "error for " << arg
        << " must name the flag: " << config.status().ToString();
  }
}

TEST(LoadgenFlagsTest, RejectsNegativeUnsigned) {
  // strtoull accepts '-5' by wrapping to 2^64-5; strict parsing refuses.
  EXPECT_FALSE(Parse({"--threads=-5"}).ok());
  EXPECT_FALSE(Parse({"--cache-mb=-5"}).ok());
  EXPECT_FALSE(Parse({"--seed=-1"}).ok());
  EXPECT_FALSE(Parse({"--deadline-ms=-1"}).ok());
}

TEST(LoadgenFlagsTest, BoundaryValues) {
  // Max uint64 round-trips; one past it is an out-of-range error.
  auto max = Parse({"--seed=18446744073709551615"});
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->seed, 18446744073709551615ull);
  EXPECT_FALSE(Parse({"--seed=18446744073709551616"}).ok());

  // The cache's byte count (cache_mb << 20) must fit in size_t.
  EXPECT_TRUE(Parse({"--cache-mb=17592186044415"}).ok());
  EXPECT_FALSE(Parse({"--cache-mb=17592186044416"}).ok());

  // Zero-value semantics: allowed where 0 means "no deadline" or "no
  // cache", rejected where it would be degenerate.
  EXPECT_TRUE(Parse({"--deadline-ms=0"}).ok());
  EXPECT_TRUE(Parse({"--cache-mb=0"}).ok());
  EXPECT_FALSE(Parse({"--threads=0"}).ok());
  EXPECT_FALSE(Parse({"--adapt-every=0"}).ok());

  // Strict parsing still trims surrounding whitespace.
  auto padded = Parse({"--threads= 42 "});
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded->threads, 42u);
}

TEST(LoadgenFlagsTest, RejectsUnknownFlags) {
  EXPECT_FALSE(Parse({"--frobnicate=1"}).ok());
  EXPECT_FALSE(Parse({"--threads"}).ok());  // missing '='
  EXPECT_FALSE(Parse({"threads=5"}).ok());  // missing '--'
  const auto config = Parse({"--frobnicate=1"});
  EXPECT_NE(config.status().message().find("--frobnicate=1"),
            std::string::npos);
}

TEST(LoadgenFlagsTest, ScenarioAndFileAreMutuallyExclusive) {
  EXPECT_TRUE(Parse({"--scenario=steady"}).ok());
  EXPECT_TRUE(Parse({"--scenario-file=/tmp/x.scenario"}).ok());
  const auto both =
      Parse({"--scenario=steady", "--scenario-file=/tmp/x.scenario"});
  EXPECT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
}

TEST(LoadgenFlagsTest, UsageMentionsEveryFlag) {
  const std::string usage = LoadgenUsage("loadgen");
  for (const char* flag :
       {"--threads", "--deadline-ms", "--cache-mb", "--seed", "--scenario",
        "--scenario-file", "--adaptive", "--adapt-every", "--paced"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace autocat
