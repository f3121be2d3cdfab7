#include "common/config.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mfg::common {
namespace {

TEST(ConfigTest, FromArgsParsesKeyValues) {
  const char* argv[] = {"prog", "seed=42", "rate=2.5", "name=mfg"};
  auto config = Config::FromArgs(4, argv);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("seed", 0), 42);
  EXPECT_DOUBLE_EQ(config->GetDouble("rate", 0.0), 2.5);
  EXPECT_EQ(config->GetString("name", ""), "mfg");
}

TEST(ConfigTest, FromArgsRejectsBareToken) {
  const char* argv[] = {"prog", "notakeyvalue"};
  EXPECT_FALSE(Config::FromArgs(2, argv).ok());
}

TEST(ConfigTest, FromArgsRejectsEmptyKey) {
  const char* argv[] = {"prog", "=value"};
  EXPECT_FALSE(Config::FromArgs(2, argv).ok());
}

TEST(ConfigTest, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  auto config = Config::FromArgs(1, argv);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("absent", 7), 7);
  EXPECT_DOUBLE_EQ(config->GetDouble("absent", 1.5), 1.5);
  EXPECT_EQ(config->GetString("absent", "d"), "d");
  EXPECT_TRUE(config->GetBool("absent", true));
  EXPECT_FALSE(config->Has("absent"));
}

TEST(ConfigTest, MalformedNumberFallsBackToDefault) {
  Config config;
  config.Set("n", "abc");
  EXPECT_EQ(config.GetInt("n", 9), 9);
  EXPECT_DOUBLE_EQ(config.GetDouble("n", 2.0), 2.0);
}

TEST(ConfigTest, BoolForms) {
  Config config;
  config.Set("a", "true");
  config.Set("b", "0");
  config.Set("c", "yes");
  config.Set("d", "off");
  EXPECT_TRUE(config.GetBool("a", false));
  EXPECT_FALSE(config.GetBool("b", true));
  EXPECT_TRUE(config.GetBool("c", false));
  EXPECT_FALSE(config.GetBool("d", true));
}

TEST(ConfigTest, FromTextWithCommentsAndBlanks) {
  auto config = Config::FromText(
      "# a comment\n"
      "alpha=0.2\n"
      "\n"
      "  beta = spaced\n"
      "gamma=3 # trailing comment\n");
  ASSERT_TRUE(config.ok());
  EXPECT_DOUBLE_EQ(config->GetDouble("alpha", 0.0), 0.2);
  // Note: inner spaces around '=' are preserved in key/value; the line
  // trimming only strips the ends.
  EXPECT_TRUE(config->Has("alpha"));
  EXPECT_EQ(config->GetInt("gamma", 0), 3);
}

TEST(ConfigTest, FromTextRejectsBadLine) {
  EXPECT_FALSE(Config::FromText("justtext\n").ok());
}

TEST(ConfigTest, LaterSetWins) {
  Config config;
  config.Set("k", "1");
  config.Set("k", "2");
  EXPECT_EQ(config.GetInt("k", 0), 2);
  EXPECT_EQ(config.entries().size(), 1u);
}

TEST(ConfigTest, ReadKeysAreNotReportedUnread) {
  const char* argv[] = {"prog", "seed=7", "rate=2.5", "name=mfg", "on=yes"};
  auto config = Config::FromArgs(5, argv);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->UnreadKeys(),
            (std::vector<std::string>{"name", "on", "rate", "seed"}));
  config->GetInt("seed", 0);
  config->GetDouble("rate", 0.0);
  EXPECT_TRUE(config->Has("name"));
  config->GetBool("on", false);
  EXPECT_TRUE(config->UnreadKeys().empty());
}

TEST(ConfigTest, UnreadKeysAreReported) {
  const char* argv[] = {"prog", "seed=7", "extra=1"};
  auto config = Config::FromArgs(3, argv);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("seed", 0), 7);
  // Looking up a key that is not set records nothing.
  EXPECT_EQ(config->GetInt("absent", 3), 3);
  EXPECT_FALSE(config->Has("also_absent"));
  EXPECT_EQ(config->UnreadKeys(), std::vector<std::string>{"extra"});
}

TEST(ConfigTest, TypoedKeyIsReportedWhileTheDefaultRuns) {
  const char* argv[] = {"prog", "contents=64", "requests=100000"};
  auto config = Config::FromArgs(3, argv);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("requests", 0), 100000);
  EXPECT_EQ(config->GetInt("num_contents", 20), 20);
  EXPECT_EQ(config->UnreadKeys(), std::vector<std::string>{"contents"});
}

TEST(ConfigTest, MalformedValueStillCountsAsRead) {
  Config config;
  config.Set("iters", "many");
  EXPECT_EQ(config.GetInt("iters", 5), 5);
  EXPECT_TRUE(config.UnreadKeys().empty());
}

TEST(ConfigTest, CopiesShareTheReadRecord) {
  Config config;
  config.Set("grid", "41");
  config.Set("seed", "1");
  Config local = config;
  local.Set("num_edps", "50");
  EXPECT_EQ(local.GetInt("grid", 0), 41);
  EXPECT_EQ(config.UnreadKeys(), std::vector<std::string>{"seed"});
  EXPECT_EQ(local.UnreadKeys(),
            (std::vector<std::string>{"num_edps", "seed"}));
}

}  // namespace
}  // namespace mfg::common
