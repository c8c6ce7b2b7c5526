#include "common/config.h"

#include <gtest/gtest.h>

namespace rlftnoc {
namespace {

TEST(Config, ParsesBasicPairs) {
  const Config c = Config::from_string("a = 1\nb = hello\nc=3.5\n");
  EXPECT_EQ(c.get_int("a"), 1);
  EXPECT_EQ(c.get_string("b"), "hello");
  EXPECT_DOUBLE_EQ(c.get_double("c"), 3.5);
}

TEST(Config, StripsComments) {
  const Config c = Config::from_string(
      "# full comment line\n"
      "a = 1  # trailing hash\n"
      "b = 2  // trailing slashes\n"
      "\n"
      "   \n");
  EXPECT_EQ(c.get_int("a"), 1);
  EXPECT_EQ(c.get_int("b"), 2);
  EXPECT_EQ(c.keys().size(), 2u);
}

TEST(Config, LaterKeysOverride) {
  const Config c = Config::from_string("a = 1\na = 2\n");
  EXPECT_EQ(c.get_int("a"), 2);
}

TEST(Config, MissingKeyThrows) {
  const Config c = Config::from_string("a = 1\n");
  EXPECT_THROW(c.get_int("missing"), ConfigError);
  EXPECT_THROW(c.get_string("missing"), ConfigError);
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::from_string("no equals sign here\n"), ConfigError);
  EXPECT_THROW(Config::from_string("= value without key\n"), ConfigError);
}

TEST(Config, BadTypesThrow) {
  const Config c = Config::from_string("a = notanint\nb = 1.5x\nc = maybe\n");
  EXPECT_THROW(c.get_int("a"), ConfigError);
  EXPECT_THROW(c.get_double("b"), ConfigError);
  EXPECT_THROW(c.get_bool("c"), ConfigError);
}

TEST(Config, BoolForms) {
  const Config c = Config::from_string(
      "a = true\nb = FALSE\nc = 1\nd = 0\ne = Yes\nf = off\n");
  EXPECT_TRUE(c.get_bool("a"));
  EXPECT_FALSE(c.get_bool("b"));
  EXPECT_TRUE(c.get_bool("c"));
  EXPECT_FALSE(c.get_bool("d"));
  EXPECT_TRUE(c.get_bool("e"));
  EXPECT_FALSE(c.get_bool("f"));
}

TEST(Config, DefaultsOnlyApplyWhenAbsent) {
  const Config c = Config::from_string("a = 7\n");
  EXPECT_EQ(c.get_int("a", 99), 7);
  EXPECT_EQ(c.get_int("b", 99), 99);
  EXPECT_EQ(c.get_string("s", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(c.get_double("d", 2.5), 2.5);
  EXPECT_TRUE(c.get_bool("t", true));
}

TEST(Config, MalformedValueThrowsEvenWithDefault) {
  const Config c = Config::from_string("a = oops\n");
  EXPECT_THROW(c.get_int("a", 1), ConfigError);
}

TEST(Config, IntDoubleDistinction) {
  const Config c = Config::from_string("a = 2.5\n");
  EXPECT_THROW(c.get_int("a"), ConfigError);
  EXPECT_DOUBLE_EQ(c.get_double("a"), 2.5);
}

TEST(Config, NegativeNumbers) {
  const Config c = Config::from_string("a = -42\nb = -1.25\n");
  EXPECT_EQ(c.get_int("a"), -42);
  EXPECT_DOUBLE_EQ(c.get_double("b"), -1.25);
}

TEST(Config, RoundTripThroughToString) {
  const Config c = Config::from_string("a = 1\nb = two\n");
  const Config c2 = Config::from_string(c.to_string());
  EXPECT_EQ(c2.get_int("a"), 1);
  EXPECT_EQ(c2.get_string("b"), "two");
}

TEST(Config, Merge) {
  Config base = Config::from_string("a = 1\nb = 2\n");
  const Config over = Config::from_string("b = 20\nc = 30\n");
  base.merge(over);
  EXPECT_EQ(base.get_int("a"), 1);
  EXPECT_EQ(base.get_int("b"), 20);
  EXPECT_EQ(base.get_int("c"), 30);
}

TEST(Config, SetAndContains) {
  Config c;
  EXPECT_FALSE(c.contains("k"));
  c.set("k", "v");
  EXPECT_TRUE(c.contains("k"));
  EXPECT_EQ(c.get_string("k"), "v");
}

TEST(Config, UnreadKeysAreThoseNoGetterOrContainsTouched) {
  Config c = Config::from_string("a = 1\nb = 2\nc = 3\nd = x\n");
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(c.get_int("a"), 1);
  EXPECT_TRUE(c.contains("b"));                // contains counts as a read
  EXPECT_EQ(c.get_string("zz", "def"), "def");  // absent keys mark nothing
  EXPECT_THROW(c.get_int("d"), ConfigError);    // a failed parse still read it
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"c"}));

  // A new value is unread until something reads it; merged entries too.
  c.set("a", "5");
  c.merge(Config::from_string("e = 1\n"));
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"a", "c", "e"}));
}

TEST(Config, MissingFileThrows) {
  EXPECT_THROW(Config::from_file("/nonexistent/path/to/config"), ConfigError);
}

}  // namespace
}  // namespace rlftnoc
