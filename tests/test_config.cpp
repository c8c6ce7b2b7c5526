#include "common/config.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "noc/noc_config.h"

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
  EXPECT_EQ(c.to_string(), "a = 1\nb = 2\n");
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
  EXPECT_EQ(c.get_int_as<std::int64_t>("a", 99), 7);
  EXPECT_EQ(c.get_int_as<std::int64_t>("b", 99), 99);
  EXPECT_EQ(c.get_string("s", "dflt"), "dflt");
}

TEST(Config, MalformedValueThrowsEvenWithDefault) {
  const Config c = Config::from_string("a = oops\n");
  EXPECT_THROW(c.get_int_as<std::int64_t>("a", 1), ConfigError);
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

  // A new value is unread until something reads it.
  c.set("a", "5");
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"a", "c"}));
}

/// Message of the ConfigError `fn` throws; fails the test if none is thrown.
template <class Fn>
std::string config_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ConfigError";
  return "";
}

TEST(Config, ReadRejectsValuesTheFieldTypeCannotHold) {
  const Config c = Config::from_string(
      "neg = -1\nbig = 4294967297\nbyte = 256\nok = 255\nhuge = "
      "99999999999999999999\n");
  std::uint64_t u64 = 7;
  std::string msg = config_error_of([&] { u64 = c.get_int_as("neg", u64); });
  EXPECT_NE(msg.find("'neg'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'-1'"), std::string::npos) << msg;
  EXPECT_EQ(u64, 7u);  // a rejected value leaves the field alone

  int i32 = 0;
  msg = config_error_of([&] { i32 = c.get_int_as("big", i32); });
  EXPECT_NE(msg.find("'big'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("4294967297"), std::string::npos) << msg;

  std::uint8_t u8 = 0;
  EXPECT_THROW(u8 = c.get_int_as("byte", u8), ConfigError);
  u8 = c.get_int_as("ok", u8);
  EXPECT_EQ(u8, 255);

  msg = config_error_of([&] { u64 = c.get_int_as("huge", u64); });
  EXPECT_NE(msg.find("'huge'"), std::string::npos) << msg;
}

TEST(Config, GetIntAsChecksTheTargetType) {
  const Config c = Config::from_string("packets = -1\nbudget_pct = 3\n");
  EXPECT_THROW((void)c.get_int_as<std::uint64_t>("packets", 50), ConfigError);
  EXPECT_EQ(c.get_int_as<std::uint64_t>("budget_pct", 100), 3u);
  EXPECT_EQ(c.get_int_as<std::uint64_t>("absent", 100), 100u);
  EXPECT_EQ(c.get_int_as<std::int32_t>("packets", 0), -1);
}

TEST(Config, NonFiniteDoublesThrow) {
  const Config c =
      Config::from_string("a = nan\nb = inf\nc = -inf\nd = 1e999\ne = 2.5\n");
  for (const char* key : {"a", "b", "c", "d"}) {
    const std::string msg = config_error_of([&] { (void)c.get_double(key); });
    EXPECT_NE(msg.find(std::string("'") + key + "'"), std::string::npos) << msg;
  }
  EXPECT_EQ(c.get_double("e"), 2.5);
}

TEST(NocConfigLimits, NodeCountIsComputedWideAndBounded) {
  NocConfig cfg;
  cfg.mesh_width = 100000;
  cfg.mesh_height = 100000;  // 10^10 nodes: overflows int
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("noc.mesh_width"), std::string::npos) << msg;
    EXPECT_NE(msg.find("noc.mesh_height"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(kMaxNodes)), std::string::npos) << msg;
  }
  cfg.mesh_width = 128;
  cfg.mesh_height = 128;  // configs/mesh128_stress.cfg
  EXPECT_NO_THROW(cfg.validate());
  cfg.mesh_width = 129;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, MissingFileThrows) {
  EXPECT_THROW(Config::from_file("/nonexistent/path/to/config"), ConfigError);
}

}  // namespace
}  // namespace rlftnoc
