// Minimal typed key=value configuration store.
//
// Experiments are described as flat `key = value` text (BookSim style):
// comments start with '#' or '//', values are bool / int / double / string.
// Typed getters throw ConfigError on missing keys, unparsable values, values
// the destination type cannot hold and non-finite numbers, and
// the store records which keys were read, so a driver can reject a key
// nothing consumed (unread_keys): a typo in an experiment file fails loudly
// instead of silently defaulting.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rlftnoc {

/// Thrown on missing keys or malformed values.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Flat string->string map with typed accessors and defaults.
class Config {
 public:
  Config() = default;

  /// Parses `key = value` lines from text. Later keys override earlier ones.
  static Config from_string(std::string_view text);

  /// Parses a file; throws ConfigError when the file cannot be read.
  static Config from_file(const std::string& path);

  /// Sets / overrides one entry.
  void set(std::string key, std::string value);

  /// True when `key` is present; counts as a read of it.
  bool contains(const std::string& key) const noexcept;

  /// Typed getters that throw when the key is absent.
  std::string get_string(const std::string& key) const;
  std::int64_t get_int(const std::string& key) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;

  /// `key`'s value, or `def` when the key is absent.
  std::string get_string(const std::string& key, std::string def) const;

  /// `key`'s integer value as T, or `def` when the key is absent. Throws
  /// ConfigError naming the key and value when T cannot hold the value — a
  /// negative value for an unsigned T, or one outside T's range.
  template <class T>
  T get_int_as(const std::string& key, T def) const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    if (!contains(key)) return def;
    const std::int64_t v = get_int(key);
    if (!std::in_range<T>(v)) throw_out_of_range(key, std::is_unsigned_v<T> && v < 0);
    return static_cast<T>(v);
  }

  /// Renders the whole config back to `key = value` lines.
  std::string to_string() const;

  /// Keys present but never read by a getter or contains(), in sorted
  /// order. Reads mark entries, so one Config must not be read from two
  /// threads at once.
  std::vector<std::string> unread_keys() const;

 private:
  struct Entry {
    std::string value;
    mutable bool read = false;
  };

  const std::string& raw(const std::string& key) const;
  [[noreturn]] void throw_out_of_range(const std::string& key,
                                       bool negative) const;

  std::map<std::string, Entry> entries_;
};

}  // namespace rlftnoc
