// Minimal typed key=value configuration store.
//
// Experiments are described as flat `key = value` text (BookSim style):
// comments start with '#' or '//', values are bool / int / double / string.
// Typed getters throw ConfigError on missing keys or unparsable values, and
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

  /// Typed getters with a default for absent keys (malformed still throws).
  std::string get_string(const std::string& key, std::string def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Overwrites `field` with `key`'s value, parsed as the field's type,
  /// when the key is present; an absent key keeps the default in `field`.
  template <class T>
  void read(const std::string& key, T& field) const {
    if constexpr (std::is_same_v<T, bool>) {
      field = get_bool(key, field);
    } else if constexpr (std::is_floating_point_v<T>) {
      field = get_double(key, field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      field = get_string(key, field);
    } else {
      field = static_cast<T>(get_int(key, static_cast<std::int64_t>(field)));
    }
  }

  /// All keys in sorted order (for dumping the effective config).
  std::vector<std::string> keys() const;

  /// Renders the whole config back to `key = value` lines.
  std::string to_string() const;

  /// Merges `other` into this config; other's entries win.
  void merge(const Config& other);

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

  std::map<std::string, Entry> entries_;
};

}  // namespace rlftnoc
