// Declared options. An options struct names each of its config keys once,
// in a visit function:
//
//   template <class V>
//   void visit_options(FooOptions& o, V&& v) {
//     v({"foo.rate", "offered load", 0, 1}, o.rate);
//   }
//
// Everything that handles keys is a visitor over that one list: reading a
// Config (options_from_config), printing `key = value` lines
// (OptionPrinter), the telemetry manifest and the per-key tests. A key's
// default is its field's initialiser.
#pragma once

#include <charconv>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "common/config.h"
#include "common/types.h"

namespace rlftnoc {

/// One declared key. `lo` and `hi` bound a numeric value, inclusively
/// unless `lo_open`; an unset bound is open-ended.
struct OptionSpec {
  const char* key;
  const char* doc;
  std::optional<double> lo{};
  std::optional<double> hi{};
  bool lo_open = false;
  /// False for an execution resource or output path (a thread count, a
  /// directory): it never changes what a run computes, so the telemetry
  /// manifest leaves it out.
  bool recorded = true;
};

/// The config text of `v`, which parses back to the same value (doubles in
/// shortest round-trip form, enums through kSpellings). A field of another
/// type supplies its own format_option and parse_option overloads (see
/// fault/hard_faults.h).
template <class T>
std::string format_option(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else if constexpr (std::is_arithmetic_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    return spelling(v);
  }
}

/// `s`'s range, e.g. ">= 0 and <= 1"; "" when unbounded.
inline std::string range_text(const OptionSpec& s) {
  std::string out;
  if (s.lo) (out += s.lo_open ? "> " : ">= ") += format_option(*s.lo);
  if (s.hi) (out += s.lo ? " and <= " : "<= ") += format_option(*s.hi);
  return out;
}

/// An `O` with every declared key `cfg` holds read over its defaults;
/// `args` follow the visitor into O's visit function. Throws ConfigError
/// naming the key and value when a value is malformed, does not fit its
/// field or lies outside the declared range.
template <class O, class... A>
O options_from_config(const Config& cfg, A&&... args) {
  O o;
  const auto read = [&cfg]<class T>(const OptionSpec& s, T& field) {
    if (!cfg.contains(s.key)) return;
    const std::string text = cfg.get_string(s.key);
    std::string error = "config key '";
    (((error += s.key) += "' = '") += text) += "'";
    if constexpr (std::is_same_v<T, bool>) {
      field = cfg.get_bool(s.key);
    } else if constexpr (std::is_same_v<T, std::string>) {
      field = text;
    } else if constexpr (std::is_arithmetic_v<T>) {
      if constexpr (std::is_floating_point_v<T>) field = cfg.get_double(s.key);
      else field = cfg.get_int_as<T>(s.key, field);
      const auto v = static_cast<double>(field);
      if ((s.lo && (s.lo_open ? v <= *s.lo : v < *s.lo)) || (s.hi && v > *s.hi))
        throw ConfigError((error += " is out of range: ") += range_text(s));
    } else if constexpr (std::is_enum_v<T>) {
      const std::optional<T> v = parse_spelling<T>(text);
      if (!v) throw ConfigError((error += ": not one of ") += spelling_choices<T>());
      field = *v;
    } else {
      try {
        parse_option(text, field);
      } catch (const std::invalid_argument& e) {
        throw ConfigError((error += ": ") += e.what());
      }
    }
  };
  visit_options(o, read, std::forward<A>(args)...);
  return o;
}

/// Visitor that writes one `key = value  # doc, range` line per key, each
/// after `prefix` ("# " prints keys that do not apply as comments).
struct OptionPrinter {
  std::ostream& out;
  const char* prefix = "";

  template <class T>
  void operator()(const OptionSpec& s, const T& field) const {
    out << prefix << s.key << " = " << format_option(field) << "  # " << s.doc;
    if constexpr (std::is_enum_v<T>) out << ": " << spelling_choices<T>();
    if (s.lo || s.hi) out << ", " << range_text(s);
    out << '\n';
  }
};

}  // namespace rlftnoc
