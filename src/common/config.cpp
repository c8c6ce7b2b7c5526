#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace rlftnoc {
namespace {

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

}  // namespace

Config Config::from_string(std::string_view text) {
  Config cfg;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;

    // Strip comments.
    if (const auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    if (const auto slashes = line.find("//"); slashes != std::string_view::npos)
      line = line.substr(0, slashes);
    line = trim(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string_view::npos)
      throw ConfigError("config line missing '=': '" + std::string(line) + "'");
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) throw ConfigError("config line has empty key");
    cfg.set(std::string(key), std::string(value));
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_string(buf.str());
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = Entry{std::move(value)};
}

bool Config::contains(const std::string& key) const noexcept {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  it->second.read = true;
  return true;
}

const std::string& Config::raw(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) throw ConfigError("missing config key: " + key);
  it->second.read = true;
  return it->second.value;
}

std::string Config::get_string(const std::string& key) const { return raw(key); }

std::int64_t Config::get_int(const std::string& key) const {
  const std::string& v = raw(key);
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec == std::errc::result_out_of_range && ptr == v.data() + v.size())
    throw ConfigError("config key '" + key +
                      "' is out of range for a 64-bit integer: '" + v + "'");
  if (ec != std::errc{} || ptr != v.data() + v.size())
    throw ConfigError("config key '" + key + "' is not an integer: '" + v + "'");
  return out;
}

void Config::throw_out_of_range(const std::string& key, bool negative) const {
  throw ConfigError("config key '" + key + "' " +
                    (negative ? "must not be negative" : "is out of range") +
                    ": '" + raw(key) + "'");
}

double Config::get_double(const std::string& key) const {
  const std::string& v = raw(key);
  try {
    std::size_t consumed = 0;
    const double out = std::stod(v, &consumed);
    if (consumed != v.size()) throw std::invalid_argument(v);
    if (!std::isfinite(out)) throw std::domain_error(v);
    return out;
  } catch (const std::domain_error&) {
    throw ConfigError("config key '" + key + "' is not a finite number: '" + v +
                      "'");
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "' is not a number: '" + v + "'");
  }
}

bool Config::get_bool(const std::string& key) const {
  const std::string v = lower(raw(key));
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw ConfigError("config key '" + key + "' is not a bool: '" + v + "'");
}

std::string Config::get_string(const std::string& key, std::string def) const {
  return contains(key) ? get_string(key) : std::move(def);
}

std::string Config::to_string() const {
  std::ostringstream out;
  for (const auto& [k, e] : entries_) out << k << " = " << e.value << '\n';
  return out.str();
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, e] : entries_) {
    if (!e.read) out.push_back(k);
  }
  return out;
}

}  // namespace rlftnoc
