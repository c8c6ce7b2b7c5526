#include "workload/workload.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace rlftnoc {
namespace {

// --------------------------------------------------------------------------
// JSON decoding. The format is small and fixed, so this is a hand-rolled
// recursive-descent reader over the schema rather than a generic JSON
// library: it tracks the 1-based line and reports the offending token in
// every failure message (satellite requirement — malformed inputs must be
// diagnosable from the exception alone).
// --------------------------------------------------------------------------

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  Workload read() {
    Workload wl;
    bool saw_schema = false;
    bool saw_transfers = false;
    expect('{');
    if (!try_consume('}')) {
      for (;;) {
        const std::string key = parse_string("object key");
        expect(':');
        if (key == "schema") {
          const int line = line_;
          const std::string schema = parse_string("schema value");
          if (schema != kWorkloadSchema) {
            fail_at(line, "unsupported schema '" + schema + "' (expected '" +
                              std::string(kWorkloadSchema) + "')");
          }
          saw_schema = true;
        } else if (key == "name") {
          wl.name = parse_string("name value");
        } else if (key == "transfers") {
          parse_transfers(wl.transfers);
          saw_transfers = true;
        } else {
          fail("unknown top-level key \"" + key + "\"");
        }
        if (try_consume('}')) break;
        expect(',');
      }
    }
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content after workload object");
    if (!saw_schema) fail("missing required \"schema\" key");
    if (!saw_transfers) fail("missing required \"transfers\" key");
    return wl;
  }

 private:
  void parse_transfers(std::vector<WorkloadTransfer>& out) {
    expect('[');
    if (try_consume(']')) return;
    for (;;) {
      out.push_back(parse_transfer(out.size() + 1));
      if (try_consume(']')) break;
      expect(',');
    }
  }

  WorkloadTransfer parse_transfer(std::size_t ordinal) {
    WorkloadTransfer t;
    bool saw_id = false;
    bool saw_src = false;
    bool saw_dst = false;
    expect('{');
    if (!try_consume('}')) {
      for (;;) {
        const std::string key = parse_string("transfer key");
        expect(':');
        if (key == "id") {
          t.id = parse_u64("id");
          saw_id = true;
        } else if (key == "src") {
          t.src = parse_node("src");
          saw_src = true;
        } else if (key == "dst") {
          t.dst = parse_node("dst");
          saw_dst = true;
        } else if (key == "len") {
          const std::uint64_t v = parse_u64("len");
          if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
            fail("transfer \"len\" out of range");
          }
          t.len = static_cast<int>(v);
        } else if (key == "earliest_cycle") {
          t.earliest_cycle = parse_u64("earliest_cycle");
        } else if (key == "deps") {
          expect('[');
          if (!try_consume(']')) {
            for (;;) {
              t.deps.push_back(parse_u64("deps entry"));
              if (try_consume(']')) break;
              expect(',');
            }
          }
        } else {
          fail("unknown transfer key \"" + key + "\" (transfer #" +
               std::to_string(ordinal) + ")");
        }
        if (try_consume('}')) break;
        expect(',');
      }
    }
    if (!saw_id || !saw_src || !saw_dst) {
      fail("transfer #" + std::to_string(ordinal) +
           " missing required key (need \"id\", \"src\", \"dst\")");
    }
    return t;
  }

  NodeId parse_node(const char* what) {
    bool neg = false;
    const std::uint64_t mag = parse_integer(what, &neg);
    const std::int64_t v =
        neg ? -static_cast<std::int64_t>(mag) : static_cast<std::int64_t>(mag);
    if (v < std::numeric_limits<NodeId>::min() ||
        v > std::numeric_limits<NodeId>::max()) {
      fail(std::string("\"") + what + "\" out of NodeId range");
    }
    return static_cast<NodeId>(v);
  }

  std::uint64_t parse_u64(const char* what) {
    bool neg = false;
    const std::uint64_t v = parse_integer(what, &neg);
    if (neg) fail(std::string("\"") + what + "\" must be non-negative");
    return v;
  }

  /// Unsigned magnitude plus sign flag; rejects anything that is not a plain
  /// decimal integer (floats, hex, leading junk).
  std::uint64_t parse_integer(const char* what, bool* neg) {
    skip_ws();
    const std::size_t start = pos_;
    *neg = false;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      *neg = true;
      ++pos_;
    }
    std::uint64_t v = 0;
    std::size_t digits = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      const std::uint64_t d = static_cast<std::uint64_t>(s_[pos_] - '0');
      if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) {
        pos_ = start;
        fail(std::string("\"") + what + "\" overflows 64 bits");
      }
      v = v * 10 + d;
      ++pos_;
      ++digits;
    }
    if (digits == 0 ||
        (pos_ < s_.size() && (s_[pos_] == '.' || s_[pos_] == 'e' ||
                              s_[pos_] == 'E' || is_token_char(s_[pos_])))) {
      pos_ = start;
      fail(std::string("expected integer for \"") + what + "\"");
    }
    return v;
  }

  std::string parse_string(const char* what) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      fail(std::string("expected string for ") + what);
    }
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\n') {
        --pos_;
        fail("unterminated string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              pos_ -= 1;
              fail("bad hex digit in \\u escape");
            }
          }
          // The writer only emits \u00XX for control bytes; decoding is
          // limited to that range (other code points round-trip as UTF-8
          // bytes without escaping).
          if (code > 0xFF) fail("unsupported \\u escape above \\u00ff");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          pos_ -= 1;
          fail("bad escape character");
      }
    }
    fail("unterminated string");
    return out;  // unreachable
  }

  static bool is_token_char(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
           c == '+';
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\n') {
        ++line_;
      } else if (c != ' ' && c != '\t' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// The token at the current position, for error messages.
  std::string current_token() const {
    if (pos_ >= s_.size()) return "<end of input>";
    const char c = s_[pos_];
    if (!is_token_char(c)) {
      if (c == '\n') return "<newline>";
      return std::string(1, c);
    }
    std::size_t end = pos_;
    while (end < s_.size() && is_token_char(s_[end]) && end - pos_ < 24) ++end;
    return s_.substr(pos_, end - pos_);
  }

  [[noreturn]] void fail(const std::string& msg) const { fail_at(line_, msg); }

  [[noreturn]] void fail_at(int line, const std::string& msg) const {
    throw WorkloadError("workload json line " + std::to_string(line) + ": " +
                        msg + ", got '" + current_token() + "'");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(static_cast<unsigned char>(c) >> 4U) & 0xFU]);
          out.push_back(kHex[static_cast<unsigned char>(c) & 0xFU]);
        } else {
          out.push_back(c);
        }
    }
  }
}

// --------------------------------------------------------------------------
// Binary encoding: explicit little-endian fixed-width fields, so files are
// byte-identical across hosts regardless of native endianness.
// --------------------------------------------------------------------------

constexpr std::size_t kMagicLen = 8;
constexpr std::uint32_t kBinaryVersion = 1;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8U * static_cast<unsigned>(i))) & 0xFFU));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8U * static_cast<unsigned>(i))) & 0xFFU));
  }
}

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& buf) : s_(buf), pos_(kMagicLen) {}

  Workload read() {
    Workload wl;
    const std::uint32_t version = get_u32("version");
    if (version != kBinaryVersion) {
      throw WorkloadError("workload binary: unsupported version " +
                          std::to_string(version));
    }
    const std::uint64_t name_len = get_u64("name length");
    wl.name = get_bytes(name_len, "name");
    const std::uint64_t count = get_u64("transfer count");
    wl.transfers.reserve(sane_count(count, "transfer count"));
    for (std::uint64_t i = 0; i < count; ++i) {
      WorkloadTransfer t;
      t.id = get_u64("transfer id");
      t.src = static_cast<NodeId>(get_u32("src"));
      t.dst = static_cast<NodeId>(get_u32("dst"));
      t.len = static_cast<int>(get_u32("len"));
      t.earliest_cycle = get_u64("earliest_cycle");
      const std::uint64_t ndeps = get_u64("dep count");
      t.deps.reserve(sane_count(ndeps, "dep count"));
      for (std::uint64_t d = 0; d < ndeps; ++d) {
        t.deps.push_back(get_u64("dep id"));
      }
      wl.transfers.push_back(std::move(t));
    }
    if (pos_ != s_.size()) {
      throw WorkloadError("workload binary: " +
                          std::to_string(s_.size() - pos_) +
                          " trailing bytes after last transfer");
    }
    return wl;
  }

 private:
  /// A declared count cannot exceed the bytes actually present — rejects
  /// corrupt headers before reserve() turns them into an allocation bomb.
  std::size_t sane_count(std::uint64_t count, const char* what) const {
    if (count > s_.size()) {
      throw WorkloadError(std::string("workload binary: implausible ") + what +
                          " " + std::to_string(count));
    }
    return static_cast<std::size_t>(count);
  }

  std::uint32_t get_u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(s_[pos_ + static_cast<std::size_t>(i)]))
           << (8U * static_cast<unsigned>(i));
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t get_u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s_[pos_ + static_cast<std::size_t>(i)]))
           << (8U * static_cast<unsigned>(i));
    }
    pos_ += 8;
    return v;
  }

  std::string get_bytes(std::uint64_t n, const char* what) {
    need(sane_count(n, what), what);
    std::string out = s_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

  void need(std::size_t n, const char* what) const {
    if (pos_ + n > s_.size()) {
      throw WorkloadError(std::string("workload binary: truncated reading ") +
                          what + " at byte offset " + std::to_string(pos_));
    }
  }

  const std::string& s_;
  std::size_t pos_;
};

std::string workload_to_binary(const Workload& wl) {
  std::string out;
  out += kWorkloadBinaryMagic;
  put_u32(out, kBinaryVersion);
  put_u64(out, wl.name.size());
  out += wl.name;
  put_u64(out, wl.transfers.size());
  for (const WorkloadTransfer& t : wl.transfers) {
    put_u64(out, t.id);
    put_u32(out, static_cast<std::uint32_t>(t.src));
    put_u32(out, static_cast<std::uint32_t>(t.dst));
    put_u32(out, static_cast<std::uint32_t>(t.len));
    put_u64(out, t.earliest_cycle);
    put_u64(out, t.deps.size());
    for (const std::uint64_t d : t.deps) put_u64(out, d);
  }
  return out;
}

}  // namespace

std::string workload_to_json(const Workload& wl) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"";
  out += kWorkloadSchema;
  out += "\",\n";
  out += "  \"name\": \"";
  append_escaped(out, wl.name);
  out += "\",\n";
  if (wl.transfers.empty()) {
    out += "  \"transfers\": []\n";
  } else {
    out += "  \"transfers\": [\n";
    for (std::size_t i = 0; i < wl.transfers.size(); ++i) {
      const WorkloadTransfer& t = wl.transfers[i];
      out += "    {\"id\": " + std::to_string(t.id);
      out += ", \"src\": " + std::to_string(t.src);
      out += ", \"dst\": " + std::to_string(t.dst);
      out += ", \"len\": " + std::to_string(t.len);
      out += ", \"earliest_cycle\": " + std::to_string(t.earliest_cycle);
      out += ", \"deps\": [";
      for (std::size_t d = 0; d < t.deps.size(); ++d) {
        if (d != 0) out += ", ";
        out += std::to_string(t.deps[d]);
      }
      out += "]}";
      out += (i + 1 == wl.transfers.size()) ? "\n" : ",\n";
    }
    out += "  ]\n";
  }
  out += "}\n";
  return out;
}

bool looks_like_workload_path(const std::string& selector) {
  const auto ends_with = [&selector](const char* suf) {
    const std::size_t n = std::char_traits<char>::length(suf);
    return selector.size() >= n &&
           selector.compare(selector.size() - n, n, suf) == 0;
  };
  return selector.find('/') != std::string::npos || ends_with(".json") ||
         ends_with(".wkb");
}

Workload read_workload(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (text.size() >= kMagicLen &&
      text.compare(0, kMagicLen, kWorkloadBinaryMagic) == 0) {
    return BinaryReader(text).read();
  }
  return JsonReader(text).read();
}

Workload read_workload_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw WorkloadError("cannot open workload file: " + path);
  return read_workload(in);
}

Workload read_trace(std::istream& in) {
  Workload wl;
  wl.name = "trace";
  std::string line;
  std::size_t line_no = 0;
  Cycle prev = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos)
      continue;  // blank / comment-only line
    std::istringstream ls(line);
    const auto fail = [&line_no](const std::string& msg) {
      return WorkloadError("trace line " + std::to_string(line_no) + ": " +
                           msg);
    };
    // A line with content must parse as exactly 'cycle src dst len'; a field
    // that fails is re-extracted as a string so the error quotes it.
    const auto expected = [&](const char* field) {
      ls.clear();
      std::string token;
      if (!(ls >> token)) token = "<end of line>";
      return fail(std::string("expected ") + field + ", got '" + token + "'");
    };
    WorkloadTransfer t;
    t.id = wl.transfers.size() + 1;
    if (!(ls >> t.earliest_cycle)) throw expected("cycle");
    if (!(ls >> t.src)) throw expected("src");
    if (!(ls >> t.dst)) throw expected("dst");
    if (!(ls >> t.len)) throw expected("len");
    std::string trailing;
    if (ls >> trailing)
      throw fail("trailing token '" + trailing + "' after 'cycle src dst len'");
    if (t.earliest_cycle < prev) throw fail("cycles not sorted");
    if (t.len < 1) throw fail("non-positive packet length");
    prev = t.earliest_cycle;
    wl.transfers.push_back(std::move(t));
  }
  return wl;
}

Workload read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw WorkloadError("cannot open trace file: " + path);
  return read_trace(in);
}

void write_workload(std::ostream& out, const Workload& wl,
                    WorkloadFormat format) {
  const std::string bytes = format == WorkloadFormat::kBinary
                                ? workload_to_binary(wl)
                                : workload_to_json(wl);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void write_workload_file(const std::string& path, const Workload& wl) {
  const bool binary =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".wkb") == 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw WorkloadError("cannot open workload file for write: " + path);
  write_workload(out, wl,
                 binary ? WorkloadFormat::kBinary : WorkloadFormat::kJson);
  out.flush();
  if (!out) throw WorkloadError("failed writing workload file: " + path);
}

void validate_workload(const Workload& wl, int num_nodes) {
  const std::size_t n = wl.transfers.size();
  // Lookup-only map (never iterated): id -> index in wl.transfers.
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    const WorkloadTransfer& t = wl.transfers[i];
    if (t.id == 0) {
      throw WorkloadError("workload transfer #" + std::to_string(i + 1) +
                          ": id 0 is reserved");
    }
    if (!index.emplace(t.id, i).second) {
      throw WorkloadError("workload: duplicate transfer id " +
                          std::to_string(t.id));
    }
  }
  for (const WorkloadTransfer& t : wl.transfers) {
    if (t.src < 0 || t.src >= num_nodes) {
      throw WorkloadError("workload transfer id " + std::to_string(t.id) +
                          ": src " + std::to_string(t.src) +
                          " is not a node of this " +
                          std::to_string(num_nodes) + "-node network");
    }
    if (t.dst < 0 || t.dst >= num_nodes) {
      throw WorkloadError("workload transfer id " + std::to_string(t.id) +
                          ": dst " + std::to_string(t.dst) +
                          " is not a node of this " +
                          std::to_string(num_nodes) + "-node network");
    }
    if (t.src == t.dst) {
      throw WorkloadError("workload transfer id " + std::to_string(t.id) +
                          ": self-transfer (src == dst == " +
                          std::to_string(t.src) + ")");
    }
    if (t.len < 1) {
      throw WorkloadError("workload transfer id " + std::to_string(t.id) +
                          ": len must be >= 1 (got " + std::to_string(t.len) +
                          ")");
    }
    for (const std::uint64_t dep : t.deps) {
      if (dep == t.id) {
        throw WorkloadError("workload transfer id " + std::to_string(t.id) +
                            ": depends on itself");
      }
      if (index.find(dep) == index.end()) {
        throw WorkloadError("workload transfer id " + std::to_string(t.id) +
                            ": unknown dependency id " + std::to_string(dep));
      }
    }
  }

  // Cycle detection: Kahn's algorithm over the dependency DAG. Any transfer
  // left with unresolved in-degree sits on (or downstream of) a cycle.
  std::vector<std::uint32_t> indeg(n, 0);
  std::vector<std::vector<std::uint32_t>> dependents(n);
  for (std::size_t i = 0; i < n; ++i) {
    const WorkloadTransfer& t = wl.transfers[i];
    indeg[i] = static_cast<std::uint32_t>(t.deps.size());
    for (const std::uint64_t dep : t.deps) {
      dependents[index.find(dep)->second].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
  std::vector<std::uint32_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::uint32_t i = ready.back();
    ready.pop_back();
    ++processed;
    for (const std::uint32_t d : dependents[i]) {
      if (--indeg[d] == 0) ready.push_back(d);
    }
  }
  if (processed != n) {
    std::vector<std::uint64_t> stuck;
    for (std::size_t i = 0; i < n; ++i) {
      if (indeg[i] != 0) stuck.push_back(wl.transfers[i].id);
    }
    std::sort(stuck.begin(), stuck.end());
    std::string msg = "workload: dependency cycle involving transfer ids ";
    const std::size_t show = std::min<std::size_t>(stuck.size(), 8);
    for (std::size_t i = 0; i < show; ++i) {
      if (i != 0) msg += ", ";
      msg += std::to_string(stuck[i]);
    }
    if (stuck.size() > show) {
      msg += " (+" + std::to_string(stuck.size() - show) + " more)";
    }
    throw WorkloadError(msg);
  }
}

}  // namespace rlftnoc
