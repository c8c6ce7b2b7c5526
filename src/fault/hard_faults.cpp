#include "fault/hard_faults.h"

#include <cctype>
#include <stdexcept>

namespace rlftnoc {
namespace {

[[noreturn]] void bad_spec(const std::string& item, const char* why) {
  throw std::invalid_argument("hard_faults: bad item '" + item + "': " + why +
                              " (expected link:NODE:P[@CYCLE] or "
                              "router:NODE[@CYCLE])");
}

/// Splits "...@CYCLE" off `body`; returns the cycle (0 when absent).
Cycle take_cycle(std::string& body, const std::string& item) {
  const auto at = body.find('@');
  if (at == std::string::npos) return 0;
  const std::string cyc = body.substr(at + 1);
  body.erase(at);
  if (cyc.empty()) bad_spec(item, "empty cycle after '@'");
  for (const char c : cyc) {
    if (!std::isdigit(static_cast<unsigned char>(c)))
      bad_spec(item, "cycle must be a non-negative integer");
  }
  return static_cast<Cycle>(std::stoull(cyc));
}

NodeId parse_node(const std::string& s, const std::string& item) {
  if (s.empty()) bad_spec(item, "missing node id");
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c)))
      bad_spec(item, "node id must be a non-negative integer");
  }
  const unsigned long long v = std::stoull(s);
  if (v > 0x7FFFFFFFull) bad_spec(item, "node id out of range");
  return static_cast<NodeId>(v);
}

Port parse_port(const std::string& s, const std::string& item) {
  if (s.size() != 1) bad_spec(item, "port must be one of N|S|E|W");
  switch (std::toupper(static_cast<unsigned char>(s[0]))) {
    case 'N': return Port::kNorth;
    case 'S': return Port::kSouth;
    case 'E': return Port::kEast;
    case 'W': return Port::kWest;
    default: break;
  }
  bad_spec(item, "port must be one of N|S|E|W");
}

}  // namespace

std::vector<HardFault> parse_hard_faults(const std::string& spec) {
  std::vector<HardFault> out;
  std::string item;
  const auto flush = [&out, &item]() {
    if (item.empty()) return;
    std::string body = item;
    HardFault f;
    f.at_cycle = take_cycle(body, item);
    const auto colon = body.find(':');
    if (colon == std::string::npos) bad_spec(item, "missing ':' after kind");
    const std::string kind = body.substr(0, colon);
    std::string rest = body.substr(colon + 1);
    if (kind == "link") {
      f.kind = HardFault::Kind::kLink;
      const auto colon2 = rest.find(':');
      if (colon2 == std::string::npos)
        bad_spec(item, "link needs NODE:P");
      f.node = parse_node(rest.substr(0, colon2), item);
      f.port = parse_port(rest.substr(colon2 + 1), item);
    } else if (kind == "router") {
      f.kind = HardFault::Kind::kRouter;
      if (rest.find(':') != std::string::npos)
        bad_spec(item, "router takes only NODE");
      f.node = parse_node(rest, item);
    } else {
      bad_spec(item, "kind must be 'link' or 'router'");
    }
    out.push_back(f);
    item.clear();
  };
  for (const char c : spec) {
    if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else {
      item.push_back(c);
    }
  }
  flush();
  return out;
}

std::string format_option(const std::vector<HardFault>& faults) {
  std::string out;
  for (const HardFault& f : faults) {
    if (!out.empty()) out += ',';
    out += f.kind == HardFault::Kind::kLink ? "link:" : "router:";
    out += std::to_string(f.node);
    if (f.kind == HardFault::Kind::kLink) (out += ':') += port_name(f.port);
    if (f.at_cycle != 0) (out += '@') += std::to_string(f.at_cycle);
  }
  return out;
}

}  // namespace rlftnoc
