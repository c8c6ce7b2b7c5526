// Versioned dependency-aware workload format (`rlftnoc-workload-v1`).
//
// A workload is a directed acyclic graph of transfers. Each transfer names a
// source and destination node, a length in flits, the earliest cycle it may
// inject (relative to the start of the workload's injection window), and a
// list of transfer ids it depends on. The replay engine (workload/replay.h)
// holds a transfer until every dependency's end-to-end completion has been
// observed through the network's packet-resolution feed (noc/completion.h),
// which makes closed-loop, tt-npe-style workloads possible; a workload with
// no deps replays open-loop.
//
// On-disk encodings:
//  * JSON (canonical): `{"schema": "rlftnoc-workload-v1", "name": ...,
//    "transfers": [{"id", "src", "dst", "len", "earliest_cycle",
//    "deps": [...]}, ...]}`. write_workload emits one fixed, key-ordered
//    layout so the bytes are deterministic and write -> read -> write is the
//    identity on bytes.
//  * Binary (compact variant): magic "RLWKBIN1" followed by explicitly
//    little-endian fixed-width fields; ~4-8x smaller for recorder output of
//    long runs. read_workload sniffs the magic, so loaders never need to be
//    told which encoding a file uses.
//
// Import-only text trace: one packet per line, `cycle src dst len`, sorted
// by cycle, with '#' comments — the shape of gem5-captured PARSEC traces the
// paper replays. read_trace turns it into a dependency-free workload.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace rlftnoc {

inline constexpr const char* kWorkloadSchema = "rlftnoc-workload-v1";
/// Magic prefix of the compact binary encoding (8 bytes, no terminator).
inline constexpr const char* kWorkloadBinaryMagic = "RLWKBIN1";

/// One transfer in the workload graph. Ids are arbitrary non-zero u64 values,
/// unique within a workload; `deps` lists ids that must complete end-to-end
/// before this transfer becomes eligible for injection.
struct WorkloadTransfer {
  std::uint64_t id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int len = 1;                  ///< flits, >= 1
  Cycle earliest_cycle = 0;     ///< relative to the injection-window start
  std::vector<std::uint64_t> deps;

  friend bool operator==(const WorkloadTransfer& a,
                         const WorkloadTransfer& b) noexcept {
    return a.id == b.id && a.src == b.src && a.dst == b.dst && a.len == b.len &&
           a.earliest_cycle == b.earliest_cycle && a.deps == b.deps;
  }
};

struct Workload {
  std::string name;
  std::vector<WorkloadTransfer> transfers;

  friend bool operator==(const Workload& a, const Workload& b) noexcept {
    return a.name == b.name && a.transfers == b.transfers;
  }
};

/// Parse / validation failure. Messages carry the 1-based JSON line and the
/// offending token (parse errors) or the offending transfer ids (semantic
/// errors), so a bad workload file is diagnosable without a debugger.
class WorkloadError : public std::runtime_error {
 public:
  explicit WorkloadError(const std::string& what) : std::runtime_error(what) {}
};

/// Static validation: duplicate / zero ids, node range (against `num_nodes`),
/// self-transfers, non-positive lengths, unknown dependency ids, and
/// dependency cycles (Kahn's algorithm; the error names transfers on a
/// cycle). Throws WorkloadError; returns normally iff the workload is a
/// well-formed DAG ready for replay.
void validate_workload(const Workload& wl, int num_nodes);

/// Reads either encoding (binary when the stream starts with the magic,
/// JSON otherwise). Throws WorkloadError with line/token context on parse
/// failure. Performs structural decoding only — run validate_workload for
/// graph-level checks.
Workload read_workload(std::istream& in);
Workload read_workload_file(const std::string& path);

/// Imports a `cycle src dst len` text trace as a dependency-free workload
/// named "trace": transfer ids are 1..N in file order and each record's
/// cycle becomes its earliest_cycle (so trace cycles count from the start of
/// the injection window). Throws WorkloadError naming the 1-based line and
/// quoting the offending token on malformed lines, unsorted cycles or a
/// non-positive length. Node ranges are left to validate_workload.
Workload read_trace(std::istream& in);
Workload read_trace_file(const std::string& path);

enum class WorkloadFormat {
  kJson,
  kBinary,
};

/// Writes the canonical byte-deterministic encoding.
void write_workload(std::ostream& out, const Workload& wl,
                    WorkloadFormat format = WorkloadFormat::kJson);
/// Writes to `path`; format defaults to binary for `.wkb` paths and JSON
/// otherwise. Throws WorkloadError when the file cannot be written.
void write_workload_file(const std::string& path, const Workload& wl);

/// Canonical JSON serialization as a string (exact bytes write_workload
/// emits for WorkloadFormat::kJson).
std::string workload_to_json(const Workload& wl);

/// True when a workload selector string names a workload *file* rather than
/// a generator: any path-looking value (contains '/') or a .json / .wkb
/// suffix. Shared by the CLI and the campaign runner so both resolve
/// selectors identically.
bool looks_like_workload_path(const std::string& selector);

}  // namespace rlftnoc
