#include "telemetry/export.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace rlftnoc {
namespace {

#ifndef RLFTNOC_GIT_SHA
#define RLFTNOC_GIT_SHA "unknown"
#endif

/// Formats into a fixed buffer on the caller's stack and hands the stream
/// whole chunks, so a field costs a to_chars or a memcpy, not a std::string
/// and a stream insertion. Doubles print like printf("%.9g") (std::to_chars
/// general, precision 9: locale-independent and deterministic across
/// jobs/threads); integers like ostream's default; strings and chars
/// verbatim. The destructor writes out the rest.
class ChunkWriter {
 public:
  explicit ChunkWriter(std::ostream& out) : out_(out) {}
  ~ChunkWriter() { flush(); }
  ChunkWriter(const ChunkWriter&) = delete;
  ChunkWriter& operator=(const ChunkWriter&) = delete;

  ChunkWriter& operator<<(std::string_view s) {
    if (s.size() > kChunk - used_) {
      flush();
      if (s.size() > kChunk) {
        out_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
      }
    }
    std::memcpy(buf_ + used_, s.data(), s.size());
    used_ += s.size();
    return *this;
  }
  ChunkWriter& operator<<(char c) {
    if (used_ == kChunk) flush();
    buf_[used_++] = c;
    return *this;
  }
  ChunkWriter& operator<<(double v) {
    if (kChunk - used_ < kMaxField) flush();
    used_ = static_cast<std::size_t>(
        std::to_chars(buf_ + used_, buf_ + kChunk, v,
                      std::chars_format::general, 9)
            .ptr -
        buf_);
    return *this;
  }
  template <typename I,
            typename = std::enable_if_t<std::is_integral_v<I> &&
                                        !std::is_same_v<I, char> &&
                                        !std::is_same_v<I, bool>>>
  ChunkWriter& operator<<(I v) {
    if (kChunk - used_ < kMaxField) flush();
    used_ = static_cast<std::size_t>(
        std::to_chars(buf_ + used_, buf_ + kChunk, v).ptr - buf_);
    return *this;
  }

  void flush() {
    out_.write(buf_, static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 14;
  static constexpr std::size_t kMaxField = 40;  // any %.9g double or integer

  std::ostream& out_;
  std::size_t used_ = 0;
  char buf_[kChunk] = {};
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* phase_label(int phase) noexcept {
  switch (phase) {
    case 0: return "pretrain";
    case 1: return "warmup";
    case 2: return "measure";
  }
  return "phase?";
}

/// Emits one trace event line; `first` tracks the JSON array comma state.
class JsonEventSink {
 public:
  explicit JsonEventSink(ChunkWriter& out) : out_(out) {}

  void meta_name(const char* what, int pid, int tid, const std::string& name) {
    sep();
    out_ << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
         << json_escape(name) << "\"}}";
  }

  void begin(Cycle ts, int tid, const char* name) {
    sep();
    out_ << "{\"name\":\"" << name << "\",\"ph\":\"B\",\"ts\":" << ts
         << ",\"pid\":0,\"tid\":" << tid << ",\"cat\":\"mode\"}";
  }

  void end(Cycle ts, int tid) {
    sep();
    out_ << "{\"ph\":\"E\",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << tid
         << ",\"cat\":\"mode\"}";
  }

  void instant(Cycle ts, int tid, const char* name, const char* scope,
               int port, std::int32_t arg) {
    sep();
    out_ << "{\"name\":\"" << name << "\",\"ph\":\"i\",\"s\":\"" << scope
         << "\",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << tid
         << ",\"cat\":\"event\",\"args\":{\"port\":" << port
         << ",\"arg\":" << arg << "}}";
  }

  void counter(Cycle ts, const std::string& name, double value) {
    sep();
    out_ << "{\"name\":\"" << json_escape(name)
         << "\",\"ph\":\"C\",\"ts\":" << ts
         << ",\"pid\":0,\"tid\":0,\"cat\":\"counter\",\"args\":{\"value\":"
         << value << "}}";
  }

 private:
  void sep() {
    if (!first_) out_ << ",\n";
    first_ = false;
  }
  ChunkWriter& out_;
  bool first_ = true;
};

}  // namespace

std::string sanitize_run_label(const std::string& raw) {
  std::string out = raw;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  if (out.empty()) out = "run";
  return out;
}

const char* telemetry_git_sha() noexcept { return RLFTNOC_GIT_SHA; }

void write_chrome_trace(std::ostream& os, const EventTracer& tracer,
                        const TelemetryExportInfo& info) {
  const int num_nodes = info.mesh_width * info.mesh_height;
  const int sim_tid = num_nodes;  // global events (phases, audit context)

  ChunkWriter out(os);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"generator\":\"rlftnoc\",\"git_sha\":\""
      << json_escape(telemetry_git_sha()) << "\",\"workload\":\""
      << json_escape(info.workload) << "\",\"policy\":\""
      << json_escape(info.policy) << "\",\"seed\":" << info.seed
      << ",\"dropped_events\":" << tracer.dropped()
      << ",\"time_unit\":\"1 trace us = 1 cycle\"},\n\"traceEvents\":[\n";

  JsonEventSink sink(out);
  sink.meta_name("process_name", 0, 0, "rlftnoc " + info.workload + "/" +
                                           info.policy);
  for (int r = 0; r < num_nodes; ++r) {
    const int x = r % info.mesh_width;
    const int y = r / info.mesh_width;
    sink.meta_name("thread_name", 0, r,
                   "router " + std::to_string(r) + " (" + std::to_string(x) +
                       "," + std::to_string(y) + ")");
  }
  sink.meta_name("thread_name", 0, sim_tid, "sim");

  // Mode residency renders as B/E slices per router thread: each
  // kModeSwitch closes the previous slice and opens the next one.
  std::vector<int> open_mode(static_cast<std::size_t>(num_nodes), -1);
  Cycle last_ts = 0;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const TraceEvent& e = tracer.at(i);
    last_ts = std::max(last_ts, e.cycle);
    const int tid = (e.node == kInvalidNode || e.node >= num_nodes)
                        ? sim_tid
                        : static_cast<int>(e.node);
    switch (e.kind) {
      case TraceEventKind::kModeSwitch: {
        if (tid == sim_tid) break;  // malformed node; keep the JSON valid
        auto& open = open_mode[static_cast<std::size_t>(tid)];
        if (open >= 0) sink.end(e.cycle, tid);
        const int mode = e.arg & 3;
        sink.begin(e.cycle, tid, op_mode_name(static_cast<OpMode>(mode)));
        open = mode;
        break;
      }
      case TraceEventKind::kEpochReward:
        sink.counter(e.cycle, "reward/r" + std::to_string(tid), e.value);
        break;
      case TraceEventKind::kPhaseBegin:
        sink.instant(e.cycle, sim_tid, phase_label(e.arg), "g", -1, e.arg);
        break;
      default:
        sink.instant(e.cycle, tid, trace_event_name(e.kind), "t", e.port,
                     e.arg);
        break;
    }
  }
  const Cycle close_ts = std::max(info.end_cycle, last_ts);
  for (int r = 0; r < num_nodes; ++r) {
    if (open_mode[static_cast<std::size_t>(r)] >= 0) sink.end(close_ts, r);
  }
  out << "\n]}\n";
}

void write_metrics_tsv(std::ostream& os, const MetricsRegistry& reg) {
  ChunkWriter out(os);
  out << "cycle\tmetric\trouter\tport\tvalue\n";
  if (!reg.has_series()) return;
  const TimeSeriesRing& ring = reg.series();
  const auto& families = reg.families();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Cycle stamp = ring.stamp(i);
    const double* row = ring.row(i);
    for (const MetricsRegistry::Family& f : families) {
      for (std::size_t off = 0; off < f.slots; ++off) {
        int router = -1;
        int port = -1;
        if (f.scope == MetricScope::kPerRouter) {
          router = static_cast<int>(off);
        } else if (f.scope == MetricScope::kPerRouterPort) {
          router = static_cast<int>(off / kNumPorts);
          port = static_cast<int>(off % kNumPorts);
        }
        out << stamp << '\t' << f.name << '\t' << router << '\t' << port
            << '\t' << row[f.base + off] << '\n';
      }
    }
  }
}

void write_histograms_tsv(std::ostream& os, const MetricsRegistry& reg) {
  ChunkWriter out(os);
  out << "metric\tbucket_lo\tbucket_hi\tcount\n";
  for (std::size_t h = 0; h < reg.histogram_count(); ++h) {
    const HistogramId id{static_cast<std::uint32_t>(h)};
    const std::string& name = reg.histogram_name(id);
    const Histogram& hist = reg.histogram(id);
    if (hist.underflow() > 0) {
      out << name << "\t-inf\t" << hist.bucket_lo(0) << '\t'
          << hist.underflow() << '\n';
    }
    for (std::size_t b = 0; b < hist.bucket_count(); ++b) {
      if (hist.bucket(b) == 0) continue;  // sparse: empty buckets are implied
      out << name << '\t' << hist.bucket_lo(b) << '\t' << hist.bucket_lo(b + 1)
          << '\t' << hist.bucket(b) << '\n';
    }
    if (hist.overflow() > 0) {
      out << name << '\t' << hist.bucket_lo(hist.bucket_count()) << "\t+inf\t"
          << hist.overflow() << '\n';
    }
  }
}

void write_heatmap_tsv(std::ostream& os, const HeatmapGrid& grid) {
  ChunkWriter out(os);
  out << "# " << grid.name << ": " << grid.width << " cols (x) x "
      << grid.height << " rows (y), row y=0 first\n";
  for (int y = 0; y < grid.height; ++y) {
    for (int x = 0; x < grid.width; ++x) {
      if (x > 0) out << '\t';
      out << grid.values[static_cast<std::size_t>(y) * grid.width + x];
    }
    out << '\n';
  }
}

void write_manifest_json(std::ostream& os, const TelemetryExportInfo& info,
                         const Telemetry& telemetry,
                         const std::vector<std::string>& files) {
  const MetricsRegistry& reg = telemetry.metrics();
  ChunkWriter out(os);
  out << "{\n"
      << "  \"schema\": \"rlftnoc-telemetry-manifest-v1\",\n"
      << "  \"generator\": \"rlftnoc\",\n"
      << "  \"git_sha\": \"" << json_escape(telemetry_git_sha()) << "\",\n"
      << "  \"workload\": \"" << json_escape(info.workload) << "\",\n"
      << "  \"policy\": \"" << json_escape(info.policy) << "\",\n"
      << "  \"seed\": " << info.seed << ",\n"
      << "  \"mesh\": {\"width\": " << info.mesh_width
      << ", \"height\": " << info.mesh_height << "},\n"
      << "  \"measure\": {\"start_cycle\": " << info.measure_start
      << ", \"end_cycle\": " << info.end_cycle << "},\n"
      << "  \"metrics_interval\": " << telemetry.options().metrics_interval
      << ",\n"
      << "  \"dropped\": {\"trace_events\": " << telemetry.tracer().dropped()
      << ", \"series_rows\": "
      << (reg.has_series() ? reg.series().dropped_rows() : 0) << "},\n";
  out << "  \"options\": {";
  for (std::size_t i = 0; i < info.options.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << json_escape(info.options[i].first) << "\": \""
        << json_escape(info.options[i].second) << '"';
  }
  out << "},\n  \"files\": [";
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << json_escape(files[i]) << '"';
  }
  out << "]\n}\n";
}

std::vector<std::string> export_run_telemetry(
    const Telemetry& telemetry, const TelemetryExportInfo& info,
    const std::vector<HeatmapGrid>& heatmaps) {
  namespace fs = std::filesystem;
  fs::create_directories(info.out_dir);

  auto open = [&](const std::string& name) {
    std::ofstream out(fs::path(info.out_dir) / name,
                      std::ios::out | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("telemetry: cannot write " + info.out_dir +
                               "/" + name);
    }
    return out;
  };

  std::vector<std::string> files;
  {
    const std::string name = info.label + ".trace.json";
    auto out = open(name);
    write_chrome_trace(out, telemetry.tracer(), info);
    files.push_back(name);
  }
  {
    const std::string name = info.label + ".metrics.tsv";
    auto out = open(name);
    write_metrics_tsv(out, telemetry.metrics());
    files.push_back(name);
  }
  {
    const std::string name = info.label + ".hist.tsv";
    auto out = open(name);
    write_histograms_tsv(out, telemetry.metrics());
    files.push_back(name);
  }
  for (const HeatmapGrid& grid : heatmaps) {
    const std::string name = info.label + ".heatmap." + grid.name + ".tsv";
    auto out = open(name);
    write_heatmap_tsv(out, grid);
    files.push_back(name);
  }
  {
    const std::string name = info.label + ".manifest.json";
    auto out = open(name);
    write_manifest_json(out, info, telemetry, files);
    files.push_back(name);
  }
  return files;
}

}  // namespace rlftnoc
