// Telemetry subsystem: low-overhead event tracing and time-series metrics.
//
// Three pieces, all allocation-free on the hot path once configured:
//
//  * MetricsRegistry — named counter/gauge families with global, per-router
//    or per-router-per-port label scopes, plus whole-run histograms. Values
//    live in one flat slot array; a periodic `sample()` snapshots every slot
//    (counters as per-interval deltas, gauges as-is) into a fixed-capacity
//    TimeSeriesRing. Registration happens once at setup; `freeze()` sizes
//    the buffers and further registration is rejected.
//
//  * EventTracer — a fixed-capacity ring of POD structured events (mode
//    transitions, retransmissions, fault injections, audit violations,
//    epoch rewards, phase changes). When the ring is full the oldest events
//    are overwritten and the drop is counted — never silently.
//
//  * Telemetry — the facade owning both, plus the sampling cadence.
//
// Both rings reserve their whole capacity up front but never initialise it:
// the storage is allocated for overwrite, so the OS commits a page only when
// the first row or event lands in it, and memory follows what a run holds
// rather than the configured capacity. Every reader stays inside
// [0, size()), i.e. touches only slots that were written.
//
// Exporters (Chrome trace-event JSON, metrics TSV, per-router heatmap
// grids, run-manifest JSON) live in telemetry/export.h.
//
// Compile-time no-op: configuring with -DRLFTNOC_TELEMETRY=OFF defines
// RLFTNOC_TELEMETRY_DISABLED, which turns the RLFTNOC_TRACE() hook macro
// into `(void)0` so instrumented hot paths carry zero code. At runtime,
// simulation objects hold a nullable EventTracer*; a null pointer makes
// every hook a single predictable branch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/types.h"

namespace rlftnoc {

/// Knobs for one run's telemetry. The ring sizes are caps, fixed up front
/// (no growth): resident memory follows the rows and events actually held.
struct TelemetryOptions {
  bool enabled = false;
  /// Cycles between metric samples (one TimeSeriesRing row per sample).
  Cycle metrics_interval = 1000;
  /// Ring rows kept; older samples are overwritten (and counted as dropped).
  std::size_t series_rows = 2048;
  /// Event ring capacity; older events are overwritten (counted as dropped).
  std::size_t trace_capacity = 262144;
  /// Directory the exporters write into (created on demand).
  std::string out_dir = "telemetry";
};

// --------------------------------------------------------------------------
// TimeSeriesRing
// --------------------------------------------------------------------------

/// Fixed-capacity ring of (cycle, values[width]) sample rows. All storage is
/// allocated, uninitialised, at construction (pages commit as rows are first
/// written); push_row never allocates.
class TimeSeriesRing {
 public:
  TimeSeriesRing(std::size_t rows, std::size_t width)
      : rows_(rows ? rows : 1),
        width_(width),
        stamps_(std::make_unique_for_overwrite<Cycle[]>(rows_)),
        data_(std::make_unique_for_overwrite<double[]>(rows_ * width_)) {}

  /// Records one sample row; `values` must point at `width()` doubles.
  void push_row(Cycle stamp, const double* values) noexcept {
    const std::size_t slot = (head_ + count_) % rows_;
    stamps_[slot] = stamp;
    double* dst = data_.get() + slot * width_;
    for (std::size_t i = 0; i < width_; ++i) dst[i] = values[i];
    if (count_ < rows_) {
      ++count_;
    } else {
      head_ = (head_ + 1) % rows_;
      ++dropped_;
    }
  }

  std::size_t capacity() const noexcept { return rows_; }
  std::size_t width() const noexcept { return width_; }
  /// Rows currently held (<= capacity).
  std::size_t size() const noexcept { return count_; }
  /// Rows overwritten because the ring was full.
  std::uint64_t dropped_rows() const noexcept { return dropped_; }

  /// Stamp / values of held row `i`, oldest-first (i in [0, size())).
  Cycle stamp(std::size_t i) const noexcept {
    return stamps_[(head_ + i) % rows_];
  }
  const double* row(std::size_t i) const noexcept {
    return data_.get() + ((head_ + i) % rows_) * width_;
  }

 private:
  std::size_t rows_;
  std::size_t width_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::unique_ptr<Cycle[]> stamps_;
  std::unique_ptr<double[]> data_;
};

// --------------------------------------------------------------------------
// MetricsRegistry
// --------------------------------------------------------------------------

/// Counters accumulate and are sampled as per-interval deltas; gauges are
/// sampled as their instantaneous value.
enum class MetricKind : std::uint8_t { kCounter, kGauge };

/// Label scope of one metric family: 1, num_routers, or num_routers x
/// kNumPorts value slots.
enum class MetricScope : std::uint8_t { kGlobal, kPerRouter, kPerRouterPort };

/// Handle returned by registration; indexes the family table.
struct MetricId {
  std::uint32_t family = 0;
};

/// Handle for a registered whole-run histogram.
struct HistogramId {
  std::uint32_t index = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry(int num_routers, std::size_t series_rows)
      : num_routers_(num_routers), series_rows_(series_rows) {}

  /// Registers a metric family. Only valid before freeze().
  MetricId add(MetricKind kind, MetricScope scope, std::string name);
  /// Registers a whole-run histogram (aggregate, not a time series).
  HistogramId add_histogram(std::string name, double lo, double hi,
                            std::size_t buckets);

  /// Allocates the slot arrays and the sample ring; registration closes.
  void freeze();
  bool frozen() const noexcept { return frozen_; }

  // -- hot path (after freeze) --
  /// Sets a slot's current value (gauges) or cumulative value (counters —
  /// feed the running total; sample() turns it into per-interval deltas).
  void set(MetricId id, double v) noexcept { cur_[slot(id, 0, 0)] = v; }
  void set(MetricId id, NodeId router, double v) noexcept {
    cur_[slot(id, router, 0)] = v;
  }
  void set(MetricId id, NodeId router, std::size_t port, double v) noexcept {
    cur_[slot(id, router, port)] = v;
  }
  /// Adds to a slot (counters maintained inside the registry).
  void bump(MetricId id, NodeId router, double v = 1.0) noexcept {
    cur_[slot(id, router, 0)] += v;
  }
  void observe(HistogramId id, double v) noexcept {
    hists_[id.index].add(v);
  }

  /// Snapshots every slot into the ring: counter slots as (cur - prev),
  /// gauge slots verbatim. A counter moving backwards is treated as a
  /// source-counter reset (delta = new cumulative value). One row per call.
  void sample(Cycle now);

  // -- introspection / export --
  struct Family {
    std::string name;
    MetricKind kind;
    MetricScope scope;
    std::size_t base = 0;   ///< first slot index
    std::size_t slots = 0;  ///< slot count (scope-dependent)
  };

  int num_routers() const noexcept { return num_routers_; }
  std::size_t slot_count() const noexcept { return width_; }
  const std::vector<Family>& families() const noexcept { return families_; }
  const TimeSeriesRing& series() const {
    RLFTNOC_CHECK(ring_ != nullptr, "metrics registry sampled before freeze()");
    return *ring_;
  }
  bool has_series() const noexcept { return ring_ != nullptr; }

  /// Resolves slot index -> (family index, router, port); router/port are
  /// -1 where the scope has no such label.
  void slot_labels(std::size_t slot, std::size_t& family, int& router,
                   int& port) const;

  std::size_t histogram_count() const noexcept { return hists_.size(); }
  const std::string& histogram_name(HistogramId id) const {
    return hist_names_[id.index];
  }
  const Histogram& histogram(HistogramId id) const { return hists_[id.index]; }

 private:
  std::size_t scope_slots(MetricScope s) const noexcept {
    switch (s) {
      case MetricScope::kGlobal: return 1;
      case MetricScope::kPerRouter:
        return static_cast<std::size_t>(num_routers_);
      case MetricScope::kPerRouterPort:
        return static_cast<std::size_t>(num_routers_) * kNumPorts;
    }
    return 1;
  }

  std::size_t slot(MetricId id, NodeId router, std::size_t port) const noexcept {
    const Family& f = families_[id.family];
    std::size_t off = 0;
    if (f.scope == MetricScope::kPerRouter) {
      off = static_cast<std::size_t>(router);
    } else if (f.scope == MetricScope::kPerRouterPort) {
      off = static_cast<std::size_t>(router) * kNumPorts + port;
    }
    return f.base + off;
  }

  int num_routers_;
  std::size_t series_rows_;
  bool frozen_ = false;
  std::size_t width_ = 0;
  std::vector<Family> families_;
  std::vector<double> cur_;
  std::vector<double> prev_;
  std::vector<double> row_;  ///< scratch sample row (reused, zero-alloc)
  std::unique_ptr<TimeSeriesRing> ring_;
  std::vector<std::string> hist_names_;
  std::vector<Histogram> hists_;
};

// --------------------------------------------------------------------------
// EventTracer
// --------------------------------------------------------------------------

/// Structured trace event kinds (the Chrome-trace exporter maps these onto
/// slices, instants and counter tracks).
enum class TraceEventKind : std::uint8_t {
  kModeSwitch = 0,   ///< arg = new mode, value = previous mode
  kHopRetx,          ///< link-level NACK-triggered resend; arg = flit seq
  kPreRetxDup,       ///< mode-2 proactive duplicate; arg = flit seq
  kE2eRetx,          ///< end-to-end packet retransmission; arg = flit count
  kFaultInjected,    ///< wire fault; arg = bits flipped
  kNackSent,         ///< ARQ NACK issued; arg = 0 out-of-order, 1 uncorrectable
  kCrcPacketFail,    ///< destination CRC rejected a packet; arg = flit count
  kAuditViolation,   ///< invariant auditor fired (run is about to abort)
  kEpochReward,      ///< control-step reward; value = reward
  kPhaseBegin,       ///< arg = SimPhase
  kLinkKilled,       ///< hard fault severed a link; arg = neighbour node
  kRouterKilled,     ///< hard fault killed a router
};

inline constexpr std::size_t kNumTraceEventKinds = 12;

const char* trace_event_name(TraceEventKind k) noexcept;

/// One trace record. POD, fixed size, so the ring never allocates. No member
/// initialisers: a trivial default constructor lets the ring allocate its
/// slots without writing them (every record sets all fields).
struct TraceEvent {
  Cycle cycle;
  double value;
  std::int32_t arg;
  NodeId node;
  TraceEventKind kind;
  std::int8_t port;  ///< port_index(), or -1 when not port-scoped
};
static_assert(std::is_trivially_default_constructible_v<TraceEvent>);

class EventTracer {
 public:
  explicit EventTracer(std::size_t capacity)
      : capacity_(capacity ? capacity : 1),
        ring_(std::make_unique_for_overwrite<TraceEvent[]>(capacity_)) {}

  void record(TraceEventKind kind, Cycle cycle, NodeId node,
              std::int8_t port = -1, std::int32_t arg = 0,
              double value = 0.0) noexcept {
    const std::size_t slot = (head_ + count_) % capacity_;
    ring_[slot] = TraceEvent{cycle, value, arg, node, kind, port};
    if (count_ < capacity_) {
      ++count_;
    } else {
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return count_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Held event `i`, oldest-first (i in [0, size())).
  const TraceEvent& at(std::size_t i) const noexcept {
    return ring_[(head_ + i) % capacity_];
  }

 private:
  std::size_t capacity_;
  std::unique_ptr<TraceEvent[]> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Growable per-shard staging buffer for trace events produced inside a
/// parallel stepping phase (see Network::step). Each shard records into its
/// own TraceStage with the same record() signature the RLFTNOC_TRACE macro
/// expects; after the phase barrier the stages are drained into the global
/// EventTracer in canonical shard order. Because drain_into replays every
/// staged event (the stage never drops), the tracer's ring content *and*
/// its dropped count end up exactly as if the events had been recorded
/// directly in that order — i.e. bit-identical to the serial stepper.
class TraceStage {
 public:
  void record(TraceEventKind kind, Cycle cycle, NodeId node,
              std::int8_t port = -1, std::int32_t arg = 0,
              double value = 0.0) {
    events_.push_back(TraceEvent{cycle, value, arg, node, kind, port});
  }

  /// Replays all staged events into `sink` (null discards them) and clears.
  void drain_into(EventTracer* sink) {
    drain_range_into(sink, 0, events_.size());
    events_.clear();
  }

  /// Replays events [begin, end) into `sink` without clearing — the fused
  /// merge drains the receive-phase prefix of every shard's stage before
  /// any execute-phase suffix, then clears via clear().
  void drain_range_into(EventTracer* sink, std::size_t begin,
                        std::size_t end) const {
    if (sink == nullptr) return;
    for (std::size_t i = begin; i < end && i < events_.size(); ++i) {
      const TraceEvent& e = events_[i];
      sink->record(e.kind, e.cycle, e.node, e.port, e.arg, e.value);
    }
  }

  void clear() noexcept { events_.clear(); }

  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }

 private:
  std::vector<TraceEvent> events_;
};

// --------------------------------------------------------------------------
// Telemetry facade
// --------------------------------------------------------------------------

class Telemetry {
 public:
  Telemetry(TelemetryOptions opt, int num_routers)
      : opt_(std::move(opt)),
        metrics_(num_routers, opt_.series_rows),
        tracer_(opt_.trace_capacity) {
    if (opt_.metrics_interval == 0) opt_.metrics_interval = 1;
  }

  const TelemetryOptions& options() const noexcept { return opt_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  EventTracer& tracer() noexcept { return tracer_; }
  const EventTracer& tracer() const noexcept { return tracer_; }

  /// True when a metrics sample is due at `now` (fixed-interval cadence).
  bool due(Cycle now) const noexcept { return now >= next_sample_; }

  /// Samples the registry; duplicate stamps (forced end-of-run samples)
  /// collapse into one row so exports stay clean.
  void sample(Cycle now) {
    if (has_sampled_ && now == last_stamp_) return;
    metrics_.sample(now);
    last_stamp_ = now;
    has_sampled_ = true;
    next_sample_ = now + opt_.metrics_interval;
  }

 private:
  TelemetryOptions opt_;
  MetricsRegistry metrics_;
  EventTracer tracer_;
  Cycle next_sample_ = 0;
  Cycle last_stamp_ = 0;
  bool has_sampled_ = false;
};

// --------------------------------------------------------------------------
// Hot-path hook macro
// --------------------------------------------------------------------------

/// Records a trace event through a nullable sink pointer expression — an
/// EventTracer* (direct recording) or a TraceStage* (staged recording inside
/// a parallel stepping phase; see Network::step).
/// Compiles to nothing when telemetry is configured out of the build (the
/// no-op template keeps the arguments "used" so -Wunused stays clean; its
/// trivial arguments fold away entirely under optimization).
#if defined(RLFTNOC_TELEMETRY_DISABLED)
namespace telemetry_detail {
template <typename... Ts>
inline void trace_noop(Ts&&...) noexcept {}
}  // namespace telemetry_detail
#define RLFTNOC_TRACE(sink_expr, ...) \
  ::rlftnoc::telemetry_detail::trace_noop(__VA_ARGS__)
#else
#define RLFTNOC_TRACE(sink_expr, ...)           \
  do {                                          \
    if (auto* rlftnoc_tr_ = (sink_expr))        \
      rlftnoc_tr_->record(__VA_ARGS__);         \
  } while (0)
#endif

}  // namespace rlftnoc
