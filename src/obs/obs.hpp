// Deterministic observability: a metrics registry (counters, gauges,
// fixed-bucket histograms) and a structured span tracer for every layer
// of the pipeline (DESIGN §9).
//
// The contract mirrors the parallel layer's (DESIGN §8): with
// observability enabled in the default *logical-time* mode, every
// exported byte is a pure function of the workload and its seeds —
// identical across repeated runs and across thread counts. That is
// achieved by construction:
//
//   * spans are stamped with *logical* clocks (solver iteration index,
//     scheduler event ordinal, simulator virtual seconds), never the
//     wall clock, and exports sort spans into a canonical order;
//   * counters and histograms hold only integers, so concurrent
//     recording from pool tasks commutes exactly (no floating-point
//     accumulation order to observe); gauges hold doubles and are only
//     written from serial (orchestrating) code;
//   * instrumentation whose value is inherently execution-dependent —
//     thread-pool tasks per worker, wall-clock phase durations — is
//     recorded only in the explicit `wallclock` mode, which is excluded
//     from golden/differential testing.
//
// When observability is off (the default) every record call is a
// relaxed atomic load and a predicted-not-taken branch, so instrumented
// hot paths stay within noise of the uninstrumented code (perfbench/
// README.md times this shipped configuration). Enabling it never
// changes any pipeline result: instruments only accumulate, they are
// never read back by the algorithms (locked by obs_differential_test).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace paradigm::obs {

/// Observability mode. kLogical records deterministic metrics/spans;
/// kWallclock additionally records execution-dependent instruments
/// (real durations, per-worker task counts) and is never golden-tested.
enum class Mode : std::uint8_t { kOff = 0, kLogical = 1, kWallclock = 2 };

namespace detail {
extern std::atomic<std::uint8_t> g_mode;
}  // namespace detail

inline Mode mode() {
  return static_cast<Mode>(detail::g_mode.load(std::memory_order_relaxed));
}
inline bool enabled() { return mode() != Mode::kOff; }
inline bool wallclock_enabled() { return mode() == Mode::kWallclock; }

void set_mode(Mode mode);

/// Parses "off" | "on" | "logical" | "wallclock" ("on" == logical).
/// Throws paradigm::Error on anything else.
Mode parse_mode(const std::string& text);
const char* to_string(Mode mode);

/// Monotonic integer counter. Safe to add from pool tasks: integer
/// addition commutes, so totals are thread-count invariant.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    if (!enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Unconditional add for pre-aggregated values (caller already
  /// checked enabled(), e.g. flushing a per-task local count).
  void add_unchecked(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  bool active() const { return value() != 0; }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value / accumulating double gauge. Only written from serial
/// (orchestrating) code — double accumulation does not commute, so
/// gauges must never be recorded from inside a parallel region.
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  void add(double delta) {
    if (!enabled()) return;
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  bool active() const { return set_.load(std::memory_order_relaxed); }
  void reset() {
    value_.store(0.0, std::memory_order_relaxed);
    set_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

/// Plain-value snapshot of a histogram; the unit of merging.
/// `counts[i]` is the number of observations v with
/// bounds[i-1] < v <= bounds[i]; the final entry counts v > bounds.back()
/// (the implicit +inf bucket), so counts.size() == bounds.size() + 1.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;

  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t c : counts) t += c;
    return t;
  }
  bool operator==(const HistogramData&) const = default;
};

/// Merges two histograms with identical bounds (bucket-wise addition).
/// Associative and commutative, so any merge tree over any partition of
/// the observations yields the same result — property-tested.
HistogramData merge(const HistogramData& a, const HistogramData& b);

/// Fixed-bucket histogram of doubles. Bucket counts are integers, so
/// concurrent observation commutes and the exported state is
/// thread-count invariant. No sum is kept on purpose: a floating-point
/// sum would depend on accumulation order.
class Histogram {
 public:
  /// `bounds` must be strictly increasing upper bucket bounds; an
  /// implicit +inf bucket is appended.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) {
    if (!enabled()) return;
    observe_unchecked(v);
  }
  void observe_unchecked(double v);

  HistogramData snapshot() const;
  std::uint64_t total() const;
  bool active() const { return total() != 0; }
  void reset();
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
};

/// One complete span on a logical timeline. `track` groups spans onto a
/// named row (e.g. "compiler", "solver/start2"); `ts`/`dur` are in the
/// track's logical unit (iterations, event ordinals, simulated seconds)
/// or wall-clock microseconds in wallclock mode.
struct Span {
  std::string track;
  std::string name;
  double ts = 0.0;
  double dur = 0.0;

  bool operator==(const Span&) const = default;
};

/// Append-only span sink. Recording order is free (pool tasks append
/// concurrently); sorted_spans() defines the canonical export order.
class Tracer {
 public:
  static Tracer& global();

  void record(Span span);
  void record(std::string track, std::string name, double ts, double dur) {
    if (!enabled()) return;
    record(Span{std::move(track), std::move(name), ts, dur});
  }

  /// Spans sorted by (track, ts, dur, name) — independent of recording
  /// interleaving, hence of thread count.
  std::vector<Span> sorted_spans() const;
  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process-wide instrument registry. Instruments are created on
/// first use and never deallocated (hot paths hold references across
/// resets); reset() zeroes values only. Exporters skip instruments with
/// no recorded activity, so a prior workload in the same process leaves
/// no residue in the exported bytes.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// On first use registers the histogram with `bounds`; later calls
  /// with the same name must pass identical bounds.
  Histogram& histogram(const std::string& name,
                       std::span<const double> bounds);

  /// Zeroes every instrument (the instruments stay registered).
  void reset();

  struct MetricsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;
  };
  /// Active instruments only, name-sorted (deterministic).
  MetricsSnapshot snapshot() const;

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Resets the registry and the global tracer together (fresh session).
void reset_all();

/// RAII span for a pipeline phase. In logical mode the span is
/// [logical_ts, logical_ts + 1); in wallclock mode it carries real
/// microseconds since the first wallclock span of the process.
class PhaseSpan {
 public:
  PhaseSpan(std::string track, std::string name, double logical_ts);
  ~PhaseSpan();

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  std::string track_;
  std::string name_;
  double logical_ts_;
  double wall_start_us_ = 0.0;
  bool active_ = false;
  bool wall_ = false;
};

/// Exponential bucket bounds `lo, lo*factor, ...` (count entries),
/// for latency/magnitude-style histograms.
std::vector<double> exp_bounds(double lo, double factor, std::size_t count);

/// Linear bucket bounds `lo, lo+step, ...` (count entries).
std::vector<double> linear_bounds(double lo, double step, std::size_t count);

}  // namespace paradigm::obs
