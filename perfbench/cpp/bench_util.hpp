// Shared plumbing for the perfbench program: clocks, quantiles, the
// result table, host fingerprint + drift probe, and the in-memory span
// tracer used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since a process-wide epoch (first call).
double now_s();

/// Median (serve::percentile at 0.5); 0 on empty.
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// One named metric as printed on the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric table plus run-level accounting.
struct Results {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;
  /// Correctness-gate failures (each also printed to stderr).
  std::vector<std::string> gate_failures;
  /// Names of metrics that are exact functions of the seed.
  std::vector<std::string> deterministic;

  void add(const std::string& name, double value, const std::string& unit,
           bool exact = false);
  /// Record a correctness gate; a failing gate makes the run incorrect.
  void gate(bool ok, const std::string& what);
  double get(const std::string& name) const;
};

/// The benchmark's final line: {"correct","attempted","failed","metrics"}.
std::string result_json(const Results& r);

/// Host fingerprint: CPU model, nproc, SIMD path.
struct HostInfo {
  std::string cpu;
  int nproc = 1;
  std::string isa;
  bool force_scalar = false;
};
HostInfo host_info();

/// Time a fixed single-core reference loop (ms, best of three). A
/// diagnostic of host speed, recorded before and after each run.
double drift_probe_ms();

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();

/// Minimal JSON string escaping for diagnostics.
std::string json_str(const std::string& s);

// ---------------------------------------------------------------------
// Span tracer. Spans are recorded only while enabled (the traced run);
// each has a name, start/end (seconds on now_s()), the index of the
// span that caused it, and a request id shared by a request's spans.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  // index into the span list, -1 = root
  std::int64_t request = -1;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  /// Open a span; returns its index (or -1 when disabled).
  std::int64_t open(const std::string& name, std::int64_t parent = -1,
                    std::int64_t request = -1);
  void close(std::int64_t span);
  /// A complete span from already-taken timestamps.
  std::int64_t record(const std::string& name, double start, double end,
                      std::int64_t parent = -1, std::int64_t request = -1);
  const std::vector<Span>& spans() const { return spans_; }
  /// Wall time spent inside open/close/record so far, plus what charge()
  /// added: the cost of tracing, measured directly.
  double busy_s() const { return busy_s_; }
  /// Count `s` seconds of a probe that runs only when tracing is on.
  void charge(double s) {
    if (enabled_) busy_s_ += s;
  }

  /// Per span name: count, total and self time (ms). Self time is the
  /// span's duration minus the union of its children's intervals.
  struct LayerTime {
    std::string name;
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<LayerTime> layer_times() const;

  /// Write every span plus the per-layer summary as JSON.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  double busy_s_ = 0.0;
};

/// RAII span on a tracer (no-op when the tracer is disabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, std::int64_t parent = -1,
             std::int64_t request = -1)
      : t_(t), id_(t.open(name, parent, request)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

}  // namespace perfbench
