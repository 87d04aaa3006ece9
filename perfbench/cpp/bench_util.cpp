#include "bench_util.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>

#include "serve/metrics.hpp"
#include "util/simd.hpp"

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double median(const std::vector<double>& v) {
  return nora::serve::percentile(v, 0.5);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Results::add(const std::string& name, double value,
                  const std::string& unit, bool exact) {
  metrics.push_back({name, value, unit});
  if (exact) deterministic.push_back(name);
}

void Results::gate(bool ok, const std::string& what) {
  if (ok) return;
  gate_failures.push_back(what);
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               what.c_str());
}

double Results::get(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return std::nan("");
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_json(const Results& r) {
  std::string out = "{\"correct\": ";
  out += r.gate_failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += json_str(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_str(m.unit) + "}";
  }
  return out + "}}";
}

HostInfo host_info() {
  HostInfo h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu = line.substr(colon + 1);
        h.cpu.erase(0, h.cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  h.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  h.isa = nora::util::simd::isa_name(nora::util::simd::active());
  const char* forced = std::getenv("NORA_FORCE_SCALAR");
  h.force_scalar = forced != nullptr && std::string(forced) == "1";
  return h;
}

namespace {
volatile double g_probe_sink = 0.0;  // keeps the probe loop observable
}  // namespace

double drift_probe_ms() {
  // A fixed dependent chain of integer and floating-point work: its
  // duration depends only on the core's speed and what else shares it.
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    std::uint64_t x = 88172645463325252ull;
    double acc = 0.0;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 40) * 1e-9;
    }
    g_probe_sink = acc;
    best = std::min(best, (now_s() - t0) * 1e3);
  }
  return best;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------

std::int64_t Tracer::open(const std::string& name, std::int64_t parent,
                          std::int64_t request) {
  if (!enabled_) return -1;
  const double t = now_s();
  spans_.push_back({name, t, t, parent, request});
  busy_s_ += now_s() - t;
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t span) {
  if (span < 0) return;
  const double t = now_s();
  spans_[static_cast<std::size_t>(span)].end = t;
  busy_s_ += now_s() - t;
}

std::int64_t Tracer::record(const std::string& name, double start, double end,
                            std::int64_t parent, std::int64_t request) {
  if (!enabled_) return -1;
  const double t = now_s();
  spans_.push_back({name, start, end, parent, request});
  busy_s_ += now_s() - t;
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Tracer::LayerTime> Tracer::layer_times() const {
  // Children's intervals per parent, merged to their union so that
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, LayerTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo_raw, hi_raw] : iv) {
      const double lo = std::max(lo_raw, s.start);
      const double hi = std::min(hi_raw, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    LayerTime& lt = by_name[s.name];
    lt.name = s.name;
    ++lt.count;
    lt.total_ms += (s.end - s.start) * 1e3;
    lt.self_ms += (s.end - s.start - covered) * 1e3;
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : by_name) out.push_back(lt);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"layers\": [";
  const auto layers = layer_times();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerTime& l = layers[i];
    f << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_str(l.name)
      << ", \"count\": " << l.count << ", \"total_ms\": " << number(l.total_ms)
      << ", \"self_ms\": " << number(l.self_ms) << "}";
  }
  f << "],\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_str(s.name)
      << ", \"start\": " << number(s.start) << ", \"end\": " << number(s.end)
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
