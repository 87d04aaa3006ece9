// Client-side bookkeeping shared by the serving workloads: fixed-size
// per-request timelines observed from the scheduler's event stream, the
// measured window's latency and goodput samples (folded in as the run
// goes, so the benchmark's own memory does not grow with throughput),
// counters read from the scheduler's and the analog layers' public
// stats, the re-serve-alone batch-invariance gate, and the per-layer
// probes.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "nn/transformer.hpp"
#include "serve/scheduler.hpp"
#include "timing/hw_model.hpp"
#include "stack.hpp"

namespace perfbench {

/// One request as its client saw it (times in now_s() seconds). Fixed
/// size: token streams are kept only for the re-serve sample (Replay).
struct Tracked {
  int answer = -1;
  int first_token = -1;
  int n_tokens = 0;
  bool finished = false;  // reached the terminal state kFinished
  double due_s = 0.0;     // scheduled send time (open loop) / submit time
  double submit_s = 0.0;  // when submit() (or the HTTP send) ran
  double first_s = -1.0;
  double last_s = -1.0;
  double gap_sum_ms = 0.0;  // sum of gaps between consecutive tokens
};

/// A request the re-serve gate replays alone: its parameters and the
/// tokens the measured run gave it.
struct Replay {
  nora::serve::RequestParams params;
  std::vector<int> tokens;
  bool finished = false;
};

/// First-token accuracy against the SynthLambada answer (nora_acc).
struct Accuracy {
  std::int64_t scored = 0;
  std::int64_t hits = 0;
  void add(const Tracked& r) {
    ++scored;
    if (r.n_tokens > 0 && r.first_token == r.answer) ++hits;
  }
  double value() const {
    return scored > 0 ? static_cast<double>(hits) / static_cast<double>(scored)
                      : 0.0;
  }
};

/// Fixed latency limits a request must meet to count as goodput.
struct Slo {
  double ttft_ms = 0.0;
  double tpot_ms = 0.0;  // per-request mean gap between tokens
};

/// Latency samples in log-spaced buckets 1% wide from 1e-3 to 1e5 (of
/// whatever unit is added). Fixed size; a quantile is read to within
/// half a bucket.
class LogHistogram {
 public:
  LogHistogram();
  void add(double v);
  std::int64_t count() const { return n_; }
  /// The q-quantile (q in [0,1]) by rank, interpolated inside the
  /// bucket it falls in; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<std::int64_t> counts_;
  std::int64_t n_ = 0;
};

/// A latency quantile is reported only when the window holds at least this
/// many samples beyond it per part (full-size runs; smoke runs report
/// whatever they have).
inline constexpr int kMinTail = 10;

/// The measured window's end-to-end samples. The window [w0, w0 + len]
/// is cut into kParts equal parts; a sample (a token or a first token at
/// its arrival time; a request's TPOT, its mean gap between tokens, and
/// its goodput at its last token) goes to the part it was observed in,
/// and samples outside the window are dropped. Each metric is computed per part and the median across parts
/// is reported, so a host stall confined to a part does not move it.
class WindowStats {
 public:
  static constexpr int kParts = 5;

  /// TTFT runs from the scheduled send time when `from_due`, else from
  /// submit(). A request that did not finish meets no SLO.
  WindowStats(Slo slo, bool from_due);
  /// Open the window; samples observed before this are dropped.
  void start(double w0, double len_s);
  bool started() const { return len_s_ > 0.0; }

  /// One generated token of `r` observed at time t (updates r).
  void on_token(Tracked& r, int token, double t);
  /// `r` reached its terminal state.
  void on_end(Tracked& r, bool finished);

  /// tok_s, ttft_p50/p90, tpot_p50/p90 (ms) and goodput_rps. A quantile
  /// is reported only when the window holds at least `min_tail` samples
  /// beyond it per part (kParts * min_tail in all), so whether it is
  /// reported follows the offered load, not a stall in one part; otherwise
  /// it is left out, with a note on stderr.
  void add_metrics(Results& res, int min_tail) const;
  std::int64_t ttft_samples() const;

 private:
  struct Part {
    std::int64_t tokens = 0;
    std::int64_t good = 0;
    LogHistogram ttft_ms;
    LogHistogram tpot_ms;  // per request: mean gap between its tokens
  };
  Part* part(double t);

  Slo slo_;
  bool from_due_;
  double w0_ = 0.0;
  double len_s_ = 0.0;
  std::vector<Part> parts_;
};

/// The in-process workloads' client. Live requests are held by scheduler
/// id and folded into the window (and nora_acc) when they end; only the
/// re-serve sample's token streams outlive them.
class Timeline {
 public:
  Timeline(WindowStats& window, Tracer& tracer, std::int64_t root)
      : window_(window), tracer_(tracer), root_(root) {}

  /// Record a request that submit() just accepted. `scored`: its first
  /// token counts toward nora_acc; `replay`: its stream is kept for the
  /// re-serve gate.
  void submitted(std::int64_t id, const nora::serve::RequestParams& params,
                 int answer, double due_s, double submit_s, bool scored,
                 bool replay);
  /// Apply one drain_events() batch observed at time t. Returns the
  /// number of tokens it carried. Ids that reached a terminal state are
  /// appended to *terminals when non-null.
  int apply(const std::vector<nora::serve::ServeEvent>& evs, double t,
            std::vector<std::int64_t>* terminals);

  std::int64_t submitted_count() const { return submitted_; }
  std::int64_t finished_count() const { return finished_; }
  const Accuracy& accuracy() const { return acc_; }
  const std::vector<Replay>& replays() const { return replays_; }

 private:
  struct Live {
    Tracked r;
    bool scored = false;
    int replay = -1;  // index into replays_
  };
  WindowStats& window_;
  Tracer& tracer_;
  std::int64_t root_;
  std::unordered_map<std::int64_t, Live> live_;
  std::vector<Replay> replays_;
  Accuracy acc_;
  std::int64_t submitted_ = 0;
  std::int64_t finished_ = 0;
};

/// Open-loop run validity: a generator whose p99 lateness exceeds the
/// TTFT limit fell behind its schedule. The run is kept but flagged in
/// the diagnostics and on stderr.
void check_generator(Context& ctx, const std::vector<double>& late_ms,
                     const Slo& slo);

/// Counters summed over every analog layer's public statistics.
struct CimCounts {
  std::int64_t tile_mvms = 0;
  std::int64_t adc_reads = 0;
  std::int64_t adc_saturations = 0;
  std::int64_t dac_samples = 0;
  std::int64_t dac_clipped = 0;
  std::int64_t bm_retries = 0;
  std::int64_t alpha_count = 0;
};
CimCounts cim_counts(nora::nn::TransformerLM& model);
/// cim.* per-token ratios (tokens = generated or scored tokens).
void add_cim_metrics(Results& res, const CimCounts& c, std::int64_t tokens,
                     bool exact);

/// Re-serve each finished request alone on a fresh scheduler and count
/// those whose tokens differ from what the measured run produced.
int reserve_alone_mismatches(nora::nn::TransformerLM& model,
                             const std::vector<Replay>& sample);

/// serve.* counters read from a Scheduler::metrics() snapshot.
/// `prompt_tokens`: prompt tokens the client submitted over the same span
/// (denominator of the prefix-hit fraction).
void add_serve_metrics(Results& res, const nora::serve::Metrics& m,
                       std::int64_t prompt_tokens, bool exact);
/// serve.step_ms_mean: the scheduler's own wall time per busy step.
void add_step_mean(Results& res, const nora::serve::Metrics& m);
/// sim_* end-to-end metrics and the timing.* per-layer breakdown from
/// the timing co-sim. `tokens`: tokens generated over the same span.
void add_sim_metrics(Results& res, const nora::serve::Metrics& m,
                     const std::vector<nora::timing::LayerTiming>& layers,
                     std::int64_t tokens, bool exact);

/// serve.metrics_call_us_p50 and serve.metrics_call_growth:
/// Scheduler::metrics() timed at a fixed period. Instrumentation: it runs
/// in the traced pass only, and its time counts as tracing overhead.
class MetricsProbe {
 public:
  static constexpr double kPeriodS = 0.05;
  /// A null scheduler makes the probe a no-op (the untraced pass).
  MetricsProbe(const nora::serve::Scheduler* sched, Tracer& tr)
      : sched_(sched), tr_(tr) {}
  /// Time one metrics() call when a period has passed since the last.
  void poll(double now);
  void add_metrics(Results& res) const;

 private:
  const nora::serve::Scheduler* sched_;
  Tracer& tr_;
  double next_s_ = 0.0;
  std::vector<double> us_;
};

/// Per-layer probes on a separately deployed copy of the model:
/// cim.forward_us_per_row.<role>.r{1,8,32} (AnalogMatmul::forward, one
/// layer per role), the paper's protocol through eval::evaluate
/// (eval.examples_per_s) and the bare unkeyed forward
/// (nn.eval_forward_ms_per_example) on seed-drawn SynthLambada examples,
/// shard.plan_ms (plan_cost_model over 2 chips), and core.calibrate_ms on
/// a fresh digital copy.
void add_layer_probes(Results& res, int pool, bool smoke, std::uint64_t seed);

}  // namespace perfbench
