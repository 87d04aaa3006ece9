// The serving stack every workload sets up: the opt-2.7b-sim zoo model,
// loaded from the warm checkpoint cache, NORA-calibrated (lambda 0.5) and
// deployed on the paper's Table II tiles, optionally sharded over a
// cost-model-chosen multi-chip plan. Also the SynthLambada-shaped prompt
// generators whose answers score nora_acc.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/synthlambada.hpp"
#include "model/families.hpp"
#include "nn/transformer.hpp"
#include "shard/chip_set.hpp"
#include "shard/plan.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline constexpr const char* kModelName = "opt-2.7b-sim";
inline constexpr float kNoraLambda = 0.5f;
inline constexpr std::uint64_t kDeploySeed = 2025;

/// Run-wide knobs shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  int pool = 0;  // pool-width override; 0 = the workload's default
  std::string out_dir;
};

/// Everything one workload run produces: metrics, accounting, spans,
/// diagnostics (key -> JSON value).
struct Context {
  Options opt;
  Results res;
  Tracer tracer;
  std::vector<std::pair<std::string, std::string>> diag;
  void note(const std::string& key, const std::string& json_value) {
    diag.emplace_back(key, json_value);
  }
};

/// Train the zoo model into the cache if it is missing. Never called
/// from a timed section.
void prepare_cache();

/// Fail loudly (std::runtime_error) when the checkpoint is not cached:
/// a timed set-up must never train.
void require_warm_cache();

struct StackOptions {
  int pool = 4;          // global pool width (tile.n_threads)
  int chips = 1;         // > 1: shard over a plan_cost_model plan
  int threads_per_chip = 1;
};

/// One deployed stack. chips/plan are set only when sharded.
struct Stack {
  std::unique_ptr<nora::nn::TransformerLM> model;
  std::unique_ptr<nora::shard::ChipSet> chips;
  nora::shard::PipelinePlan plan;
};

/// Wall time of each set-up phase (ms) for the per-layer breakdown.
struct SetupTimes {
  double load_ms = 0.0;
  double deploy_ms = 0.0;
};

/// model.load_ms, core.deploy_ms: medians over reps.
void add_setup_layers(Results& res, const std::vector<SetupTimes>& reps);

/// Load + NORA calibrate/deploy (+ plan and apply when sharded). Spans
/// go under `parent` when the tracer is on.
Stack deploy_stack(const StackOptions& so, Tracer& tracer,
                   std::int64_t parent, SetupTimes* times);

/// The timed set-up: 21 rounds (3 at smoke size) of make(span, times),
/// each from a torn-down state, under one "setup" span. Records setup_s
/// (the median round) and the per-phase medians; returns the last stack.
template <class T, class F>
T timed_setup(Context& ctx, Results& res, std::int64_t root, F make) {
  ScopedSpan span(ctx.tracer, "setup", root);
  std::vector<double> walls;
  std::vector<SetupTimes> phases;
  T out;
  for (int r = 0; r < (ctx.opt.smoke ? 3 : 21); ++r) {
    out = T{};  // tear the previous stack down outside the timed span
    require_warm_cache();
    SetupTimes t;
    const double t0 = now_s();
    out = make(span.id(), t);
    walls.push_back(now_s() - t0);
    phases.push_back(t);
  }
  res.add("setup_s", median(walls), "s");
  add_setup_layers(res, phases);
  return out;
}

nora::model::ModelSpec model_spec();
/// The canonical task (calibration data, prompt vocabulary).
nora::eval::SynthLambada canonical_task();

// ---------------------------------------------------------------------
// Prompts: BOS, the task's three key/value pair slots, filler, then the
// query marker and one of the keys. The scored answer is the value
// bound to that key, so the first generated token is checkable.

struct Prompt {
  std::vector<int> tokens;
  int answer = -1;
  std::uint64_t stream = 0;
};

/// A head: BOS + the three pairs + filler up to `len` tokens.
std::vector<int> make_head(const nora::eval::SynthLambadaConfig& cfg,
                           nora::util::Rng& rng, int len);
/// head + `fillers` filler tokens + Q + a random key of the head.
Prompt extend_head(const nora::eval::SynthLambadaConfig& cfg,
                   nora::util::Rng& rng, const std::vector<int>& head,
                   int fillers);

}  // namespace perfbench
