#include "stack.hpp"

#include <stdexcept>

#include "cim/tile_config.hpp"
#include "core/nora.hpp"
#include "model/zoo.hpp"
#include "shard/apply.hpp"
#include "timing/hw_model.hpp"
#include "util/paths.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace nora;

model::ModelSpec model_spec() { return model::spec_by_name(kModelName); }

eval::SynthLambada canonical_task() {
  return eval::SynthLambada(model_spec().task);
}

void prepare_cache() {
  const auto spec = model_spec();
  if (util::file_exists(model::checkpoint_path(spec))) return;
  std::fprintf(stderr, "perfbench: training %s into the model cache "
               "(untimed, once per checkout)\n", kModelName);
  model::get_or_train(spec, /*verbose=*/false);
  require_warm_cache();
}

void require_warm_cache() {
  const std::string path = model::checkpoint_path(model_spec());
  if (!util::file_exists(path)) {
    throw std::runtime_error(
        "model cache is cold (" + path + " missing): a timed set-up would "
        "train; run the benchmark's --prepare step first");
  }
}

Stack deploy_stack(const StackOptions& so, Tracer& tracer,
                   std::int64_t parent, SetupTimes* times) {
  Stack st;
  const double t0 = now_s();
  {
    ScopedSpan s(tracer, "model.load", parent);
    st.model = model::get_or_train(model_spec(), /*verbose=*/false);
  }
  const double t1 = now_s();
  {
    ScopedSpan s(tracer, "core.deploy", parent);
    core::DeployOptions d;
    d.tile = cim::TileConfig::paper_table2();
    d.tile.n_threads = so.pool;
    d.nora.enabled = true;
    d.nora.lambda = kNoraLambda;
    d.seed = kDeploySeed;
    core::deploy_analog(*st.model, canonical_task(), d);
  }
  const double t2 = now_s();
  if (so.chips > 1) {
    ScopedSpan s(tracer, "shard.plan", parent);
    timing::TimingConfig tc;
    tc.enabled = true;
    const timing::HwModel hw(tc);
    st.plan = shard::plan_cost_model(*st.model, hw, so.chips);
    st.chips = std::make_unique<shard::ChipSet>(so.chips, so.threads_per_chip);
    shard::apply_plan(*st.model, *st.chips, st.plan);
  }
  if (times != nullptr) {
    times->load_ms = (t1 - t0) * 1e3;
    times->deploy_ms = (t2 - t1) * 1e3;
  }
  return st;
}

void add_setup_layers(Results& res, const std::vector<SetupTimes>& reps) {
  std::vector<double> load, deploy;
  for (const SetupTimes& t : reps) {
    load.push_back(t.load_ms);
    deploy.push_back(t.deploy_ms);
  }
  res.add("model.load_ms", median(load), "ms");
  res.add("core.deploy_ms", median(deploy), "ms");
}

std::vector<int> make_head(const eval::SynthLambadaConfig& cfg,
                           util::Rng& rng, int len) {
  std::vector<int> t;
  t.push_back(cfg.bos());
  for (int k = 0; k < cfg.n_pairs; ++k) {
    t.push_back(cfg.key_id(k));
    t.push_back(cfg.val_id(static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.n_vals)))));
  }
  while (static_cast<int>(t.size()) < len) {
    t.push_back(cfg.filler_id(static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.n_filler)))));
  }
  return t;
}

Prompt extend_head(const eval::SynthLambadaConfig& cfg, util::Rng& rng,
                   const std::vector<int>& head, int fillers) {
  Prompt p;
  p.tokens = head;
  for (int i = 0; i < fillers; ++i) {
    p.tokens.push_back(cfg.filler_id(static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.n_filler)))));
  }
  const int pick = static_cast<int>(
      rng.uniform_index(static_cast<std::uint64_t>(cfg.n_pairs)));
  p.tokens.push_back(cfg.query());
  p.tokens.push_back(cfg.key_id(pick));
  p.answer = head[static_cast<std::size_t>(2 + 2 * pick)];
  return p;
}

}  // namespace perfbench
