#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "core/nora.hpp"
#include "eval/evaluator.hpp"
#include "model/zoo.hpp"
#include "serve/metrics.hpp"
#include "shard/plan.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace nora;

namespace {

constexpr double kHistMin = 1e-3;
constexpr double kHistRatio = 1.01;
const double kHistLogRatio = std::log(kHistRatio);
const int kHistBuckets =
    static_cast<int>(std::ceil(std::log(1e5 / kHistMin) / kHistLogRatio));

}  // namespace

LogHistogram::LogHistogram()
    : counts_(static_cast<std::size_t>(kHistBuckets), 0) {}

void LogHistogram::add(double v) {
  const double pos = v > kHistMin ? std::log(v / kHistMin) / kHistLogRatio : 0.0;
  const int b = std::min(kHistBuckets - 1, static_cast<int>(pos));
  ++counts_[static_cast<std::size_t>(b)];
  ++n_;
}

double LogHistogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  // The same rank as an interpolated quantile over the sorted samples;
  // inside its bucket the value is placed geometrically by rank.
  const double rank = q * static_cast<double>(n_ - 1);
  std::int64_t below = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    const std::int64_t c = counts_[static_cast<std::size_t>(b)];
    if (rank < static_cast<double>(below + c)) {
      const double frac =
          (rank - static_cast<double>(below) + 0.5) / static_cast<double>(c);
      return kHistMin * std::exp((b + frac) * kHistLogRatio);
    }
    below += c;
  }
  return kHistMin * std::exp(kHistBuckets * kHistLogRatio);
}

WindowStats::WindowStats(Slo slo, bool from_due)
    : slo_(slo), from_due_(from_due), parts_(kParts) {}

void WindowStats::start(double w0, double len_s) {
  w0_ = w0;
  len_s_ = len_s;
}

WindowStats::Part* WindowStats::part(double t) {
  if (!started() || t <= w0_ || t > w0_ + len_s_) return nullptr;
  const int i =
      std::min(kParts - 1, static_cast<int>((t - w0_) / (len_s_ / kParts)));
  return &parts_[static_cast<std::size_t>(i)];
}

void WindowStats::on_token(Tracked& r, int token, double t) {
  Part* p = part(t);
  if (r.n_tokens == 0) {
    r.first_s = t;
    r.first_token = token;
    if (p != nullptr) {
      p->ttft_ms.add((t - (from_due_ ? r.due_s : r.submit_s)) * 1e3);
    }
  } else {
    r.gap_sum_ms += (t - r.last_s) * 1e3;
  }
  if (p != nullptr) ++p->tokens;
  r.last_s = t;
  ++r.n_tokens;
}

void WindowStats::on_end(Tracked& r, bool finished) {
  r.finished = finished;
  if (!finished || r.n_tokens == 0) return;
  const double ttft = (r.first_s - (from_due_ ? r.due_s : r.submit_s)) * 1e3;
  const double tpot =
      r.n_tokens > 1 ? r.gap_sum_ms / static_cast<double>(r.n_tokens - 1) : 0.0;
  Part* p = part(r.last_s);
  if (p == nullptr) return;
  if (r.n_tokens > 1) p->tpot_ms.add(tpot);
  if (ttft <= slo_.ttft_ms && tpot <= slo_.tpot_ms) ++p->good;
}

std::int64_t WindowStats::ttft_samples() const {
  std::int64_t n = 0;
  for (const Part& p : parts_) n += p.ttft_ms.count();
  return n;
}

void WindowStats::add_metrics(Results& res, int min_tail) const {
  const double len = len_s_ / kParts;
  const auto rate = [&](auto field) {
    std::vector<double> v;
    for (const Part& p : parts_) v.push_back(static_cast<double>(p.*field) / len);
    return median(v);
  };
  const auto windowed_quantile = [&](const char* name, auto hist, double q) {
    std::int64_t n = 0;
    std::vector<double> v;
    for (const Part& p : parts_) {
      const LogHistogram& h = p.*hist;
      n += h.count();
      if (h.count() > 0) v.push_back(h.quantile(q));
    }
    if (static_cast<double>(n) * (1.0 - q) < static_cast<double>(min_tail) * kParts) {
      std::fprintf(stderr, "perfbench: %s not reported: %lld samples leave "
                   "fewer than %d per part beyond the %.2f quantile\n", name,
                   static_cast<long long>(n), min_tail, q);
      return;
    }
    res.add(name, median(v), "ms");
  };
  res.add("tok_s", rate(&Part::tokens), "tok/s");
  windowed_quantile("ttft_p50_ms", &Part::ttft_ms, 0.5);
  windowed_quantile("ttft_p90_ms", &Part::ttft_ms, 0.90);
  windowed_quantile("tpot_p50_ms", &Part::tpot_ms, 0.5);
  windowed_quantile("tpot_p90_ms", &Part::tpot_ms, 0.90);
  res.add("goodput_rps", rate(&Part::good), "req/s");
}

void Timeline::submitted(std::int64_t id, const serve::RequestParams& params,
                         int answer, double due_s, double submit_s,
                         bool scored, bool replay) {
  Live& l = live_[id];
  l.r.answer = answer;
  l.r.due_s = due_s;
  l.r.submit_s = submit_s;
  l.scored = scored;
  if (replay) {
    l.replay = static_cast<int>(replays_.size());
    replays_.push_back({params, {}, false});
  }
  ++submitted_;
}

int Timeline::apply(const std::vector<serve::ServeEvent>& evs, double t,
                    std::vector<std::int64_t>* terminals) {
  int tokens = 0;
  for (const serve::ServeEvent& ev : evs) {
    const auto it = live_.find(ev.id);
    if (it == live_.end()) continue;
    Live& l = it->second;
    Replay* rp = l.replay >= 0 ? &replays_[static_cast<std::size_t>(l.replay)]
                               : nullptr;
    switch (ev.kind) {
      case serve::ServeEventKind::kToken:
        ++tokens;
        window_.on_token(l.r, ev.token, t);
        if (rp != nullptr) rp->tokens.push_back(ev.token);
        break;
      case serve::ServeEventKind::kDiscard:
        // A retried attempt starts over: its TTFT runs from the original
        // submission to the retry's first token. Samples already folded
        // into the window stay (the tokens were computed).
        l.r.n_tokens = 0;
        l.r.gap_sum_ms = 0.0;
        if (rp != nullptr) rp->tokens.clear();
        break;
      case serve::ServeEventKind::kTerminal: {
        const bool ok = ev.state == serve::RequestState::kFinished;
        window_.on_end(l.r, ok);
        if (ok) ++finished_;
        if (l.scored) acc_.add(l.r);
        if (rp != nullptr) rp->finished = ok;
        tracer_.record("request", l.r.submit_s, l.r.last_s, root_, ev.id);
        if (terminals != nullptr) terminals->push_back(ev.id);
        live_.erase(it);
        break;
      }
    }
  }
  return tokens;
}

void check_generator(Context& ctx, const std::vector<double>& late_ms,
                     const Slo& slo) {
  const double p99 = serve::percentile(late_ms, 0.99);
  const bool behind = p99 > slo.ttft_ms;
  if (behind) {
    std::fprintf(stderr, "perfbench: warning: generator fell behind "
                 "(p99 lateness %.3f ms)\n", p99);
  }
  ctx.note("generator", "{\"late_ms_p99\": " + std::to_string(p99) +
                            ", \"behind\": " + (behind ? "true" : "false") + "}");
}

CimCounts cim_counts(nn::TransformerLM& model) {
  CimCounts c;
  for (nn::Linear* lin : model.linear_layers()) {
    const cim::AnalogMatmul* am = lin->analog();
    if (am == nullptr) continue;
    const cim::ArrayStats& st = am->stats();
    // Unsharded items are (token, row-block) and run every tile column;
    // the sharded path counts per-tile items already.
    const std::int64_t per_item = am->sharded() ? 1 : am->col_blocks();
    c.tile_mvms += (st.alpha_count + st.bm_retries) * per_item;
    c.alpha_count += st.alpha_count;
    c.bm_retries += st.bm_retries;
    c.dac_samples += st.dac_samples;
    c.dac_clipped += st.dac_clipped;
    c.adc_reads += am->adc_reads();
    c.adc_saturations += am->adc_saturations();
  }
  return c;
}

void add_cim_metrics(Results& res, const CimCounts& c, std::int64_t tokens,
                     bool exact) {
  const double tok = static_cast<double>(std::max<std::int64_t>(tokens, 1));
  res.add("cim.tile_mvms_per_token", static_cast<double>(c.tile_mvms) / tok,
          "count", exact);
  res.add("cim.adc_reads_per_token", static_cast<double>(c.adc_reads) / tok,
          "count", exact);
  const auto frac = [](std::int64_t a, std::int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  res.add("cim.bm_retry_frac", frac(c.bm_retries, c.alpha_count + c.bm_retries),
          "fraction", exact);
  res.add("cim.dac_clip_frac", frac(c.dac_clipped, c.dac_samples), "fraction",
          exact);
  res.add("cim.adc_saturation_rate", frac(c.adc_saturations, c.adc_reads),
          "fraction", exact);
}

int reserve_alone_mismatches(nn::TransformerLM& model,
                             const std::vector<Replay>& sample) {
  int bad = 0;
  for (const Replay& r : sample) {
    if (!r.finished) continue;  // counted as failed already
    serve::SchedulerConfig cfg;
    cfg.max_batch = 1;
    serve::Scheduler alone(model, cfg);
    const std::int64_t id = alone.submit(r.params);
    alone.run_until_idle();
    if (alone.request(id).tokens != r.tokens) ++bad;
  }
  return bad;
}

void add_serve_metrics(Results& res, const serve::Metrics& m,
                       std::int64_t prompt_tokens, bool exact) {
  res.add("serve.batch_rows_mean", m.mean_occupancy(), "rows", exact);
  res.add("serve.queue_wait_steps_mean", m.mean_queue_wait_steps(), "steps",
          exact);
  res.add("serve.prefix_hit_token_frac",
          static_cast<double>(m.kv_prefix_hit_tokens) /
              static_cast<double>(std::max<std::int64_t>(prompt_tokens, 1)),
          "fraction", exact);
  res.add("serve.prefix_evicted", static_cast<double>(m.kv_prefix_evicted),
          "count", exact);
  res.add("serve.kv_high_water_frac",
          static_cast<double>(m.kv_high_water_tokens) /
              static_cast<double>(std::max<std::int64_t>(m.kv_budget_tokens, 1)),
          "fraction", exact);
  res.add("serve.rejected", static_cast<double>(m.rejected), "count", exact);
  res.add("serve.retries", static_cast<double>(m.retries), "count", exact);
}

void add_step_mean(Results& res, const serve::Metrics& m) {
  res.add("serve.step_ms_mean",
          m.wall_s * 1e3 /
              static_cast<double>(std::max<std::int64_t>(m.busy_steps, 1)),
          "ms");
}

namespace {

std::string role_of(const std::string& layer) {
  const auto dot = layer.rfind('.');
  return dot == std::string::npos ? layer : layer.substr(dot + 1);
}

}  // namespace

void add_sim_metrics(Results& res, const serve::Metrics& m,
                     const std::vector<timing::LayerTiming>& layers,
                     std::int64_t tokens, bool exact) {
  res.add("sim_tok_s",
          static_cast<double>(tokens) /
              (static_cast<double>(std::max<std::int64_t>(m.sim_time_ps, 1)) *
               1e-12),
          "tok/sim_s", exact);
  // Means, not quantiles: the simulated latencies take a few discrete
  // values, so a quantile jumps between them from seed to seed.
  res.add("sim_ttft_mean_us", mean(m.sim_ttft_us), "sim_us", exact);
  res.add("sim_tpot_mean_us", mean(m.sim_tpot_us), "sim_us", exact);
  res.add("timing.sim_events_per_step",
          static_cast<double>(m.sim_events) /
              static_cast<double>(std::max<std::int64_t>(m.busy_steps, 1)),
          "count", exact);
  std::map<std::string, std::int64_t> role_ps;
  std::int64_t total_ps = 0;
  for (const timing::LayerTiming& lt : layers) {
    role_ps[role_of(lt.layer)] += lt.ps;
    total_ps += lt.ps;
  }
  for (const auto& [role, ps] : role_ps) {
    res.add("timing.sim_share." + role,
            static_cast<double>(ps) /
                static_cast<double>(std::max<std::int64_t>(total_ps, 1)),
            "fraction", exact);
  }
}

void MetricsProbe::poll(double now) {
  if (sched_ == nullptr || now < next_s_) return;
  const double a = now_s();
  (void)sched_->metrics();
  const double dt = now_s() - a;
  us_.push_back(dt * 1e6);
  tr_.charge(dt);
  next_s_ = now + kPeriodS;
}

void MetricsProbe::add_metrics(Results& res) const {
  if (us_.empty()) return;
  const auto tenth =
      static_cast<std::ptrdiff_t>(std::max<std::size_t>(1, us_.size() / 10));
  const std::vector<double> first(us_.begin(), us_.begin() + tenth);
  const std::vector<double> last(us_.end() - tenth, us_.end());
  res.add("serve.metrics_call_us_p50", median(us_), "us");
  res.add("serve.metrics_call_growth", mean(last) / mean(first), "ratio");
}

void add_layer_probes(Results& res, int pool, bool smoke, std::uint64_t seed) {
  auto model = model::get_or_train(model_spec(), /*verbose=*/false);
  core::DeployOptions d;
  d.tile = cim::TileConfig::paper_table2();
  d.tile.n_threads = pool;
  d.nora.lambda = kNoraLambda;
  d.seed = kDeploySeed;
  core::deploy_analog(*model, canonical_task(), d);

  // cim: one layer per role at 1, 8 and 32 rows.
  std::map<std::string, nn::Linear*> first_of_role;
  for (nn::Linear* lin : model->linear_layers()) {
    first_of_role.emplace(role_of(lin->name()), lin);
  }
  const double budget_s = smoke ? 0.02 : 0.15;
  util::Rng rng(4242);
  for (const auto& [role, lin] : first_of_role) {
    cim::AnalogMatmul& am = *lin->analog();
    for (const int rows : {1, 8, 32}) {
      Matrix x(rows, am.in_dim());
      x.fill_gaussian(rng, 1.0f);
      for (int w = 0; w < 2; ++w) am.forward(x);
      std::vector<double> us;
      const double t_end = now_s() + budget_s;
      while (us.size() < 5 || now_s() < t_end) {
        const double t0 = now_s();
        am.forward(x);
        us.push_back((now_s() - t0) * 1e6 / rows);
      }
      res.add("cim.forward_us_per_row." + role + ".r" + std::to_string(rows),
              median(us), "us");
    }
  }

  // eval / nn: the paper's protocol (final-position top-1 through
  // eval::evaluate) on held-out examples of a seed-derived task, as
  // repeated fixed-size calls; then the bare forward on pre-built
  // examples, with no example generation or scoring around it.
  auto task_cfg = model_spec().task;
  task_cfg.seed = util::derive_seed(seed, "paper-eval");
  const eval::SynthLambada task(task_cfg);
  constexpr int kChunk = 32;
  std::vector<double> rates;
  const double eval_end = now_s() + (smoke ? 0.1 : 1.0);
  while (rates.size() < 3 || now_s() < eval_end) {
    const double t0 = now_s();
    eval::evaluate(*model, task, {"test", kChunk});
    rates.push_back(kChunk / (now_s() - t0));
  }
  res.add("eval.examples_per_s", median(rates), "1/s");
  std::vector<eval::Example> exs;
  for (int i = 0; i < kChunk; ++i) exs.push_back(task.make_example("test", i));
  std::vector<double> fwd_ms;
  const double fwd_end = now_s() + (smoke ? 0.05 : 0.5);
  for (std::size_t i = 0; fwd_ms.size() < 8 || now_s() < fwd_end; ++i) {
    const double t0 = now_s();
    model->forward(exs[i % exs.size()].tokens, /*training=*/false);
    fwd_ms.push_back((now_s() - t0) * 1e3);
  }
  res.add("nn.eval_forward_ms_per_example", median(fwd_ms), "ms");

  // shard: the cost-model plan search prefix_chat's set-up runs.
  timing::TimingConfig tc;
  tc.enabled = true;
  const timing::HwModel hw(tc);
  std::vector<double> plan_ms;
  for (int r = 0; r < (smoke ? 1 : 3); ++r) {
    const double t0 = now_s();
    (void)shard::plan_cost_model(*model, hw, 2);
    plan_ms.push_back((now_s() - t0) * 1e3);
  }
  res.add("shard.plan_ms", median(plan_ms), "ms");

  // core: calibration on a fresh digital copy.
  auto digital = model::get_or_train(model_spec(), /*verbose=*/false);
  const core::NoraOptions nora_opts;
  std::vector<double> cal_ms;
  for (int r = 0; r < (smoke ? 1 : 3); ++r) {
    const double t0 = now_s();
    core::calibrate(*digital, canonical_task(), nora_opts.calib_examples);
    cal_ms.push_back((now_s() - t0) * 1e3);
  }
  res.add("core.calibrate_ms", median(cal_ms), "ms");
}

}  // namespace perfbench
