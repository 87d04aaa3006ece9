// perfbench: the repository's benchmark program. One invocation runs one
// workload and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every metric of the untraced pass (--trace=0), or of a separate
// traced pass plus the per-layer probes (--trace=1). run.py keeps the
// ones BENCHMARK.json lists for that mode; every workload reports all
// of them. A diagnostics line before it carries the host fingerprint,
// the drift probe and the run's notes.
//
//   perfbench --prepare                         train the model cache
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--smoke] [--pool=<w>] [--out-dir=<dir>]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "serving.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

Pass run_pass(Context& ctx, bool traced) {
  const std::string& w = ctx.opt.workload;
  if (w == "decode_batch") return decode_batch_pass(ctx, traced);
  if (w == "prefix_chat") return prefix_chat_pass(ctx, traced);
  throw std::invalid_argument("unknown workload '" + w +
                              "' (decode_batch, prefix_chat)");
}

/// Copy the metrics of `from`, keeping which are exact.
void copy_metrics(Results& out, const Results& from) {
  for (const Metric& m : from.metrics) {
    const auto& det = from.deterministic;
    const bool exact = std::find(det.begin(), det.end(), m.name) != det.end();
    out.add(m.name, m.value, m.unit, exact);
  }
}

void merge_accounting(Results& out, const Results& from) {
  out.attempted += from.attempted;
  out.succeeded += from.succeeded;
  out.failed += from.failed;
  out.gate_failures.insert(out.gate_failures.end(), from.gate_failures.begin(),
                           from.gate_failures.end());
}

std::string json_list(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i ? ", " : "") + json_str(xs[i]);
  }
  return out + "]";
}

int run(int argc, char** argv) {
  nora::util::Cli cli(argc, argv);
  if (cli.get_flag("prepare")) {
    cli.check_unknown();
    prepare_cache();
    return 0;
  }
  Context ctx;
  Options& o = ctx.opt;
  o.workload = cli.get("workload", "");
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  o.seconds = cli.get_double("seconds", 10.0);
  o.trace = cli.get_int("trace", 0) != 0;
  o.smoke = cli.get_flag("smoke");
  o.pool = static_cast<int>(cli.get_int("pool", 0));
  o.out_dir = cli.get("out-dir", "");
  cli.check_unknown();
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");

  const HostInfo host = host_info();
  const double drift_before = drift_probe_ms();
  require_warm_cache();

  Results out;
  Pass base = run_pass(ctx, false);
  merge_accounting(out, base.res);
  if (!o.trace) {
    copy_metrics(out, base.res);
  } else {
    // A second, traced pass gives the per-layer numbers; its exact
    // metrics must equal the untraced pass's bit for bit.
    const double t0 = now_s();
    Pass traced = run_pass(ctx, true);
    const double traced_s = now_s() - t0;
    merge_accounting(out, traced.res);
    copy_metrics(out, traced.res);
    for (const std::string& name : base.res.deterministic) {
      const double a = base.res.get(name);
      const double b = traced.res.get(name);
      out.gate(std::memcmp(&a, &b, sizeof a) == 0,
               "exact metric " + name +
                   " differs between untraced and traced passes");
    }
    // The tracer times its own calls: the traced pass's wall time over
    // that time without them.
    const double busy_s = ctx.tracer.busy_s();
    out.add("trace.overhead_ratio", traced_s / (traced_s - busy_s), "ratio");
    out.add("trace.spans", static_cast<double>(ctx.tracer.spans().size()), "count");
    add_layer_probes(out, traced.pool, o.smoke, o.seed);
    add_net_probe(ctx, out);
  }
  const double drift_after = drift_probe_ms();

  std::string notes = "{";
  for (std::size_t i = 0; i < ctx.diag.size(); ++i) {
    notes += (i ? ", " : "") + json_str(ctx.diag[i].first) + ": " +
             ctx.diag[i].second;
  }
  notes += "}";
  const std::string diag =
      "{\"workload\": " + json_str(o.workload) +
      ", \"seed\": " + std::to_string(o.seed) +
      ", \"seconds\": " + std::to_string(o.seconds) + ", \"trace\": " +
      (o.trace ? "1" : "0") + ", \"smoke\": " + (o.smoke ? "true" : "false") +
      ", \"host\": {\"cpu\": " + json_str(host.cpu) + ", \"nproc\": " +
      std::to_string(host.nproc) + ", \"isa\": " + json_str(host.isa) +
      ", \"force_scalar\": " + (host.force_scalar ? "true" : "false") +
      "}, \"drift_probe_ms\": {\"before\": " + std::to_string(drift_before) +
      ", \"after\": " + std::to_string(drift_after) + "}, \"succeeded\": " +
      std::to_string(out.succeeded) + ", \"gate_failures\": " +
      json_list(out.gate_failures) + ", \"deterministic\": " +
      json_list(out.deterministic) + ", \"notes\": " + notes + "}";
  const std::string line = result_json(out);

  if (!o.out_dir.empty()) {
    std::filesystem::create_directories(o.out_dir);
    const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0");
    std::ofstream(stem + ".json") << "{\"diagnostics\": " << diag
                                  << ",\n\"result\": " << line << "}\n";
    if (o.trace && !ctx.tracer.write(stem + "-spans.json")) {
      out.gate(false, "cannot write " + stem + "-spans.json");
    }
  }
  std::printf("perfbench-diagnostics %s\n", diag.c_str());
  std::printf("%s\n", result_json(out).c_str());
  std::fflush(stdout);
  return out.gate_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
