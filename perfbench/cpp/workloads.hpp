// The two benchmark workloads, and the net probe. Each pass sets up its stack (timed as
// setup_s), runs its load for Options::seconds, checks its outputs and
// fills one Results with every metric it can measure: end-to-end and
// per-layer alike. run.py prints the subset BENCHMARK.json names for the
// run's --trace mode.
#pragma once

#include "stack.hpp"

namespace perfbench {

struct Pass {
  Results res;
  int pool = 1;  // global pool width the pass ran at
};

Pass decode_batch_pass(Context& ctx, bool traced);
Pass prefix_chat_pass(Context& ctx, bool traced);

/// net.* per-layer metrics and the HTTP gates (streamed tokens equal
/// in-process tokens, nothing fails) from a short open-loop stream of
/// chunked /v1/completions over loopback TCP against net::HttpServer::run,
/// with GET /metrics scrapes. Runs after a workload's traced pass; its
/// spans go to the same tracer.
void add_net_probe(Context& ctx, Results& out);

/// Start a pass: tracing on or off, the global pool at the workload's
/// width (Options::pool overrides `preferred`, clamped to the host).
Pass begin_pass(Context& ctx, bool traced, int preferred);

}  // namespace perfbench
