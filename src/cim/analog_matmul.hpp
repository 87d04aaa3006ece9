// A full analog matrix-multiply unit: a logical [K x N] weight matrix
// partitioned over a grid of physical tiles (paper Table II: 512x512),
// with the input path (rescale -> DAC -> non-idealities) and digital
// accumulation of per-tile partial sums.
//
// This is where NORA's rescale vector `s` (Eq. 6-8) plugs in:
//   - weights are programmed as  (w_kj * s_k) / gamma'_j
//   - inputs are streamed as      x_k / (alpha'_i * s_k)
// With all noise disabled the `s` terms cancel exactly and the unit
// computes x * W bit-for-bit (up to float rounding) — the core
// output-invariance property of the method, enforced by tests.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cim/analog_tile.hpp"
#include "cim/tile_config.hpp"
#include "faults/repair.hpp"
#include "noise/quantizer.hpp"
#include "noise/sshape.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace nora::util {
class ThreadPool;
}

namespace nora::cim {

/// Which tile-grid axis a multi-chip shard plan partitions.
enum class ShardAxis : std::uint8_t {
  kRowBlocks = 0,  // chip owns a contiguous row-block range (row split:
                   // every chip produces full-width partial sums)
  kColBlocks,      // chip owns a contiguous tile-column range (column
                   // split: chips produce disjoint output columns)
};

/// Execution plan for ONE AnalogMatmul: the logical tile grid stays a
/// single unit (weights, streams and statistics are untouched), but its
/// (token, row-block, tile) work items are partitioned over `n_chips`
/// contiguous ranges of `axis`, each executed on that chip's own
/// ThreadPool domain. Every forward runs through a plan — a unit with
/// none installed uses a one-chip plan on the global pool — always at
/// per-tile work-item granularity with a canonical-order reduction, so
/// the output bits are invariant under axis, chip count AND per-chip
/// thread count: the plan only decides WHERE each item runs.
struct ShardPlan {
  ShardAxis axis = ShardAxis::kRowBlocks;
  int n_chips = 1;
  /// One pool per chip (the chip's compute domain); a nullptr entry runs
  /// that chip's items on the dispatching thread.
  std::vector<util::ThreadPool*> pools;
};

/// Explicit per-row noise-stream coordinates for the keyed forward
/// overload. `stream` replaces the forward-call epoch and `token`
/// replaces the in-call row index, so the caller — not the call
/// sequence — decides which noise a row sees. The serving layer keys
/// rows on (request stream, request-local position), which is what
/// makes a request's output bit-identical whether it is served alone
/// or inside a continuously-formed batch.
struct StreamKey {
  std::uint64_t stream = 0;
  std::uint64_t token = 0;
};

struct ArrayStats {
  // One alpha per (token, row-block, tile) work item: the scale of its
  // accepted bound-management attempt.
  double alpha_sum = 0.0;
  std::int64_t alpha_count = 0;
  std::int64_t dac_samples = 0;
  std::int64_t dac_clipped = 0;    // |x/alpha/s| > 1 before quantization
  std::int64_t bm_retries = 0;     // bound-management re-runs (per tile)

  double mean_alpha() const {
    return alpha_count > 0 ? alpha_sum / static_cast<double>(alpha_count) : 0.0;
  }
  double dac_clip_fraction() const {
    return dac_samples > 0
               ? static_cast<double>(dac_clipped) / static_cast<double>(dac_samples)
               : 0.0;
  }
  void accumulate(const ArrayStats& o) {
    alpha_sum += o.alpha_sum;
    alpha_count += o.alpha_count;
    dac_samples += o.dac_samples;
    dac_clipped += o.dac_clipped;
    bm_retries += o.bm_retries;
  }
};

class AnalogMatmul {
 public:
  /// w: logical weights [K x N] (input dim x output dim).
  /// s: NORA rescale vector of length K, or empty for the naive mapping
  ///    (equivalent to all-ones).
  AnalogMatmul(const Matrix& w, std::vector<float> s, const TileConfig& cfg,
               std::uint64_t seed);

  std::int64_t in_dim() const { return k_; }
  std::int64_t out_dim() const { return n_; }
  const TileConfig& config() const { return cfg_; }
  /// Tile-grid geometry (timing co-sim resource shape): row blocks
  /// partition the input dim, column blocks the output dim.
  std::int64_t row_blocks() const {
    return static_cast<std::int64_t>(blocks_.size());
  }
  std::int64_t col_blocks() const {
    return blocks_.empty() ? 0
                           : static_cast<std::int64_t>(blocks_[0].tiles.size());
  }
  std::span<const float> s() const { return s_; }

  /// Label used in diagnostics/errors (typically the owning layer name).
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  /// x: [T x K] activations. Returns [T x N]. Row t draws every noise
  /// sample from a counter-keyed stream derived from (construction seed,
  /// keys[t].stream, keys[t].token, row-block, bound-management attempt,
  /// tile), so the result is a pure function of the keys — bit-identical
  /// for ANY plan and value of cfg.n_threads, since no stream depends on
  /// execution order. Rows with equal `stream` form a group: under the
  /// kAvgAbsMax policy the shared alpha is averaged per contiguous group,
  /// so a group's result does not depend on what else shares the batch.
  /// The (token, row-block, tile) work items run on the installed plan,
  /// or on the global thread pool when cfg.n_threads > 1. Throws
  /// std::runtime_error naming the layer label, token and column if any
  /// output is NaN/Inf — non-finite values must not propagate silently
  /// into the rest of the transformer.
  Matrix forward(const Matrix& x, std::span<const StreamKey> keys);

  /// Unkeyed forward: the keyed forward on keys {epoch, t}, where the
  /// epoch is a forward-call counter that advances once per accepted
  /// call (a dimension mismatch throws before it advances). The result
  /// is deterministic given the construction seed and the call sequence.
  Matrix forward(const Matrix& x);

  /// PCM drift: re-read all tiles t seconds after programming.
  void set_read_time(float t_seconds);

  // --- multi-chip sharding ---
  /// Install a multi-chip execution plan (see ShardPlan). Validates that
  /// pools has exactly plan.n_chips entries and n_chips >= 1; throws
  /// std::invalid_argument otherwise. Must not be called while a forward
  /// is in flight. Any (axis, n_chips, threads) choice yields the same
  /// bits as the default one-chip plan.
  void set_shard_plan(ShardPlan plan);
  /// Return to the default one-chip plan.
  void clear_shard_plan();
  /// True while a set_shard_plan plan is installed.
  bool sharded() const { return sharded_; }
  /// The installed plan, or nullptr when none is.
  const ShardPlan* shard_plan() const { return sharded_ ? &shard_ : nullptr; }

  // --- analytics for Fig. 6 ---
  /// Mean per-column gamma over all tiles.
  double mean_gamma() const;
  /// Running mean alpha over all forwards so far.
  double mean_alpha() const { return stats_.mean_alpha(); }
  /// mean(alpha) * mean(gamma) * g_max — the Fig. 6c quantity; smaller
  /// means larger output current into the ADC, i.e. higher SNR.
  double mean_alpha_gamma_gmax() const;

  const ArrayStats& stats() const { return stats_; }
  std::int64_t adc_reads() const;
  std::int64_t adc_saturations() const;
  /// Fraction of ADC reads that saturated (0 when nothing was read).
  double adc_saturation_rate() const;
  /// Clears the array stats and every per-tile ADC counter.
  void reset_stats();

  /// Program-time fault/repair statistics aggregated over all tiles
  /// (all zeros for a fault-free configuration).
  faults::ArrayFaultStats fault_stats() const;

  // --- runtime integrity (ABFT checksum columns) ---
  bool abft_enabled() const { return cfg_.abft_checksum; }
  /// Checksum statistics aggregated over all tiles since construction /
  /// reset_stats().
  AbftStats abft_stats() const;

  /// A permanent post-deployment device failure in logical weight
  /// coordinates (input dim k, output dim n).
  struct WearRecord {
    std::int64_t k = 0, n = 0;
    float value = 0.0f;
  };
  /// Transient single-event upset at logical (k, n): the device reads
  /// `value` until the next set_read_time re-derives the state.
  void upset_device(std::int64_t k, std::int64_t n, float value);
  /// Permanent wear at logical (k, n): survives re-reads and drift.
  /// Recorded so a refresh (which rebuilds the matmul on the same
  /// physical hardware) can replay it — reprogramming cannot fix broken
  /// silicon.
  void wear_stuck(std::int64_t k, std::int64_t n, float value);
  const std::vector<WearRecord>& wear() const { return wear_; }

 private:
  struct RowBlock {
    std::int64_t k0 = 0, k1 = 0;               // input-dim range
    std::vector<std::unique_ptr<AnalogTile>> tiles;  // one per column block
    std::vector<std::int64_t> col0;             // output-dim offsets
  };

  /// Everything one (token, row-block, tile) work item produces besides
  /// its output span: DAC/alpha/bound-management stats plus the tile's
  /// runtime counters. Held privately per work item and folded into the
  /// shared state serially, in canonical (token, row-block, tile) order,
  /// so the accumulated statistics are race-free AND bit-identical for
  /// any plan and thread count.
  struct TileWork {
    ArrayStats stats;
    TileRunCounters tile;
  };

  /// Run one (token, row-block, tile) work item: input rescale -> DAC ->
  /// non-idealities -> tile MVM, with the bound-management retry loop
  /// inside. All randomness comes from streams keyed on (key.stream,
  /// key.token, b, attempt, tile). `y` is the (token, row-block) partial
  /// row (width n_); the item writes only its tile's column span. Tile
  /// 0's item commits the block's DAC traffic counters. Thread-safe for
  /// concurrent calls with distinct (token, b, ti).
  void run_work_item(std::size_t b, std::size_t ti, StreamKey key,
                     std::span<const float> xrow, float avg_alpha_b,
                     std::span<float> y, TileWork& work) const;

  /// Execute one token chunk [tc0, tc1): per-tile work items fan out
  /// over the plan's chip pools, then partial sums reduce over row
  /// blocks through the canonical tree and statistics fold in (t, b,
  /// tile) order. Bit-identical for any plan.
  void run_chunk(const Matrix& x, std::span<const StreamKey> keys,
                 std::int64_t tc0, std::int64_t tc1, std::int64_t n_groups,
                 Matrix& y);

  /// The plan a unit runs when none is installed: one chip on the
  /// global pool, or inline when cfg.n_threads <= 1.
  ShardPlan one_chip_plan() const;

  /// Resolve logical (k, n) to the owning tile and its local (col j,
  /// row k) coordinates. Throws std::invalid_argument when out of range.
  AnalogTile& locate(std::int64_t k, std::int64_t n, std::int64_t& j_local,
                     std::int64_t& k_local);

  TileConfig cfg_;
  std::string label_;
  std::int64_t k_ = 0, n_ = 0;
  std::vector<float> s_;
  std::vector<RowBlock> blocks_;
  noise::UniformQuantizer dac_;
  noise::SShapeNonlinearity sshape_;
  /// Root of all runtime noise streams; per-work-item streams are
  /// derived from it with derive_stream(stream_base_, stream, token, ...).
  std::uint64_t stream_base_ = 0;
  /// Forward-call counter of the unkeyed forward: successive calls use
  /// fresh, decorrelated noise streams (the parallel analogue of an
  /// advancing sequential RNG state).
  std::uint64_t fwd_epoch_ = 0;
  ArrayStats stats_;
  std::vector<WearRecord> wear_;  // permanent post-deployment faults
  // forward scratch, reused across calls (assign() keeps capacity) so
  // steady-state decode steps allocate nothing here. forward() was never
  // safe to call concurrently on one AnalogMatmul (fwd_epoch_, stats_);
  // these add no new restriction.
  std::vector<StreamKey> epoch_keys_;
  std::vector<std::int64_t> group_of_;
  std::vector<float> avg_alpha_;
  std::vector<float> partial_;
  std::vector<TileWork> works_;
  // execution plan (installed, or the one-chip default) + per-chip item
  // lists (scratch, same reuse story as the buffers above)
  ShardPlan shard_;
  bool sharded_ = false;
  std::vector<std::vector<std::int64_t>> chip_items_;
};

}  // namespace nora::cim
