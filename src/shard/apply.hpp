// Bind a PipelinePlan to a model: install the executed cim::ShardPlans
// (which chip pools run each analog layer's tiles, split along the
// layer's role axis) and the timing-chip stamps the co-simulator reads.
//
// Role axes follow the Megatron convention adapted to tile grids:
//   column split (disjoint output columns, no cross-chip reduction):
//     qkv, mlp up / gate, lm_head
//   row split (full-width fp32 partials, canonical tree all-reduce):
//     attention out-proj, mlp down
// Execution is bit-identical for ANY plan — see cim::ShardPlan — so
// applying, swapping or clearing plans never changes model outputs.
#pragma once

#include "nn/transformer.hpp"
#include "shard/chip_set.hpp"
#include "shard/plan.hpp"

namespace nora::shard {

/// Install `plan` on the model, drawing per-stage pools from `chips`.
/// Validates the plan against the model/chip shapes (throws
/// std::invalid_argument). `chips` must outlive the installed plan
/// (until clear_plan or the next apply_plan).
void apply_plan(nn::TransformerLM& model, ChipSet& chips,
                const PipelinePlan& plan);

/// Remove all shard plans and chip stamps: back to each layer's
/// default one-chip plan.
void clear_plan(nn::TransformerLM& model);

}  // namespace nora::shard
