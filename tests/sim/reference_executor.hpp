#pragma once
// Test oracle: the pre-Schedule-IR per-layer inference loop. CmpSystem
// lowers a net into the Schedule IR and executes the events; this loop
// walks the spec's layers directly, splits each one kernel-wise with
// core::balanced_ranges and simulates every burst with
// MeshNocSimulator::run (never the burst cache). The schedule-path
// equivalence suites (`ctest -L sched`) require CmpSystem to match it
// bit-for-bit. Numerics only: no tracing, no metrics side effects.

#include "core/sparsity_profile.hpp"
#include "core/traffic.hpp"
#include "nn/layer_spec.hpp"
#include "sim/system.hpp"

namespace ls::sim::oracle {

/// One inference of `spec` under `cfg` (single chip) with the given
/// layer-transition traffic; `sparsity` discounts per-core work when
/// cfg.sparse_cycle_model is on.
InferenceResult reference_run_inference(
    const SystemConfig& cfg, const nn::NetSpec& spec,
    const core::InferenceTraffic& traffic,
    const core::SparsityProfile* sparsity = nullptr);

}  // namespace ls::sim::oracle
