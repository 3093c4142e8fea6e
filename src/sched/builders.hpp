#pragma once
// Schedule builders: lower a network architecture plus its layer-transition
// traffic (and, for the sparsified strategies, a SparsityProfile) into the
// Schedule IR (schedule.hpp).
//
// All four strategies share one lowering — that is the point of the IR.
// They differ only in their *inputs*:
//   * traditional       — the dense spec with core::traffic_dense,
//   * structure-level   — the grouped spec with core::traffic_dense (the
//     grouping transform already removed the inter-group transitions),
//   * sparsified        — SS / SS_Mask: the dense spec with
//     core::traffic_live from the group-Lasso-trained weights plus the
//     matching SparsityProfile discounting per-core compute,
//   * hybrid            — the grouped spec with live traffic + profile.
// The thin strategy entry points below exist so call sites state intent
// (and get strategy-appropriate invariant checks) while `lower()` stays the
// single source of truth for what a layer transition costs.
//
// Lowering is bit-exact with the pre-IR per-layer inference loop: the
// per-core share/live arithmetic (including its +0.5 roundings and
// accumulation order) is reproduced here so an executor over the built
// schedule yields byte-identical InferenceResults. That loop survives as a
// test oracle (tests/sim/reference_executor.cpp), and the golden
// equivalence suite (`ctest -L sched`) compares CmpSystem against it.

#include <cstddef>
#include <string>
#include <vector>

#include "core/sparsity_profile.hpp"
#include "core/traffic.hpp"
#include "nn/layer_spec.hpp"
#include "sched/schedule.hpp"

namespace ls::sched {

/// Lowering knobs — the subset of ls::sim::SystemConfig the builder needs.
/// (A separate struct keeps ls_sched below ls_sim in the module DAG.)
struct BuildOptions {
  std::size_t cores = 16;
  std::size_t bytes_per_value = 2;
  /// Stamp the overlap ablation onto every comm event.
  bool overlap_comm = false;
  /// Apply SparsityProfile discounts to per-core work (mirrors
  /// SystemConfig::sparse_cycle_model).
  bool sparse_cycle_model = true;
  /// Per-compute-layer parallelization dimension, in layer order (empty =
  /// kernel-wise everywhere, the historical default); the dims and the
  /// placement must pass knob_error(). Non-kernel dims also require a null
  /// SparsityProfile — liveness discounts are defined on the kernel split.
  std::vector<PartitionDim> layer_dims;
  /// Partition index -> physical mesh core permutation (empty = identity).
  /// Remaps every message endpoint and the per-core work vector; with
  /// kernel dims and an identity placement the lowering is bit-exact with
  /// the historical path.
  std::vector<std::size_t> placement;
};

/// Whether `dim` is a legal choice for compute layer `layer_index` (index
/// into the spec's compute layers, in order) — the tuner's move filter and
/// one of knob_error()'s rules.
bool dim_compatible(const nn::NetSpec& spec, std::size_t layer_index,
                    PartitionDim dim);

/// The tuning-knob rules (invariant class 8), in one place: "" when the
/// knobs are valid for `spec` on `cores` cores in `chips` chips, else the
/// broken rule. Dims are empty or one dim_compatible() dim per compute
/// layer; the placement is empty or a bijection of one chip's cores; on
/// more than one chip it is the identity, every stage gets a layer and no
/// stage ends on a channel split. Checked builds run it in lower().
std::string knob_error(const nn::NetSpec& spec,
                       const std::vector<PartitionDim>& layer_dims,
                       const std::vector<std::size_t>& placement,
                       std::size_t cores, std::size_t chips = 1);

/// The shared lowering: one compute event per compute layer of `spec`
/// (per-core work split by core::balanced_ranges, discounted by `sparsity`
/// when given), preceded by a comm event wherever `traffic` carries a
/// non-empty burst into that layer. Events form a linear dependency chain.
Schedule lower(const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
               const BuildOptions& opts,
               const core::SparsityProfile* sparsity = nullptr,
               Strategy strategy = Strategy::kTraditional);

/// Traditional parallelization: dense traffic, no sparsity.
Schedule build_traditional(const nn::NetSpec& spec,
                           const core::InferenceTraffic& dense_traffic,
                           const BuildOptions& opts);

/// Structure-level (grouped) parallelization: the grouped spec's dense
/// traffic — grouping removed the transitions instead of sparsifying them.
Schedule build_structure_level(const nn::NetSpec& grouped_spec,
                               const core::InferenceTraffic& dense_traffic,
                               const BuildOptions& opts);

/// SS / SS_Mask sparsified parallelization: live traffic extracted from the
/// trained weights plus the matching per-core sparsity discounts. The two
/// schemes differ only in training (uniform vs distance-weighted lasso
/// strength); their lowering is identical.
Schedule build_sparsified(const nn::NetSpec& spec,
                          const core::InferenceTraffic& live_traffic,
                          const BuildOptions& opts,
                          const core::SparsityProfile* sparsity);

/// Hybrid: grouped spec + live traffic + sparsity discounts on the
/// still-dense layers.
Schedule build_hybrid(const nn::NetSpec& grouped_spec,
                      const core::InferenceTraffic& live_traffic,
                      const BuildOptions& opts,
                      const core::SparsityProfile* sparsity);

// ---------------------------------------------------------------------------
// Multi-chip stage pipelining (DESIGN.md §4k).

/// Stage-partitions the net's compute layers across `chips` pipeline
/// stages: returns one stage id per compute layer (in layer order),
/// contiguous and non-decreasing with every stage non-empty, balanced by
/// MAC prefix sums so stages carry roughly equal compute. Requires at
/// least `chips` compute layers (a knob_error() rule; checked builds
/// abort).
std::vector<std::size_t> partition_stages(const nn::NetSpec& spec,
                                          std::size_t chips);

/// Multi-chip lowering: runs the shared `lower()` at the per-chip core
/// count (opts.cores = cores per chip; `traffic` must be the per-chip-mesh
/// analysis at that count), then maps each pipeline stage onto its chip's
/// chip-major core range. Intra-stage transitions keep their mesh bursts,
/// localized to the owning chip; stage-boundary transitions are replaced
/// by a single gateway-to-gateway inter-chip transfer of the consumer
/// layer's unique input activations (the serial link carries each byte
/// once — no per-core fan-out off-die). The result spans
/// chips * opts.cores cores with Schedule::chips = chips; chips == 1
/// degenerates to `lower()` exactly. The knobs must pass knob_error() on
/// chips * opts.cores cores in `chips` chips.
Schedule lower_pipelined(const nn::NetSpec& spec,
                         const core::InferenceTraffic& traffic,
                         const BuildOptions& opts, std::size_t chips,
                         const core::SparsityProfile* sparsity = nullptr,
                         Strategy strategy = Strategy::kTraditional);

}  // namespace ls::sched
