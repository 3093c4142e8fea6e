#pragma once
// Analytic cycle scorer over the Schedule IR (DESIGN.md §4g "Schedule
// autotuning").
//
// The autotuner (src/tune) scores thousands of candidate schedules; running
// the flit-level NoC simulation for each would dominate the search, so this
// model prices a schedule in closed form:
//   * compute events — exactly the executor's numbers: the same
//     accel::CoreModel::partition_cost over the event's per-core work (the
//     compute half of the estimate is *not* an approximation),
//   * comm events — a link-contention approximation of the mesh: every
//     message is packetized into flits and routed along its dimension-
//     ordered path; the burst estimate is the larger of (a) the most-loaded
//     resource — a directed link (divided by the physical-channel count), a
//     source's injection port, or a destination's ejection port — plus the
//     head-flit pipeline latency, and (b) the slowest single message's
//     zero-load latency. This tracks the flit simulator closely on both
//     serialization-bound (few hot links) and latency-bound (long sparse
//     paths) bursts; winners are still validated flit-level before being
//     declared (tuner top-k validation).
// Events combine exactly like CmpSystem::execute: overlap-tagged comm
// events charge only the drain time exceeding the previous layer's compute.

#include <cstdint>
#include <vector>

#include "accel/core_model.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "sched/schedule.hpp"

namespace ls::sched {

/// The subset of ls::sim::SystemConfig the scorer needs (kept separate so
/// ls_sched stays below ls_sim in the module DAG).
struct CostModelConfig {
  accel::AccelConfig accel{};
  /// Chip-level DRAM bandwidth in bytes per core cycle, divided across the
  /// cores of one chip exactly like CmpSystem's constructor does (each
  /// chip of a multi-chip package has its own channel).
  double chip_dram_bytes_per_cycle = 12.8;
  noc::NocConfig noc{};
  /// Core cycles per NoC cycle (scales every on-chip comm estimate).
  double noc_clock_divider = 1.0;
  /// Width/latency class of the package's chip-boundary links (multi-chip
  /// schedules only). Inter-chip transfers are priced in core cycles
  /// directly — the serial link has its own clock domain, so the NoC
  /// divider does not apply to it.
  noc::InterChipLinkClass inter_chip{};
};

/// Analytic core-cycle price of one gateway-to-gateway transfer: the fixed
/// crossing latency plus serialization over the boundary's parallel lanes.
/// Shared by the cost model, the executor, and run_stream so the three
/// views of an inter-chip event always agree.
std::uint64_t inter_chip_transfer_cycles(const noc::InterChipLinkClass& link,
                                         std::uint64_t bytes);

/// Per-event view of the estimate, parallel to Schedule::events.
struct EventEstimate {
  /// Contribution to the serial timeline: compute cycles for compute
  /// events, blocking (post-overlap) comm cycles for comm events.
  std::uint64_t cycles = 0;
  /// Comm events only: the estimated full drain before overlap.
  std::uint64_t raw_comm_cycles = 0;
};

struct CycleEstimate {
  std::uint64_t total_cycles = 0;
  std::uint64_t compute_cycles = 0;
  /// Blocking communication total (after per-event overlap policy).
  std::uint64_t comm_cycles = 0;
  std::vector<EventEstimate> events;
};

/// Analytic estimate of executing `schedule` once (see header comment for
/// the model). Deterministic and allocation-light: O(1) per message plus
/// O(mesh links) per burst, so it is safe to call thousands of times from
/// the tuner's search loop. `schedule` must be one sched::verify accepts
/// (every builder's output is).
CycleEstimate estimate_cycles(const Schedule& schedule,
                              const CostModelConfig& cfg);

}  // namespace ls::sched
