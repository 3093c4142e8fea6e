#include "sched/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/check.hpp"
#include "noc/topology.hpp"

namespace ls::sched {

namespace {

// Directed-link load accumulator for one burst. A dimension-ordered route
// loads one contiguous run of links along a row and one along a column, so
// each run is recorded in O(1) in a difference array (+flits at the run's
// first link, -flits past its last), one array per line and direction:
// east/west per row, south/north per column. One prefix sweep per burst
// then gives every directed link's load. Core coordinates come from a
// table built once per estimate, so routing a message divides nothing.
// The local injection/ejection ports are tracked per core (they are
// single-channel — phys_channels multiplies mesh links only).
class LinkLoads {
 public:
  LinkLoads(const noc::MeshTopology& topo, noc::Routing routing)
      : x_first_(routing == noc::Routing::kXY),
        rows_(topo.rows()),
        stride_(std::max(topo.cols(), topo.rows()) + 1),
        diff_(2 * (topo.rows() + topo.cols()) * stride_, 0),
        inject_(topo.num_cores(), 0),
        eject_(topo.num_cores(), 0) {
    at_.reserve(topo.num_cores());
    for (std::size_t c = 0; c < topo.num_cores(); ++c) {
      at_.push_back(topo.coord(c));
    }
  }

  void clear() {
    std::fill(diff_.begin(), diff_.end(), 0);
    std::fill(inject_.begin(), inject_.end(), 0);
    std::fill(eject_.begin(), eject_.end(), 0);
  }

  /// Loads the route of `flits` flits from src to dst; returns its hops.
  std::size_t route(std::size_t src, std::size_t dst, std::uint64_t flits) {
    if (src >= at_.size() || dst >= at_.size()) {
      throw std::out_of_range("core id");
    }
    inject_[src] += flits;
    eject_[dst] += flits;
    const std::size_t sx = at_[src].x, sy = at_[src].y;
    const std::size_t dx = at_[dst].x, dy = at_[dst].y;
    // XY turns at (dx, sy): the x run rides row sy, the y run column dx.
    // YX turns at (sx, dy).
    const auto f = static_cast<std::int64_t>(flits);
    add_run(x_first_ ? sy : dy, sx, dx, f);
    add_run(rows_ + (x_first_ ? dx : sx), sy, dy, f);
    return (sx > dx ? sx - dx : dx - sx) + (sy > dy ? sy - dy : dy - sy);
  }

  /// Cycles the most contended resource needs to pass its flits. Ceiling
  /// division is monotone, so dividing the largest link load equals the
  /// largest per-link quotient.
  std::uint64_t bottleneck_cycles(std::size_t phys_channels) const {
    std::int64_t link = 0;
    for (std::size_t base = 0; base < diff_.size(); base += stride_) {
      std::int64_t load = 0;
      for (std::size_t i = base; i < base + stride_; ++i) {
        load += diff_[i];
        link = std::max(link, load);
      }
    }
    std::uint64_t worst =
        (static_cast<std::uint64_t>(link) + phys_channels - 1) /
        phys_channels;
    for (const std::uint64_t load : inject_) worst = std::max(worst, load);
    for (const std::uint64_t load : eject_) worst = std::max(worst, load);
    return worst;
  }

 private:
  /// Loads the links from router `from` to router `to` along `line` (rows
  /// first, then columns). Each line holds a forward (east/south) then a
  /// backward (west/north) array of `stride_` slots; slot i is the link
  /// leaving router i, and the spare last slot takes the -flits of a run
  /// that ends at the mesh edge.
  void add_run(std::size_t line, std::size_t from, std::size_t to,
               std::int64_t flits) {
    std::int64_t* d = diff_.data() + 2 * line * stride_;
    if (to > from) {
      d[from] += flits;
      d[to] -= flits;
    } else if (to < from) {
      d += stride_;
      d[to + 1] += flits;
      d[from + 1] -= flits;
    }
  }

  bool x_first_;
  std::size_t rows_;
  std::size_t stride_;
  std::vector<noc::Coord> at_;
  std::vector<std::int64_t> diff_;
  std::vector<std::uint64_t> inject_;
  std::vector<std::uint64_t> eject_;
};

/// Estimates one burst whose endpoints sit `base` cores into the machine
/// (the owning chip's first core; 0 on a single chip).
std::uint64_t estimate_burst(const noc::MeshNocSimulator& sim,
                             LinkLoads& loads,
                             const std::vector<noc::Message>& messages,
                             std::size_t base) {
  loads.clear();
  std::uint64_t max_zero_load = 0;
  for (const noc::Message& m : messages) {
    if (m.src == m.dst || m.bytes == 0) continue;
    const std::size_t flits = sim.flits_for_bytes(m.bytes);
    const std::size_t hops = loads.route(m.src - base, m.dst - base, flits);
    max_zero_load = std::max(max_zero_load, sim.zero_load_latency(hops, flits));
  }
  // Serialization-bound bursts drain at the bottleneck resource's rate
  // (plus the head-flit pipeline of the last packet through it);
  // latency-bound bursts finish with their slowest lone message.
  return std::max(max_zero_load,
                  loads.bottleneck_cycles(sim.config().phys_channels) +
                      sim.config().router_latency);
}

}  // namespace

std::uint64_t inter_chip_transfer_cycles(const noc::InterChipLinkClass& link,
                                         std::uint64_t bytes) {
  const double bw =
      link.bytes_per_cycle * static_cast<double>(link.links_per_boundary);
  LS_CHECK_MSG(bw > 0.0, "inter-chip link has zero bandwidth");
  return link.latency_cycles +
         static_cast<std::uint64_t>(
             std::ceil(static_cast<double>(bytes) / bw));
}

CycleEstimate estimate_cycles(const Schedule& schedule,
                              const CostModelConfig& cfg) {
  // Bursts ride each chip's own mesh; on a single-chip schedule this is
  // exactly the historical whole-machine mesh.
  const std::size_t cores_per_chip = schedule.cores / schedule.chips;
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cores_per_chip);
  const noc::MeshNocSimulator sim(topo, cfg.noc);
  // Same per-core DRAM-share construction as CmpSystem: the compute half
  // of the estimate is bit-identical to the executor's numbers. Every chip
  // has its own DRAM channel, shared by its cores.
  accel::AccelConfig per_core = cfg.accel;
  per_core.dram_bytes_per_cycle =
      cfg.chip_dram_bytes_per_cycle / static_cast<double>(cores_per_chip);
  const accel::CoreModel core_model(per_core);

  CycleEstimate est;
  est.events.resize(schedule.events.size());
  std::uint64_t prev_compute = 0;
  LinkLoads loads(topo, cfg.noc.routing);
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const Event& e = schedule.events[i];
    if (e.kind == EventKind::kComm) {
      // prev_compute still holds the *previous* layer's compute here — the
      // consumer compute event that follows is what updates it — so the
      // overlap arithmetic matches CmpSystem::execute exactly.
      std::uint64_t raw = 0;
      if (e.inter_chip) {
        raw = inter_chip_transfer_cycles(cfg.inter_chip, e.traffic_bytes);
      } else {
        // The burst rides its owning chip's mesh coordinates.
        const std::size_t base =
            schedule.chips > 1 ? e.chip * cores_per_chip : 0;
        raw = static_cast<std::uint64_t>(
            static_cast<double>(
                estimate_burst(sim, loads, e.messages, base)) *
            cfg.noc_clock_divider);
      }
      std::uint64_t blocking = raw;
      if (e.overlap_with_prev_compute) {
        blocking = raw > prev_compute ? raw - prev_compute : 0;
      }
      est.events[i].raw_comm_cycles = raw;
      est.events[i].cycles = blocking;
      est.comm_cycles += blocking;
      continue;
    }
    const accel::PartitionCost cost =
        core_model.partition_cost(e.per_core_work);
    est.events[i].cycles = cost.worst_cycles;
    est.compute_cycles += cost.worst_cycles;
    prev_compute = cost.worst_cycles;
  }
  est.total_cycles = est.compute_cycles + est.comm_cycles;
  return est;
}

}  // namespace ls::sched
