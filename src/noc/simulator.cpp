#include "noc/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <queue>
#include <stdexcept>
#include <vector>

#include "check/check.hpp"
#include "obs/trace.hpp"

namespace ls::noc {

namespace {

std::atomic<bool> g_corrupt_next_run{false};

}  // namespace

namespace testing {

void corrupt_next_run() {
  if constexpr (check::kEnabled) g_corrupt_next_run.store(true);
}

}  // namespace testing

namespace {

// Router ports. kLocal is both injection (as input) and ejection (as
// output direction).
enum Port : std::size_t { kLocal = 0, kNorth, kSouth, kWest, kEast, kNumPorts };

Port opposite(Port p) {
  switch (p) {
    case kNorth:
      return kSouth;
    case kSouth:
      return kNorth;
    case kWest:
      return kEast;
    case kEast:
      return kWest;
    default:
      return kLocal;
  }
}

struct Flit {
  std::uint32_t packet = 0;
  std::uint16_t dst = 0;
  bool tail = false;
  /// Output port at the router buffering the flit, looked up when it lands
  /// there (kLocal while queued at its source or on a link).
  std::uint8_t out = kLocal;
};

/// A flit on a link, landing at `arrival` in input slot `slot` (port x VC)
/// of `router`.
struct InFlight {
  std::uint64_t arrival = 0;
  Flit flit;
  std::uint32_t router = 0;
  std::uint32_t slot = 0;
};

struct InFlightLater {
  bool operator()(const InFlight& a, const InFlight& b) const {
    return a.arrival > b.arrival;
  }
};

}  // namespace

MeshNocSimulator::MeshNocSimulator(MeshTopology topo, NocConfig cfg)
    : topo_(topo), cfg_(cfg) {
  if (cfg_.flit_bytes == 0 || cfg_.max_packet_flits == 0 || cfg_.vcs == 0 ||
      cfg_.vc_depth == 0 || cfg_.phys_channels == 0) {
    throw std::invalid_argument("degenerate NoC config");
  }
  if (cfg_.vcs > 8) {
    throw std::invalid_argument("at most 8 virtual channels supported");
  }
}

std::size_t MeshNocSimulator::flits_for_bytes(std::size_t bytes) const {
  return (bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
}

std::uint64_t MeshNocSimulator::zero_load_latency(const Message& m) const {
  return zero_load_latency(topo_.hops(m.src, m.dst), flits_for_bytes(m.bytes));
}

std::uint64_t MeshNocSimulator::zero_load_latency(std::size_t hops,
                                                  std::size_t flits) const {
  // Head flit pays (router_latency + 1 link cycle) per hop plus the final
  // router; body flits stream behind at the link rate.
  const std::uint64_t head =
      static_cast<std::uint64_t>(hops + 1) * cfg_.router_latency +
      static_cast<std::uint64_t>(hops);
  const std::uint64_t serialization =
      (std::max<std::size_t>(1, flits) - 1) / cfg_.phys_channels;
  return head + serialization;
}

NocStats MeshNocSimulator::run(const std::vector<Message>& messages,
                               std::uint64_t max_cycles) const {
  obs::Span burst_span;
  if (obs::trace_enabled()) burst_span.begin("noc.burst", "noc");

  const std::size_t n = topo_.num_cores();
  const std::size_t vcs = cfg_.vcs;
  // Input slots per router: (port, VC) pairs, slot = port * vcs + vc. At
  // most 5 x 8 = 40, so one 64-bit mask covers a router.
  const std::size_t slots = kNumPorts * vcs;
  const std::size_t depth = cfg_.vc_depth;

  // Packet bookkeeping.
  struct PacketInfo {
    std::uint64_t inject = 0;
    bool done = false;
  };
  std::vector<PacketInfo> packets;

  // Pending injection flits per source node, in message order; the VC is
  // the packet id mod vcs.
  struct PendingFlit {
    std::uint64_t ready = 0;
    Flit flit;
  };
  std::vector<std::vector<PendingFlit>> inject_q(n);

  NocStats stats;
  obs::Span phase_span;
  if (obs::trace_enabled()) phase_span.begin("noc.packetize", "noc");
  std::uint64_t next_packet = 0;
  for (const Message& m : messages) {
    if (m.src >= n || m.dst >= n) throw std::out_of_range("message endpoint");
    if (m.src == m.dst || m.bytes == 0) continue;  // no NoC traffic
    std::size_t flits_left = flits_for_bytes(m.bytes);
    while (flits_left > 0) {
      const std::size_t in_pkt = std::min(flits_left, cfg_.max_packet_flits);
      const auto pkt_id = static_cast<std::uint32_t>(next_packet++);
      packets.push_back({m.inject_cycle, false});
      for (std::size_t f = 0; f < in_pkt; ++f) {
        Flit flit;
        flit.packet = pkt_id;
        flit.dst = static_cast<std::uint16_t>(m.dst);
        flit.tail = (f + 1 == in_pkt);
        inject_q[m.src].push_back({m.inject_cycle, flit});
        ++stats.total_flits;
      }
      flits_left -= in_pkt;
    }
  }
  phase_span.end();
  stats.packets = packets.size();
  if (stats.total_flits == 0) return stats;

#ifdef LS_ENABLE_CHECKS
  // One-shot test fault: duplicate a pending flit so the network carries
  // one more flit than the packetizer accounted for. The conservation
  // checks after the drain loop must catch this.
  if (g_corrupt_next_run.exchange(false)) {
    for (auto& q : inject_q) {
      if (!q.empty()) {
        q.push_back(q.front());
        break;
      }
    }
  }
#endif

  if (obs::trace_enabled()) phase_span.begin("noc.drain", "noc");

  // Routing tables, built per run (constructing a simulator stays free):
  // the output port from each router toward each destination, and each
  // router's neighbor per port.
  std::vector<std::uint8_t> next_hop(n * n, kLocal);
  std::vector<std::uint32_t> neighbor(n * kNumPorts, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const Coord here = topo_.coord(r);
    for (std::size_t d = 0; d < n; ++d) {
      const Coord there = topo_.coord(d);
      const Port along_x = there.x > here.x   ? kEast
                           : there.x < here.x ? kWest
                                              : kLocal;
      const Port along_y = there.y > here.y   ? kSouth
                           : there.y < here.y ? kNorth
                                              : kLocal;
      const bool xy = cfg_.routing == Routing::kXY;
      const Port first = xy ? along_x : along_y;
      next_hop[r * n + d] = first != kLocal ? first : xy ? along_y : along_x;
    }
    const auto link = [&](Port dir, std::size_t x, std::size_t y) {
      neighbor[r * kNumPorts + dir] =
          static_cast<std::uint32_t>(topo_.core_at({x, y}));
    };
    if (here.y > 0) link(kNorth, here.x, here.y - 1);
    if (here.y + 1 < topo_.rows()) link(kSouth, here.x, here.y + 1);
    if (here.x > 0) link(kWest, here.x - 1, here.y);
    if (here.x + 1 < topo_.cols()) link(kEast, here.x + 1, here.y);
  }

  // Input buffers: one flat ring of `depth` flits per (router, slot), at
  // buffer index r * slots + slot. `held` is what a ring holds;
  // `occupancy` adds the flits in flight toward it (credits are taken at
  // send time), so a ring never holds more than `depth`.
  std::vector<Flit> ring(n * slots * depth);
  std::vector<std::uint32_t> head(n * slots, 0);
  std::vector<std::uint32_t> held(n * slots, 0);
  std::vector<std::uint32_t> occupancy(n * slots, 0);
  // Non-empty input slots per router, and the routers with any.
  std::vector<std::uint64_t> busy_slots(n, 0);
  std::vector<std::uint64_t> busy_routers((n + 63) / 64, 0);
  std::uint8_t slot_vc[kNumPorts * 8] = {};
  for (std::size_t slot = 0; slot < slots; ++slot) {
    slot_vc[slot] = static_cast<std::uint8_t>(slot % vcs);
  }

  auto push = [&](std::size_t r, std::size_t slot, Flit flit) {
    const std::size_t bi = r * slots + slot;
    flit.out = next_hop[r * n + flit.dst];
    std::size_t at = head[bi] + held[bi];
    if (at >= depth) at -= depth;
    ring[bi * depth + at] = flit;
    ++held[bi];
    busy_slots[r] |= std::uint64_t{1} << slot;
    busy_routers[r / 64] |= std::uint64_t{1} << (r % 64);
  };
  auto pop = [&](std::size_t r, std::size_t slot) {
    const std::size_t bi = r * slots + slot;
    if (++head[bi] == depth) head[bi] = 0;
    if (--held[bi] == 0) {
      busy_slots[r] &= ~(std::uint64_t{1} << slot);
      if (busy_slots[r] == 0) {
        busy_routers[r / 64] &= ~(std::uint64_t{1} << (r % 64));
      }
    }
  };

  // The heap decides the order in which flits landing in one cycle enter a
  // ring, and two flits can land in the same ring in the same cycle; its
  // comparator and push/pop sequence are part of the model's output.
  std::priority_queue<InFlight, std::vector<InFlight>, InFlightLater> in_flight;

  // Sources with flits still to inject, and each one's next flit.
  std::vector<std::size_t> sources;
  std::vector<std::size_t> inject_pos(n, 0);
  for (std::size_t src = 0; src < n; ++src) {
    if (!inject_q[src].empty()) sources.push_back(src);
  }

  // Flit counts per directed inter-router link (router x direction).
  std::vector<std::uint64_t> link_flits(n * kNumPorts, 0);

  std::uint64_t delivered_flits = 0;
  std::uint64_t total_pkt_latency = 0;
  std::uint64_t cycle = 0;
  const std::uint64_t all_slots = (std::uint64_t{1} << slots) - 1;

  for (; delivered_flits < stats.total_flits; ++cycle) {
    if (cycle > max_cycles) {
      throw std::runtime_error("NoC simulation exceeded max_cycles");
    }

    // 1. Land in-flight flits whose arrival time is now.
    while (!in_flight.empty() && in_flight.top().arrival <= cycle) {
      const InFlight f = in_flight.top();
      in_flight.pop();
      push(f.router, f.slot, f.flit);
      // occupancy was already incremented at send time
    }

    // 2. Injection: move pending flits into the local input port. Sources
    // touch only their own router's local slots, so their order is free.
    for (std::size_t i = 0; i < sources.size();) {
      const std::size_t src = sources[i];
      const auto& q = inject_q[src];
      std::size_t& pos = inject_pos[src];
      std::size_t injected = 0;
      while (pos < q.size() && injected < cfg_.phys_channels) {
        const PendingFlit& pf = q[pos];
        if (pf.ready > cycle) break;
        const std::size_t slot = kLocal * vcs + pf.flit.packet % vcs;
        std::uint32_t& occ = occupancy[src * slots + slot];
        if (occ >= depth) break;
        ++occ;
        push(src, slot, pf.flit);
        ++pos;
        ++injected;
      }
      if (pos == q.size()) {
        sources[i] = sources.back();
        sources.pop_back();
      } else {
        ++i;
      }
    }

    // 3. Switch allocation: per router, per output direction, grant up to
    // phys_channels head flits, round-robin over the input slots. Every
    // (router, output) round-robin pointer advances once per cycle whether
    // or not it grants, so it equals cycle % slots: no pointer state is
    // kept, and routers with nothing buffered can be skipped. Busy routers
    // still go in ascending order: a credit freed by router r's pop is
    // visible to higher-numbered routers in the same cycle.
    const std::size_t rot = cycle % slots;
    for (std::size_t w = 0; w < busy_routers.size(); ++w) {
      for (std::uint64_t rbits = busy_routers[w]; rbits != 0;
           rbits &= rbits - 1) {
        const std::size_t r = w * 64 + std::countr_zero(rbits);
        // One request mask per output port, from the heads buffered as the
        // router starts. A slot pops at most once per cycle, so a head a
        // pop uncovers waits for the next cycle, and the masks stay exact
        // while the ports are granted in turn.
        std::uint64_t request[kNumPorts] = {};
        for (std::uint64_t m = busy_slots[r]; m != 0; m &= m - 1) {
          const auto slot = static_cast<std::size_t>(std::countr_zero(m));
          const std::size_t bi = r * slots + slot;
          request[ring[bi * depth + head[bi]].out] |= std::uint64_t{1} << slot;
        }
        for (std::size_t out = 0; out < kNumPorts; ++out) {
          // Rotate the mask right by `rot`, so bit k is slot (rot + k) mod
          // slots: rotation order is ascending bit order.
          std::uint64_t m = request[out];
          if (m == 0) continue;
          m = ((m >> rot) | (m << (slots - rot))) & all_slots;
          for (std::size_t granted = 0; m != 0 && granted < cfg_.phys_channels;
               m &= m - 1) {
            std::size_t slot = rot + std::countr_zero(m);
            if (slot >= slots) slot -= slots;
            const std::size_t bi = r * slots + slot;
            const Flit head_flit = ring[bi * depth + head[bi]];

            if (out == kLocal) {
              // Ejection.
              PacketInfo& pkt = packets[head_flit.packet];
              if (head_flit.tail) {
                pkt.done = true;
                const std::uint64_t lat = cycle - pkt.inject;
                total_pkt_latency += lat;
                stats.max_packet_latency =
                    std::max(stats.max_packet_latency, lat);
              }
              ++stats.router_traversals;
              ++delivered_flits;
              --occupancy[bi];
              pop(r, slot);
              ++granted;
              continue;
            }

            const std::size_t next_r = neighbor[r * kNumPorts + out];
            const std::size_t next_slot =
                opposite(static_cast<Port>(out)) * vcs + slot_vc[slot];
            std::uint32_t& next_occ = occupancy[next_r * slots + next_slot];
            if (next_occ >= depth) continue;  // no credit
            ++next_occ;
            --occupancy[bi];
            InFlight fl;
            fl.arrival = cycle + cfg_.router_latency + 1;
            fl.flit = head_flit;
            fl.router = static_cast<std::uint32_t>(next_r);
            fl.slot = static_cast<std::uint32_t>(next_slot);
            in_flight.push(fl);
            ++link_flits[r * kNumPorts + out];
            ++stats.flit_hops;
            ++stats.router_traversals;
            pop(r, slot);
            ++granted;
          }
        }
      }
    }
  }

  phase_span.end();

  // Conservation invariants (checked builds): every flit the packetizer
  // injected must have drained — nothing left in source queues, router
  // buffers, or on a link — credits must be fully returned, every packet
  // delivered, and the per-link counters must sum to exactly the hop count.
  // These are the conserved quantities the paper's communication metrics
  // (and the ls::obs heatmap) are built on.
  if constexpr (check::kEnabled) {
    std::size_t undrained = in_flight.size();
    for (std::size_t src = 0; src < n; ++src) {
      undrained += inject_q[src].size() - inject_pos[src];
    }
    for (const std::uint32_t h : held) undrained += h;
    LS_CHECK_MSG(undrained == 0,
                 "noc flit conservation: %llu flits injected, %llu "
                 "delivered, %zu left undrained",
                 static_cast<unsigned long long>(stats.total_flits),
                 static_cast<unsigned long long>(delivered_flits), undrained);
    LS_CHECK_MSG(delivered_flits == stats.total_flits,
                 "noc flit conservation: delivered %llu != injected %llu",
                 static_cast<unsigned long long>(delivered_flits),
                 static_cast<unsigned long long>(stats.total_flits));
    std::size_t credits_out = 0;
    for (const std::uint32_t occ : occupancy) credits_out += occ;
    LS_CHECK_MSG(credits_out == 0,
                 "noc flit conservation: %zu buffer credits unreturned",
                 credits_out);
    std::uint64_t link_sum = 0;
    for (const std::uint64_t count : link_flits) link_sum += count;
    LS_CHECK_MSG(link_sum == stats.flit_hops,
                 "noc flit conservation: per-link heatmap total %llu != "
                 "flit_hops %llu",
                 static_cast<unsigned long long>(link_sum),
                 static_cast<unsigned long long>(stats.flit_hops));
    LS_CHECK_MSG(
        stats.router_traversals == stats.flit_hops + delivered_flits,
        "noc flit conservation: router traversals %llu != hops %llu + "
        "ejections %llu",
        static_cast<unsigned long long>(stats.router_traversals),
        static_cast<unsigned long long>(stats.flit_hops),
        static_cast<unsigned long long>(delivered_flits));
    for (std::size_t p = 0; p < packets.size(); ++p) {
      LS_CHECK_MSG(packets[p].done,
                   "noc flit conservation: packet %zu never delivered", p);
    }
  }

  for (const std::uint64_t count : link_flits) {
    if (count > 0) {
      ++stats.links_used;
      stats.max_link_flits = std::max(stats.max_link_flits, count);
    }
  }
  stats.completion_cycle = cycle;
  stats.avg_packet_latency =
      stats.packets ? static_cast<double>(total_pkt_latency) /
                          static_cast<double>(stats.packets)
                    : 0.0;
  stats.per_link_flits = std::move(link_flits);

  if (obs::trace_enabled()) {
    char args[96];
    std::snprintf(args, sizeof(args),
                  "{\"flits\":%llu,\"packets\":%llu,\"cycles\":%llu}",
                  static_cast<unsigned long long>(stats.total_flits),
                  static_cast<unsigned long long>(stats.packets),
                  static_cast<unsigned long long>(stats.completion_cycle));
    burst_span.set_args(args);
  }
  return stats;
}

}  // namespace ls::noc
