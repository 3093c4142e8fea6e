// Golden NocStats corpus for MeshNocSimulator::run. Every case's stats are
// frozen as an FNV-1a digest over every NocStats field (per_link_flits
// included), next to a readable completion cycle and average packet
// latency for the mismatch message. The table was produced by the
// straightforward full-scan simulator (std::deque FIFOs, every router x
// output port x input slot visited every cycle); any rewrite of the drain
// loop must reproduce it bit for bit.
//
// Each row also freezes a digest of the case's input burst. Half the cases
// come from the schedule builders, so a change there moves the input
// digest, and the failure says the burst changed rather than the simulator.
//
// To regenerate after an intended model or builder change, run this suite:
// each mismatch prints the case's replacement table row.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic.hpp"
#include "nn/layer_spec.hpp"
#include "nn/model_zoo.hpp"
#include "noc/simulator.hpp"
#include "sched/builders.hpp"
#include "sim/system.hpp"
#include "tune/tuner.hpp"
#include "util/rng.hpp"

namespace ls::noc {
namespace {

struct Golden {
  const char* name;
  std::uint64_t input;  ///< digest of the case's Message list
  std::uint64_t digest;
  std::uint64_t completion_cycle;
  double avg_packet_latency;
};

struct Case {
  std::string name;
  MeshTopology topo;
  NocConfig cfg;
  std::vector<Message> msgs;
};

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const NocStats& s) {
  Fnv d;
  d.u64(s.completion_cycle);
  d.u64(s.total_flits);
  d.u64(s.flit_hops);
  d.u64(s.router_traversals);
  d.u64(s.packets);
  d.f64(s.avg_packet_latency);
  d.u64(s.max_packet_latency);
  d.u64(s.max_link_flits);
  d.u64(s.links_used);
  d.u64(s.per_link_flits.size());
  for (const std::uint64_t f : s.per_link_flits) d.u64(f);
  return d.value();
}

std::uint64_t digest(const std::vector<Message>& msgs) {
  Fnv d;
  d.u64(msgs.size());
  for (const Message& m : msgs) {
    d.u64(m.src);
    d.u64(m.dst);
    d.u64(m.bytes);
    d.u64(m.inject_cycle);
  }
  return d.value();
}

// --- Synthetic corpus --------------------------------------------------------

std::size_t other_than(std::size_t s, std::size_t d, std::size_t n) {
  return d == s ? (d + 1) % n : d;
}

std::vector<Message> all_to_all(std::size_t n) {
  std::vector<Message> msgs;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      if (s != d) msgs.push_back({s, d, 3 * 64, 0});
    }
  }
  return msgs;
}

/// Seeded uniform-random pairs; sizes span one to three packets.
std::vector<Message> uniform_random(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Message> msgs;
  for (std::size_t i = 0; i < 4 * n; ++i) {
    const std::size_t s = rng.uniform_index(n);
    const std::size_t d = other_than(s, rng.uniform_index(n), n);
    msgs.push_back({s, d, 64 * (1 + rng.uniform_index(48)) - 7, 0});
  }
  return msgs;
}

/// Every other core sends to one hotspot: ejection-bound, with the mesh
/// backing up behind it.
std::vector<Message> hotspot(std::size_t n) {
  const std::size_t sink = n / 2 + 1;
  std::vector<Message> msgs;
  for (std::size_t s = 0; s < n; ++s) {
    if (s != sink) msgs.push_back({s, sink, 64 * (8 + s % 5), 0});
  }
  return msgs;
}

/// Waves of random messages 1500 cycles apart, so the mesh drains and sits
/// idle between them; a source's queue is not sorted by inject_cycle, so a
/// late message can hold back an earlier-ready one behind it.
std::vector<Message> staggered(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Message> msgs;
  for (std::size_t i = 0; i < 3 * n; ++i) {
    const std::size_t s = rng.uniform_index(n);
    const std::size_t d = other_than(s, rng.uniform_index(n), n);
    const std::uint64_t inject =
        1500 * rng.uniform_index(4) + rng.uniform_index(20);
    msgs.push_back({s, d, 64 * (1 + rng.uniform_index(24)), inject});
  }
  return msgs;
}

/// The 18 buffer/channel configurations: vcs {1, 3, 8} x vc_depth {1, 4} x
/// phys_channels {1, 2, 3}. 8 VCs give 40 (port, VC) input slots.
NocConfig config_at(std::size_t k, Routing routing) {
  static constexpr std::size_t kVcs[] = {1, 3, 8};
  static constexpr std::size_t kDepth[] = {1, 4};
  static constexpr std::size_t kPhys[] = {1, 2, 3};
  NocConfig cfg;
  cfg.vcs = kVcs[k % 3];
  cfg.vc_depth = kDepth[(k / 3) % 2];
  cfg.phys_channels = kPhys[(k / 6) % 3];
  cfg.routing = routing;
  return cfg;
}

/// Meshes {4x4, 8x4, 8x8} x {XY, YX} x four patterns, each under two of the
/// 18 configurations (k and k + 7, so all 18 appear several times).
std::vector<Case> synthetic_cases() {
  const MeshTopology meshes[] = {MeshTopology(4, 4), MeshTopology(8, 4),
                                 MeshTopology(8, 8)};
  std::vector<Case> cases;
  std::size_t k = 0;
  for (const MeshTopology& topo : meshes) {
    const std::size_t n = topo.num_cores();
    const std::string mesh =
        std::to_string(topo.cols()) + "x" + std::to_string(topo.rows());
    for (const Routing routing : {Routing::kXY, Routing::kYX}) {
      const char* rname = routing == Routing::kXY ? "xy" : "yx";
      const std::pair<const char*, std::vector<Message>> patterns[] = {
          {"all_to_all", all_to_all(n)},
          {"uniform", uniform_random(n, 17 + k)},
          {"hotspot", hotspot(n)},
          {"staggered", staggered(n, 29 + k)}};
      for (const auto& [pname, msgs] : patterns) {
        for (const std::size_t cfg_k : {k % 18, (k + 7) % 18}) {
          const NocConfig cfg = config_at(cfg_k, routing);
          const std::string name =
              mesh + "/" + rname + "/" + pname + "/vc" +
              std::to_string(cfg.vcs) + "d" + std::to_string(cfg.vc_depth) +
              "p" + std::to_string(cfg.phys_channels);
          cases.push_back({name, topo, cfg, msgs});
        }
        ++k;
      }
    }
  }
  return cases;
}

// --- Real layer-transition bursts --------------------------------------------

/// A seeded random tuned candidate: random legal per-layer dims and a
/// random placement permutation.
tune::Candidate random_candidate(const nn::NetSpec& spec, std::size_t cores,
                                 std::uint64_t seed) {
  constexpr sched::PartitionDim kDims[] = {
      sched::PartitionDim::kKernel, sched::PartitionDim::kBatch,
      sched::PartitionDim::kHeight, sched::PartitionDim::kWidth,
      sched::PartitionDim::kChannel};
  util::Rng rng(seed);
  std::size_t layers = 0;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    layers += a.is_compute() ? 1 : 0;
  }
  tune::Candidate c;
  for (std::size_t li = 0; li < layers; ++li) {
    std::vector<sched::PartitionDim> legal;
    for (const sched::PartitionDim d : kDims) {
      if (sched::dim_compatible(spec, li, d)) legal.push_back(d);
    }
    c.layer_dims.push_back(legal[rng.uniform_index(legal.size())]);
  }
  c.placement.resize(cores);
  for (std::size_t p = 0; p < cores; ++p) c.placement[p] = p;
  for (std::size_t p = cores; p > 1; --p) {
    std::swap(c.placement[p - 1], c.placement[rng.uniform_index(p)]);
  }
  return c;
}

/// Every kernel-wise transition burst of ConvNet and AlexNet at 16 and 64
/// cores, plus every burst of one seeded random candidate per package.
std::vector<Case> schedule_cases() {
  std::vector<Case> cases;
  for (const nn::NetSpec& spec : {nn::convnet_spec(), nn::alexnet_spec()}) {
    for (const std::size_t cores : {16, 64}) {
      sim::SystemConfig cfg;
      cfg.cores = cores;
      const sim::CmpSystem system(cfg);
      const core::InferenceTraffic traffic =
          core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
      const std::pair<const char*, sched::Schedule> schedules[] = {
          {"kernel", system.build_schedule(spec, traffic)},
          {"random",
           tune::lower_candidate(spec, traffic, cfg,
                                 random_candidate(spec, cores, 7 + cores),
                                 sched::Strategy::kTraditional)}};
      for (const auto& [kind, schedule] : schedules) {
        for (const sched::Event& e : schedule.events) {
          if (e.kind != sched::EventKind::kComm || e.messages.empty()) {
            continue;
          }
          cases.push_back({spec.name + "@" + std::to_string(cores) + "/" +
                               kind + "/" + e.layer_name,
                           system.topology(), cfg.noc, e.messages});
        }
      }
    }
  }
  return cases;
}

// clang-format off
constexpr Golden kGolden[] = {
    {"4x4/xy/all_to_all/vc1d1p1", 0x90faa53d141b0875ull, 0xfee26b3d9bc74240ull, 524, 246.92500000000001},
    {"4x4/xy/all_to_all/vc3d1p2", 0x90faa53d141b0875ull, 0x88a6101a3e7f8527ull, 310, 140.68333333333334},
    {"4x4/xy/uniform/vc3d1p1", 0x076c48b177f47c32ull, 0x57805b445f664951ull, 1002, 437.74774774774772},
    {"4x4/xy/uniform/vc8d1p2", 0x076c48b177f47c32ull, 0xec2149a1f1db3f6dull, 899, 337.14414414414415},
    {"4x4/xy/hotspot/vc8d1p1", 0x0f8e0a14b7d79fc8ull, 0xc48b812f48901273ull, 168, 117.66666666666667},
    {"4x4/xy/hotspot/vc1d4p2", 0x0f8e0a14b7d79fc8ull, 0x6f0048be15d16ab4ull, 106, 60.200000000000003},
    {"4x4/xy/staggered/vc1d4p1", 0x7bb417a57ae5f0e2ull, 0xb2138732d9e5698eull, 4626, 994.27272727272725},
    {"4x4/xy/staggered/vc3d4p2", 0x7bb417a57ae5f0e2ull, 0xa959a20cd55baedbull, 4597, 987.29090909090905},
    {"4x4/yx/all_to_all/vc3d4p1", 0x90faa53d141b0875ull, 0x3af2ebe1dae6f2e2ull, 114, 55.712499999999999},
    {"4x4/yx/all_to_all/vc8d4p2", 0x90faa53d141b0875ull, 0xa2a29c3986384b19ull, 55, 28.5},
    {"4x4/yx/uniform/vc8d4p1", 0xc26e46a5ea187834ull, 0x02857705eb007584ull, 273, 114.78378378378379},
    {"4x4/yx/uniform/vc1d1p3", 0xc26e46a5ea187834ull, 0xcf1b80624e1426fcull, 1561, 557.12612612612611},
    {"4x4/yx/hotspot/vc1d1p2", 0x0f8e0a14b7d79fc8ull, 0xe2e507cdf7e9a1f0ull, 309, 160.40000000000001},
    {"4x4/yx/hotspot/vc3d1p3", 0x0f8e0a14b7d79fc8ull, 0xc3bcab4c2dbd07a2ull, 140, 77.86666666666666},
    {"4x4/yx/staggered/vc3d1p2", 0xdeee3138c7e51e17ull, 0xc1bd0743fe0d22bfull, 4700, 818.9636363636364},
    {"4x4/yx/staggered/vc8d1p3", 0xdeee3138c7e51e17ull, 0xe0de5671310902deull, 4723, 816.87272727272727},
    {"8x4/xy/all_to_all/vc8d1p2", 0x3beb84e7cba79dd4ull, 0xc8ec04392797c9f6ull, 346, 151.88508064516128},
    {"8x4/xy/all_to_all/vc1d4p3", 0x3beb84e7cba79dd4ull, 0x1c172af29dcc22eeull, 390, 171.17741935483872},
    {"8x4/xy/uniform/vc1d4p2", 0x7a4a302b36f96bacull, 0xfee8da4bf736e2feull, 544, 199.44796380090497},
    {"8x4/xy/uniform/vc3d4p3", 0x7a4a302b36f96bacull, 0xc144b394ce62ecacull, 262, 113.62895927601809},
    {"8x4/xy/hotspot/vc3d4p2", 0xe89b9295c87e215cull, 0x800b30277434745eull, 160, 114.41935483870968},
    {"8x4/xy/hotspot/vc8d4p3", 0xe89b9295c87e215cull, 0x9be6a86caccc12c3ull, 112, 71.967741935483872},
    {"8x4/xy/staggered/vc8d4p2", 0x650be7585c71235dull, 0x8cec67276bcafba1ull, 4589, 900.5090909090909},
    {"8x4/xy/staggered/vc1d1p1", 0x650be7585c71235dull, 0x5db1bad15fdc82bdull, 5105, 1049.4545454545455},
    {"8x4/yx/all_to_all/vc1d1p3", 0x3beb84e7cba79dd4ull, 0xeae0b9fc4f16477full, 2161, 1042.2540322580646},
    {"8x4/yx/all_to_all/vc3d1p1", 0x3beb84e7cba79dd4ull, 0x849e682d152e6064ull, 910, 435.37903225806451},
    {"8x4/yx/uniform/vc3d1p3", 0xa346f5681e065273ull, 0x6553b4decde2f211ull, 1286, 467.09734513274338},
    {"8x4/yx/uniform/vc8d1p1", 0xa346f5681e065273ull, 0x1bff76deae446ba8ull, 954, 353.07079646017701},
    {"8x4/yx/hotspot/vc8d1p3", 0xe89b9295c87e215cull, 0x0ab0e30231ae55d0ull, 203, 122.19354838709677},
    {"8x4/yx/hotspot/vc1d4p1", 0xe89b9295c87e215cull, 0xe6331ff0ee29997cull, 311, 179.19354838709677},
    {"8x4/yx/staggered/vc1d4p3", 0x946045d7c92b11c2ull, 0x75e48b0d962a68cfull, 4658, 1020.9553571428571},
    {"8x4/yx/staggered/vc3d4p1", 0x946045d7c92b11c2ull, 0x3f06c4a6cee18174ull, 4650, 1017.3571428571429},
    {"8x8/xy/all_to_all/vc3d4p3", 0xb07dce131f9d07b0ull, 0xac20d5ee5d9a7d01ull, 462, 203.52777777777777},
    {"8x8/xy/all_to_all/vc8d4p1", 0xb07dce131f9d07b0ull, 0x24b1be9f4700d597ull, 697, 315.20932539682542},
    {"8x8/xy/uniform/vc8d4p3", 0x5ae86d883b9df38dull, 0xf843fc98ea06e3daull, 269, 107.22916666666667},
    {"8x8/xy/uniform/vc1d1p2", 0x5ae86d883b9df38dull, 0x8e46d5d1e1347814ull, 2911, 1085.8611111111111},
    {"8x8/xy/hotspot/vc1d1p1", 0x0aa47535e0fce484ull, 0x669df46d3bc0f1ceull, 1586, 690.92063492063494},
    {"8x8/xy/hotspot/vc3d1p2", 0x0aa47535e0fce484ull, 0x798ff9847723c752ull, 550, 264.61904761904759},
    {"8x8/xy/staggered/vc3d1p1", 0xa99a1974e3d63aeaull, 0x4302dae6067a6e87ull, 4998, 1087.9646017699115},
    {"8x8/xy/staggered/vc8d1p2", 0xa99a1974e3d63aeaull, 0xc278a89578a9e45bull, 4878, 1065.9823008849557},
    {"8x8/yx/all_to_all/vc8d1p1", 0xb07dce131f9d07b0ull, 0xd9773d618959542bull, 1344, 645.93725198412699},
    {"8x8/yx/all_to_all/vc1d4p2", 0xb07dce131f9d07b0ull, 0x6c47853dffeef763ull, 1454, 651.60515873015868},
    {"8x8/yx/uniform/vc1d4p1", 0xbce44eedc0df1288ull, 0x27d7519aa9ce0c86ull, 821, 302.07048458149779},
    {"8x8/yx/uniform/vc3d4p2", 0xbce44eedc0df1288ull, 0xbdc46731597a56c9ull, 404, 151.95594713656388},
    {"8x8/yx/hotspot/vc3d4p1", 0x0aa47535e0fce484ull, 0xf81081e03b0b9e33ull, 631, 361.23809523809524},
    {"8x8/yx/hotspot/vc8d4p2", 0x0aa47535e0fce484ull, 0x5613a39a41665da9ull, 332, 186.79365079365078},
    {"8x8/yx/staggered/vc8d4p1", 0x4f1b88085846df9eull, 0xaf7b5b4295dc127full, 4669, 953.57534246575347},
    {"8x8/yx/staggered/vc1d1p3", 0x4f1b88085846df9eull, 0xdc0c9d4a3032144full, 5252, 1105.3424657534247},
    {"ConvNet@16/kernel/conv2", 0x1d806918c5f05bb5ull, 0xb1d73f67dcdf10e2ull, 495, 232.16249999999999},
    {"ConvNet@16/kernel/conv3", 0xc56295ea7dfea8d5ull, 0x0916074cc5cd0292ull, 114, 48.75},
    {"ConvNet@16/kernel/ip1", 0x0575a41997588675ull, 0xd6446ab19f79267eull, 55, 24.008333333333333},
    {"ConvNet@16/kernel/ip2", 0x45dfb3a5bdd97833ull, 0xc38ae45db334432bull, 26, 12.853333333333333},
    {"ConvNet@16/random/conv2", 0xebb039263421788aull, 0xd41f1ef691eb4389ull, 3435, 1737.5076923076922},
    {"ConvNet@16/random/conv3", 0x104a73c0e8419441ull, 0x1a0f4311ade4ed48ull, 36, 22.399999999999999},
    {"ConvNet@16/random/ip1", 0x15af313da4d845caull, 0x2ad3f5d3e76a5095ull, 27, 16.533333333333335},
    {"ConvNet@16/random/ip2", 0x3480fcc8ecc9fcf5ull, 0x48ba265b1b6b2a31ull, 32, 14.591666666666667},
    {"ConvNet@64/kernel/conv2", 0x8abb4cff72a20394ull, 0x38784cd31c1d4b64ull, 525, 246.83770161290323},
    {"ConvNet@64/kernel/conv3", 0xb3ca9b07bd215e68ull, 0x120d0b0b480355ebull, 283, 113.80803571428571},
    {"ConvNet@64/kernel/ip1", 0x908ad1e9e352efb0ull, 0x3fe361b25c2d331full, 177, 68.461557539682545},
    {"ConvNet@64/kernel/ip2", 0xa53c6db4852e9d89ull, 0xcd826af3a63f814dull, 69, 29.577777777777779},
    {"ConvNet@64/random/conv2", 0x3beaa633f48bfa36ull, 0xe51d31142515f7f9ull, 977, 509.42372881355931},
    {"ConvNet@64/random/conv3", 0xe5e3f143ee29af9dull, 0xf6f77a6cfcd773acull, 60, 28.066666666666666},
    {"ConvNet@64/random/ip1", 0x7a5e392764b7f748ull, 0x83ecde81250d5f27ull, 36, 21.857142857142858},
    {"ConvNet@64/random/ip2", 0x92b325aaccc38abdull, 0x960aae5231e51e86ull, 40, 24.111111111111111},
    {"AlexNet@16/kernel/conv2", 0xe54421a97da5d495ull, 0xe4ec57ec6a2d684aull, 4235, 1932.7392857142856},
    {"AlexNet@16/kernel/conv3", 0x5af0170da7415455ull, 0x0f5cb6fb4d47e637ull, 2581, 1209.6608333333334},
    {"AlexNet@16/kernel/conv4", 0x600316e9d6bbe275ull, 0x90907fde8827d344ull, 3801, 1768.4178571428572},
    {"AlexNet@16/kernel/conv5", 0x600316e9d6bbe275ull, 0x90907fde8827d344ull, 3801, 1768.4178571428572},
    {"AlexNet@16/kernel/ip1", 0x00912828e1fbdbb5ull, 0xbb247995acaec4afull, 620, 278.47500000000002},
    {"AlexNet@16/kernel/ip2", 0x88dda4d016816695ull, 0x0704e81c75afe91dull, 229, 113.10416666666667},
    {"AlexNet@16/kernel/ip3", 0x88dda4d016816695ull, 0x0704e81c75afe91dull, 229, 113.10416666666667},
    {"AlexNet@16/random/conv2", 0xc5f2deecbe7bea9aull, 0x27f0a6abc5a5e990ull, 26235, 13139.681818181818},
    {"AlexNet@16/random/conv3", 0x15a836ed9dfc1eb9ull, 0xdf017e7bd5d1ecb9ull, 713, 399.56},
    {"AlexNet@16/random/conv4", 0xfee20e392fb1f70eull, 0xe2bbc616dc6f578bull, 4364, 2200.5571428571429},
    {"AlexNet@16/random/conv5", 0x9b08364b1d80ef69ull, 0x13ec3e62ce41209eull, 438, 186.515625},
    {"AlexNet@16/random/ip1", 0xd0c5c610e7fd06bbull, 0x411fb5bcfa0c8f7aull, 169, 115.58333333333333},
    {"AlexNet@16/random/ip2", 0xb2f35679f3934158ull, 0x10a184ab9bc318d1ull, 76, 47.799999999999997},
    {"AlexNet@16/random/ip3", 0x7d7abee73db19825ull, 0x829a2259c10af44bull, 570, 251.33333333333334},
    {"AlexNet@64/kernel/conv2", 0x6183d40fd1d43030ull, 0x280464b4e7969657ull, 8319, 3140.3622023809526},
    {"AlexNet@64/kernel/conv3", 0x646d0467f6c11fb0ull, 0x3c146e0866491387ull, 3987, 1860.9596974206349},
    {"AlexNet@64/kernel/conv4", 0xdb460720211c82b0ull, 0x92a5c166ac00ee0dull, 5990, 2783.3463541666665},
    {"AlexNet@64/kernel/conv5", 0xdb460720211c82b0ull, 0x92a5c166ac00ee0dull, 5990, 2783.3463541666665},
    {"AlexNet@64/kernel/ip1", 0xa95a3b477e9c8bb0ull, 0xfa850788387f0f4eull, 835, 398.80084325396825},
    {"AlexNet@64/kernel/ip2", 0x270597285f806fb0ull, 0xefc1c2a5957dfe45ull, 336, 143.11706349206349},
    {"AlexNet@64/kernel/ip3", 0x270597285f806fb0ull, 0xefc1c2a5957dfe45ull, 336, 143.11706349206349},
    {"AlexNet@64/random/conv2", 0xc01586f812f45f7full, 0x8f839a649efcfa93ull, 9615, 4844.8669064748201},
    {"AlexNet@64/random/conv3", 0x3a9cfa007377df68ull, 0x7536608bce83af51ull, 423, 207.79289940828403},
    {"AlexNet@64/random/conv4", 0xac5d9cd9a963f6adull, 0xd29582d951899035ull, 402, 180.21875},
    {"AlexNet@64/random/conv5", 0x7c08557b72cf085eull, 0x1ee0c0adb1dc4ecaull, 13078, 6333.2216117216121},
    {"AlexNet@64/random/ip1", 0x088de39e5e8f8fa0ull, 0xaa506ce177cd74c9ull, 1079, 474.98660714285717},
    {"AlexNet@64/random/ip2", 0xe7d34fe8289e2330ull, 0xb61a1f1e7463d98aull, 400, 165.02033730158729},
    {"AlexNet@64/random/ip3", 0xe7d34fe8289e2330ull, 0xb61a1f1e7463d98aull, 400, 165.02033730158729},
};
// clang-format on

void expect_corpus(const std::vector<Case>& cases) {
  std::size_t matched = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::uint64_t input = digest(c.msgs);
    const NocStats s = MeshNocSimulator(c.topo, c.cfg).run(c.msgs);
    char row[224];
    std::snprintf(row, sizeof(row),
                  "{\"%s\", 0x%016llxull, 0x%016llxull, %llu, %.17g},",
                  c.name.c_str(), static_cast<unsigned long long>(input),
                  static_cast<unsigned long long>(digest(s)),
                  static_cast<unsigned long long>(s.completion_cycle),
                  s.avg_packet_latency);
    const Golden* golden = nullptr;
    for (const Golden& g : kGolden) {
      if (c.name == g.name) golden = &g;
    }
    if (golden == nullptr) {
      ADD_FAILURE() << "no golden row; actual:\n    " << row;
      continue;
    }
    ++matched;
    if (input != golden->input) {
      ADD_FAILURE() << "input burst changed (its generator or a schedule "
                       "builder moved), so its stats are not compared; "
                       "actual:\n    "
                    << row;
      continue;
    }
    const std::string drift =
        std::string("same burst, simulator output drift; actual:\n    ") + row;
    EXPECT_EQ(s.completion_cycle, golden->completion_cycle) << drift;
    EXPECT_EQ(s.avg_packet_latency, golden->avg_packet_latency) << drift;
    EXPECT_EQ(digest(s), golden->digest) << drift;
  }
  EXPECT_EQ(matched, cases.size());
}

TEST(NocGolden, SyntheticPatterns) {
  const std::vector<Case> cases = synthetic_cases();
  EXPECT_EQ(cases.size(), 48u);
  expect_corpus(cases);
}

TEST(NocGolden, LayerTransitionBursts) {
  const std::vector<Case> cases = schedule_cases();
  // ConvNet@16 conv2 is a burst where two flits land in one FIFO in the
  // same cycle, so their order hangs on the in-flight heap.
  bool has_conv2 = false;
  for (const Case& c : cases) has_conv2 |= c.name == "ConvNet@16/kernel/conv2";
  EXPECT_TRUE(has_conv2);
  expect_corpus(cases);
}

TEST(NocGolden, MaxCyclesOverrunThrows) {
  const MeshNocSimulator sim(MeshTopology(4, 4), NocConfig{});
  const std::vector<Message> burst = {{0, 15, 64 * 40, 0}};
  const std::uint64_t done = sim.run(burst).completion_cycle;
  EXPECT_THROW(sim.run(burst, done - 2), std::runtime_error);
  EXPECT_NO_THROW(sim.run(burst, done));
  // A message injected after the budget throws even though the mesh sits
  // idle until then.
  EXPECT_THROW(sim.run({{0, 15, 64, 5000}}, 4000), std::runtime_error);
}

}  // namespace
}  // namespace ls::noc
