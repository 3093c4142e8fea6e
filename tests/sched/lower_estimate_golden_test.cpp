// Golden corpus for the analytic path the tuner runs on every search eval:
// tune::lower_candidate followed by sched::estimate_cycles.
//
// For ConvNet and AlexNet on 16, 32 (8x4, non-square) and 64 cores, and on
// a 4x16-core package lowered through lower_pipelined, the kernel-wise
// candidate and 8 seeded random legal candidates are lowered and then
// estimated under routing {XY, YX} x phys_channels {1, 2} x NoC clock
// divider {1, 4}. Each row freezes an FNV-1a digest of the schedule's
// to_json bytes, an FNV-1a digest of every CycleEstimate field of all 8
// estimates (per-event cycles and raw_comm_cycles included), and the 8
// readable total_cycles for the mismatch message. The table was produced
// by the per-hop link walk and vector-building balanced_ranges the scorer
// used before its closed-form rewrite; any rewrite must reproduce it bit
// for bit.
//
// To regenerate after an intended model or builder change, run this suite:
// each mismatch prints the case's replacement table row.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic.hpp"
#include "nn/layer_spec.hpp"
#include "nn/model_zoo.hpp"
#include "noc/simulator.hpp"
#include "sched/builders.hpp"
#include "sched/cost_model.hpp"
#include "sched/schedule.hpp"
#include "sim/system.hpp"
#include "tune/tuner.hpp"
#include "util/rng.hpp"

namespace ls::sched {
namespace {

constexpr std::size_t kConfigs = 8;

struct Golden {
  const char* name;
  std::uint64_t schedule;  ///< digest of to_json(schedule)
  std::uint64_t estimate;  ///< digest of all kConfigs CycleEstimates
  std::uint64_t total_cycles[kConfigs];
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
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void digest(const CycleEstimate& e, Fnv* d) {
  d->u64(e.total_cycles);
  d->u64(e.compute_cycles);
  d->u64(e.comm_cycles);
  d->u64(e.events.size());
  for (const EventEstimate& ev : e.events) {
    d->u64(ev.cycles);
    d->u64(ev.raw_comm_cycles);
  }
}

/// The estimate configurations, in table column order: routing {XY, YX}
/// x phys_channels {1, 2} x divider {1, 4}.
CostModelConfig config_at(const sim::SystemConfig& system, std::size_t k) {
  CostModelConfig cost = tune::cost_model_for(system);
  cost.noc.routing = k / 4 == 0 ? noc::Routing::kXY : noc::Routing::kYX;
  cost.noc.phys_channels = (k / 2) % 2 == 0 ? 1 : 2;
  cost.noc_clock_divider = k % 2 == 0 ? 1.0 : 4.0;
  return cost;
}

/// A seeded random legal candidate: per-layer dims drawn from the
/// dim_compatible set (no channel split on a stage-ending layer of a
/// multi-chip package), a Fisher-Yates placement on one chip, and the
/// given overlap flag.
tune::Candidate random_candidate(const nn::NetSpec& spec,
                                 const sim::SystemConfig& system,
                                 std::uint64_t seed, bool overlap) {
  constexpr PartitionDim kDims[] = {
      PartitionDim::kKernel, PartitionDim::kBatch, PartitionDim::kHeight,
      PartitionDim::kWidth, PartitionDim::kChannel};
  util::Rng rng(seed);
  std::size_t layers = 0;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    layers += a.is_compute() ? 1 : 0;
  }
  std::vector<std::size_t> stages;
  if (system.chips > 1) stages = partition_stages(spec, system.chips);
  tune::Candidate c;
  for (std::size_t li = 0; li < layers; ++li) {
    const bool stage_end = !stages.empty() &&
                           (li + 1 == layers || stages[li + 1] != stages[li]);
    std::vector<PartitionDim> legal;
    for (const PartitionDim d : kDims) {
      if (stage_end && d == PartitionDim::kChannel) continue;
      if (dim_compatible(spec, li, d)) legal.push_back(d);
    }
    c.layer_dims.push_back(legal[rng.uniform_index(legal.size())]);
  }
  const std::size_t mesh_cores = system.cores / system.chips;
  c.placement.resize(mesh_cores);
  for (std::size_t p = 0; p < mesh_cores; ++p) c.placement[p] = p;
  if (system.chips == 1) {
    for (std::size_t p = mesh_cores; p > 1; --p) {
      std::swap(c.placement[p - 1], c.placement[rng.uniform_index(p)]);
    }
  }
  c.overlap_comm = overlap;
  return c;
}

struct Row {
  std::string name;
  std::uint64_t schedule = 0;
  std::uint64_t estimate = 0;
  std::uint64_t total_cycles[kConfigs] = {};
};

std::vector<Row> corpus() {
  struct Package {
    const char* name;
    std::size_t cores;
    std::size_t chips;
  };
  constexpr Package kPackages[] = {
      {"16", 16, 1}, {"32", 32, 1}, {"64", 64, 1}, {"4x16", 64, 4}};
  std::vector<Row> rows;
  for (const nn::NetSpec& spec : {nn::convnet_spec(), nn::alexnet_spec()}) {
    for (const Package& pkg : kPackages) {
      sim::SystemConfig system;
      system.cores = pkg.cores;
      system.chips = pkg.chips;
      const sim::CmpSystem cmp(system);
      const core::InferenceTraffic traffic = core::traffic_dense(
          spec, cmp.topology(), system.bytes_per_value);
      std::vector<std::pair<std::string, tune::Candidate>> candidates = {
          {"kernel", tune::Candidate{}}};
      for (std::uint64_t i = 0; i < 8; ++i) {
        const std::uint64_t seed = 1000 * pkg.cores + 10 * pkg.chips + i;
        candidates.emplace_back(
            "random" + std::to_string(i),
            random_candidate(spec, system, seed, /*overlap=*/i % 2 == 1));
      }
      for (const auto& [kind, candidate] : candidates) {
        const Schedule schedule = tune::lower_candidate(
            spec, traffic, system, candidate, Strategy::kTraditional);
        Row row;
        row.name = spec.name + "@" + pkg.name + "/" + kind;
        Fnv sd;
        const std::string json = to_json(schedule);
        sd.bytes(json.data(), json.size());
        row.schedule = sd.value();
        Fnv ed;
        for (std::size_t k = 0; k < kConfigs; ++k) {
          const CycleEstimate est =
              estimate_cycles(schedule, config_at(system, k));
          digest(est, &ed);
          row.total_cycles[k] = est.total_cycles;
        }
        row.estimate = ed.value();
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

// clang-format off
constexpr Golden kGolden[] = {
    {"ConvNet@16/kernel", 0x7b5e1cacb3d152c8ull, 0x69d5526ef3a527bdull, {3939, 5103, 3917, 5015, 3939, 5103, 3917, 5015}},
    {"ConvNet@16/random0", 0x1684067b81f6c944ull, 0x6310d3e43de2dc69ull, {5107, 6097, 5096, 6053, 5107, 6097, 5096, 6053}},
    {"ConvNet@16/random1", 0x0a879f123e1a5972ull, 0x4b44c5c5f8f1a2a5ull, {4775, 4775, 4775, 4775, 4775, 4775, 4775, 4775}},
    {"ConvNet@16/random2", 0x1a3993cda6accbf0ull, 0xbf360882121f2e05ull, {8102, 11723, 8029, 11431, 8102, 11723, 8029, 11431}},
    {"ConvNet@16/random3", 0xab58e6747df0e0faull, 0xa59929628fbc5765ull, {3836, 3836, 3836, 3836, 3836, 3836, 3836, 3836}},
    {"ConvNet@16/random4", 0x7914d4d43a960044ull, 0xcdff96ba24f60f75ull, {4732, 5452, 4692, 5292, 4728, 5436, 4692, 5292}},
    {"ConvNet@16/random5", 0x58848d2fe6683338ull, 0xdd74ffc27e665425ull, {4500, 4581, 4500, 4581, 4500, 4581, 4500, 4581}},
    {"ConvNet@16/random6", 0x6c2b384609988a79ull, 0x0665ae0895bbf195ull, {4853, 5936, 4834, 5860, 4845, 5904, 4834, 5860}},
    {"ConvNet@16/random7", 0x3bde0f478da45b48ull, 0xeb45e47549a57165ull, {17676, 17757, 17676, 17757, 17676, 17757, 17676, 17757}},
    {"ConvNet@32/kernel", 0xd419c24987f2c9b4ull, 0xbadc51951d6e829cull, {2533, 4801, 2189, 3425, 2557, 4897, 2189, 3425}},
    {"ConvNet@32/random0", 0x60ba40e4d16ee774ull, 0xc4fbb32625b4dd6cull, {13851, 17247, 13435, 15583, 13871, 17327, 13435, 15583}},
    {"ConvNet@32/random1", 0x6aa30610cfaa401aull, 0xa7ad1aa263c3fcc5ull, {5246, 11934, 5222, 6718, 5246, 11934, 5222, 6718}},
    {"ConvNet@32/random2", 0xd0a19b68ed8a405aull, 0x2865d116971bbce2ull, {4397, 5192, 4349, 5000, 4479, 5520, 4357, 5032}},
    {"ConvNet@32/random3", 0xcd214491a49e6992ull, 0x0d21ce9622acb97full, {3248, 4663, 3224, 3663, 3248, 4759, 3224, 3663}},
    {"ConvNet@32/random4", 0xc5c1e7253b05f258ull, 0x5f19c1a6ce3869ddull, {17977, 22807, 17721, 21783, 17977, 22807, 17721, 21783}},
    {"ConvNet@32/random5", 0xfa42f3c165b406dfull, 0x16d1e99865b88d7aull, {15103, 15220, 15103, 15220, 15103, 15220, 15103, 15220}},
    {"ConvNet@32/random6", 0x5c535a0644938d5full, 0xf3302104854d83bbull, {17275, 19129, 17040, 18189, 17299, 19225, 17040, 18189}},
    {"ConvNet@32/random7", 0xeea19f1bec4c7d34ull, 0x15efd7509aba38b9ull, {15131, 15332, 15107, 15236, 15131, 15332, 15107, 15236}},
    {"ConvNet@64/kernel", 0x70174e3fa7f05c5cull, 0xdbad5fc4b340f62full, {2541, 5553, 2060, 3629, 2573, 5681, 2061, 3633}},
    {"ConvNet@64/random0", 0x8658e282e850bcf2ull, 0xc13797a7b65026eeull, {4145, 7028, 3825, 5748, 4120, 6928, 3825, 5748}},
    {"ConvNet@64/random1", 0x911f3f42bdd6a22full, 0x9efc546256184de4ull, {2092, 5674, 2071, 3454, 2156, 5930, 2071, 3486}},
    {"ConvNet@64/random2", 0xed32d11540b9b0b0ull, 0x38b580c947f722f3ull, {10681, 25054, 8390, 15890, 10723, 25222, 8390, 15890}},
    {"ConvNet@64/random3", 0x38950335df748a71ull, 0x38ef10678ffc6b80ull, {1836, 5862, 1598, 3218, 1780, 5638, 1598, 3162}},
    {"ConvNet@64/random4", 0x38eeaed32b6db24dull, 0x4e82998c29280c82ull, {10702, 23536, 8787, 15876, 10963, 24580, 8787, 15876}},
    {"ConvNet@64/random5", 0x9e67a62b1052ec7aull, 0xa2935e76b5bad74dull, {21243, 34143, 20775, 25659, 21317, 34439, 20775, 25703}},
    {"ConvNet@64/random6", 0x5bfdaf592ecba834ull, 0x987e2b486a848d0eull, {11635, 26752, 9317, 17480, 11952, 28020, 9349, 17608}},
    {"ConvNet@64/random7", 0x9a0aa9d8063254bdull, 0xb727950510625eb1ull, {14542, 17719, 14425, 15759, 14530, 17671, 14425, 15759}},
    {"ConvNet@4x16/kernel", 0x1c1359f151a8f73full, 0xfd90bbddc965d8fdull, {4352, 5129, 4336, 5065, 4352, 5129, 4336, 5065}},
    {"ConvNet@4x16/random0", 0x207e33458a506108ull, 0xcf90c7dcdcc91b0dull, {18295, 18544, 18290, 18524, 18295, 18544, 18290, 18524}},
    {"ConvNet@4x16/random1", 0x5f615ce57aa19192ull, 0x4f434749763088adull, {3592, 3922, 3592, 3858, 3592, 3922, 3592, 3858}},
    {"ConvNet@4x16/random2", 0x636d22f61fcc5c1eull, 0x0017f41776a85845ull, {18309, 18606, 18277, 18478, 18309, 18606, 18277, 18478}},
    {"ConvNet@4x16/random3", 0xb2c0ec11ab619bddull, 0x3f59b3659d8f0775ull, {4777, 5107, 4777, 5043, 4777, 5107, 4777, 5043}},
    {"ConvNet@4x16/random4", 0xcf95d0ed54c5ce44ull, 0xd284d373f26f396dull, {32856, 33585, 32856, 33585, 32856, 33585, 32856, 33585}},
    {"ConvNet@4x16/random5", 0x06c3a4705f5101a5ull, 0x739cef6c036f1955ull, {7834, 9201, 7834, 8881, 7834, 9201, 7834, 8881}},
    {"ConvNet@4x16/random6", 0xddde9b105cdac281ull, 0x7a039070504b6ea5ull, {37531, 41140, 37531, 41140, 37531, 41140, 37531, 41140}},
    {"ConvNet@4x16/random7", 0x89c878d5a931b3aeull, 0x7fa7d199d4fbc925ull, {3590, 3590, 3590, 3590, 3590, 3590, 3590, 3590}},
    {"AlexNet@16/kernel", 0x8bf223d900331d98ull, 0xdc81d4a5ece6c7a5ull, {334266, 358809, 333756, 356769, 334266, 358809, 333756, 356769}},
    {"AlexNet@16/random0", 0xb8b3b37139656f05ull, 0xb4440993d35136d5ull, {364737, 398046, 364059, 395334, 364737, 398046, 364059, 395334}},
    {"AlexNet@16/random1", 0x3222e289925299f8ull, 0x88dc6faacaa8416cull, {1516286, 1516286, 1516286, 1516286, 1516286, 1516286, 1516286, 1516286}},
    {"AlexNet@16/random2", 0x5fc9453e99c95ec6ull, 0x096c08827e0926fdull, {585896, 630485, 584983, 626833, 585896, 630485, 584983, 626833}},
    {"AlexNet@16/random3", 0x49a33ba77a135fc4ull, 0x0c4081ebcc6854c1ull, {469561, 469561, 469561, 469561, 469561, 469561, 469561, 469561}},
    {"AlexNet@16/random4", 0x90e7c39916b11210ull, 0xf06dee4ea0847da3ull, {554832, 562770, 554532, 561570, 554791, 562606, 554532, 561570}},
    {"AlexNet@16/random5", 0x487978919e6d7d65ull, 0x2265dc0f36423641ull, {1420978, 1420978, 1420978, 1420978, 1420978, 1420978, 1420978, 1420978}},
    {"AlexNet@16/random6", 0x5a15794155adccabull, 0x1e6a02e118a9ad3dull, {1012560, 1056771, 1012163, 1055183, 1012560, 1056771, 1012163, 1055183}},
    {"AlexNet@16/random7", 0x2d4a46b461f4d070ull, 0x51174a5334ab5df9ull, {1227785, 1227785, 1227785, 1227785, 1227785, 1227785, 1227785, 1227785}},
    {"AlexNet@32/kernel", 0x07f46250304ab7a7ull, 0x4ee9fa1357c296d5ull, {179523, 228930, 171299, 196034, 179523, 228930, 171299, 196034}},
    {"AlexNet@32/random0", 0x2010a47b07d375aaull, 0x0a6be8b92f8c99d9ull, {750358, 825613, 739006, 780205, 750406, 825805, 739006, 780205}},
    {"AlexNet@32/random1", 0x56ca822016e9e1bdull, 0x59740ae1d0ca3addull, {1307889, 1307889, 1307889, 1307889, 1307889, 1307889, 1307889, 1307889}},
    {"AlexNet@32/random2", 0x7b6cfca96bd15303ull, 0x3ae1e16b6c4d1dd5ull, {269131, 308815, 262690, 283051, 264544, 290467, 262574, 282587}},
    {"AlexNet@32/random3", 0x6ad0660c1ee34043ull, 0xe5eb26a8c0a5c15dull, {1394848, 1394848, 1394848, 1394848, 1394848, 1394848, 1394848, 1394848}},
    {"AlexNet@32/random4", 0x630d282841bef1f4ull, 0x4ee04f5413082e7eull, {978923, 1056809, 971551, 1027321, 974383, 1038649, 971471, 1027001}},
    {"AlexNet@32/random5", 0xf36c32a843fec214ull, 0x8ad7c5ffd456a14full, {722731, 722731, 722731, 722731, 722731, 722731, 722731, 722731}},
    {"AlexNet@32/random6", 0x2039672f9f5f4baaull, 0x75548ad58ae8b088ull, {1923710, 2151119, 1918397, 2129867, 1924246, 2153263, 1918394, 2129855}},
    {"AlexNet@32/random7", 0xb65518a0600f890full, 0x995788da85d7414dull, {772336, 772336, 772336, 772336, 772336, 772336, 772336, 772336}},
    {"AlexNet@64/kernel", 0x1dd6e97784fbb9f2ull, 0x7a8c95b79a5d2eb5ull, {102121, 156328, 93097, 120232, 102121, 156328, 93097, 120232}},
    {"AlexNet@64/random0", 0xe10f53610ae0bd42ull, 0x41041d38480e1a25ull, {394095, 444309, 391149, 432525, 394089, 444285, 391149, 432525}},
    {"AlexNet@64/random1", 0xa9a75c1b205c1fc3ull, 0xbc77d6030064b6b9ull, {1226103, 1240091, 1226103, 1231506, 1226103, 1240091, 1226103, 1231506}},
    {"AlexNet@64/random2", 0x027af91f3c1d02a0ull, 0x4564bcea44196c69ull, {1425200, 1535207, 1409961, 1474251, 1425845, 1537787, 1410041, 1474571}},
    {"AlexNet@64/random3", 0x73e0b9799b7553e2ull, 0x3c5ef31da9ad431cull, {217311, 232296, 217311, 217311, 217311, 232296, 217311, 217311}},
    {"AlexNet@64/random4", 0x116d27a32743e874ull, 0x48e8f756fa238e96ull, {1705505, 2199692, 1693410, 2151312, 1707285, 2206812, 1693598, 2152064}},
    {"AlexNet@64/random5", 0x447944edbd9d9b6cull, 0x87f43c3f671cd7c9ull, {1250502, 1250589, 1250502, 1250502, 1250502, 1250589, 1250502, 1250502}},
    {"AlexNet@64/random6", 0xf0cf6ad975a178cdull, 0xc49cf9a2fbd01065ull, {390865, 516688, 370305, 434448, 390769, 516304, 370305, 434448}},
    {"AlexNet@64/random7", 0x0ec470b180b1bcd9ull, 0x4f0e0ed64feedddcull, {629767, 644926, 629767, 629767, 629767, 638507, 629767, 629767}},
    {"AlexNet@4x16/kernel", 0xc8c73652df8a01d3ull, 0x49d98cf5a78357d5ull, {350615, 358859, 350444, 358175, 350615, 358859, 350444, 358175}},
    {"AlexNet@4x16/random0", 0x308549fa29adbce2ull, 0xecc65e2f9d874354ull, {1021789, 1024654, 1021727, 1024406, 1021763, 1024550, 1021727, 1024406}},
    {"AlexNet@4x16/random1", 0x0eadece3bff9f540ull, 0x09b5338d5a8e9b25ull, {345906, 345906, 345906, 345906, 345906, 345906, 345906, 345906}},
    {"AlexNet@4x16/random2", 0x0b2f04acdd52016aull, 0xc4cc9db24d75a8f0ull, {1212306, 1216170, 1212186, 1215690, 1212186, 1215690, 1212186, 1215690}},
    {"AlexNet@4x16/random3", 0x5a769ba4c8b10722ull, 0x088e66b5fb56632dull, {1324872, 1324872, 1324872, 1324872, 1324872, 1324872, 1324872, 1324872}},
    {"AlexNet@4x16/random4", 0xc2708eaedaa1038dull, 0x162078e33afcceddull, {2383831, 2396563, 2383829, 2396555, 2383831, 2396563, 2383829, 2396555}},
    {"AlexNet@4x16/random5", 0xe3a69c9ad0402f9aull, 0xe0bf9bffc2cce72dull, {2330228, 2330228, 2330228, 2330228, 2330228, 2330228, 2330228, 2330228}},
    {"AlexNet@4x16/random6", 0x2f9eec0e78444408ull, 0x97aede85bc4cfc9dull, {2457424, 2490988, 2457393, 2490864, 2457424, 2490988, 2457393, 2490864}},
    {"AlexNet@4x16/random7", 0x98bd24be5334d91aull, 0x52656dbb251389bfull, {1031556, 1031556, 1031556, 1031556, 1031556, 1031556, 1031556, 1031556}},
};
// clang-format on

TEST(LowerEstimateGolden, TunerEvalPath) {
  const std::vector<Row> rows = corpus();
  EXPECT_EQ(rows.size(), 2u * 4u * 9u);
  std::size_t matched = 0;
  for (const Row& r : rows) {
    SCOPED_TRACE(r.name);
    std::string totals;
    for (std::size_t k = 0; k < kConfigs; ++k) {
      totals += (k ? ", " : "") + std::to_string(r.total_cycles[k]);
    }
    char row[512];
    std::snprintf(row, sizeof(row),
                  "{\"%s\", 0x%016llxull, 0x%016llxull, {%s}},",
                  r.name.c_str(), static_cast<unsigned long long>(r.schedule),
                  static_cast<unsigned long long>(r.estimate), totals.c_str());
    const Golden* golden = nullptr;
    for (const Golden& g : kGolden) {
      if (r.name == g.name) golden = &g;
    }
    if (golden == nullptr) {
      ADD_FAILURE() << "no golden row; actual:\n    " << row;
      continue;
    }
    ++matched;
    EXPECT_EQ(r.schedule, golden->schedule)
        << "lowered schedule changed; actual:\n    " << row;
    for (std::size_t k = 0; k < kConfigs; ++k) {
      EXPECT_EQ(r.total_cycles[k], golden->total_cycles[k])
          << "total_cycles under estimate config " << k << "; actual:\n    "
          << row;
    }
    EXPECT_EQ(r.estimate, golden->estimate)
        << "estimate fields changed; actual:\n    " << row;
  }
  EXPECT_EQ(matched, rows.size());
}

// Seven sources stream 31 flits each through one mesh link to seven
// distinct destinations on an 8x8 mesh: under XY a row-0 run into column
// 7, under YX its transpose. That link (217 flits over 3 physical
// channels) outlasts every port (31 flits) and the slowest lone message
// (65 cycles), and 217 / 3 is not whole, so the link's drain time must be
// rounded up: 73 cycles plus the 3-cycle router pipeline.
TEST(EstimateCycles, HotLinkDrainRoundsUpOverPhysChannels) {
  sim::SystemConfig system;
  system.cores = 64;
  for (const noc::Routing routing : {noc::Routing::kXY, noc::Routing::kYX}) {
    const bool xy = routing == noc::Routing::kXY;
    CostModelConfig cost = tune::cost_model_for(system);
    cost.noc.routing = routing;
    cost.noc.phys_channels = 3;
    Schedule s;
    s.net_name = "hot-link";
    s.cores = 64;
    Event comm;
    comm.kind = EventKind::kComm;
    comm.layer_name = "l";
    for (std::size_t i = 0; i < 7; ++i) {
      comm.messages.push_back(
          {xy ? i : i * 8, xy ? i * 8 + 7 : 56 + i, 31 * 64, 0});
    }
    comm.traffic_bytes = 7 * 31 * 64;
    s.events.push_back(comm);
    EXPECT_EQ(estimate_cycles(s, cost).total_cycles, 76u)
        << (xy ? "xy" : "yx");
  }
}

TEST(EstimateCycles, BadEndpointThrowsOutOfRange) {
  sim::SystemConfig system;
  system.cores = 16;
  const CostModelConfig cost = tune::cost_model_for(system);
  for (const noc::Message bad : {noc::Message{0, 16, 64, 0},
                                 noc::Message{16, 3, 64, 0},
                                 noc::Message{99, 0, 64, 0}}) {
    Schedule s;
    s.net_name = "bad-endpoint";
    s.cores = 16;
    Event comm;
    comm.kind = EventKind::kComm;
    comm.layer_name = "l";
    comm.messages = {{1, 2, 64, 0}, bad};
    comm.traffic_bytes = 128;
    s.events.push_back(comm);
    EXPECT_THROW(estimate_cycles(s, cost), std::out_of_range)
        << bad.src << " -> " << bad.dst;
  }
}

}  // namespace
}  // namespace ls::sched
