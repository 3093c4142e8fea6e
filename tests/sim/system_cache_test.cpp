// The NoC burst-result cache must be correctness-neutral: every layer of a
// CmpSystem run, from a cold cache, a warm one and a re-execution, must
// carry exactly the NocStats MeshNocSimulator::run produces for the same
// burst. Sweeps core counts like experiment E5.

#include <gtest/gtest.h>

#include <vector>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/sim_cache.hpp"
#include "noc/simulator.hpp"
#include "sched/schedule.hpp"
#include "sim/system.hpp"

namespace ls::sim {
namespace {

void expect_identical(const InferenceResult& a, const InferenceResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.comm_cycles, b.comm_cycles);
  EXPECT_EQ(a.traffic_bytes, b.traffic_bytes);
  EXPECT_DOUBLE_EQ(a.compute_energy_pj, b.compute_energy_pj);
  EXPECT_DOUBLE_EQ(a.noc_energy_pj, b.noc_energy_pj);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].layer_name, b.layers[i].layer_name);
    EXPECT_EQ(a.layers[i].compute_cycles, b.layers[i].compute_cycles);
    EXPECT_EQ(a.layers[i].comm_cycles, b.layers[i].comm_cycles);
    EXPECT_EQ(a.layers[i].blocking_comm_cycles,
              b.layers[i].blocking_comm_cycles);
    EXPECT_EQ(a.layers[i].noc_stats, b.layers[i].noc_stats);
    EXPECT_EQ(a.layers[i].traffic_bytes, b.layers[i].traffic_bytes);
    EXPECT_DOUBLE_EQ(a.layers[i].noc_energy_pj, b.layers[i].noc_energy_pj);
  }
}

// Per compute layer, the stats of the burst into it straight from the flit
// simulator (default NocStats where the layer has no burst).
std::vector<noc::NocStats> direct_layer_stats(const CmpSystem& system,
                                              const sched::Schedule& s) {
  const noc::MeshNocSimulator sim(system.topology(), system.config().noc);
  std::vector<noc::NocStats> out;
  noc::NocStats pending{};
  for (const sched::Event& e : s.events) {
    if (e.kind == sched::EventKind::kComm) {
      pending = sim.run(e.messages);
      continue;
    }
    out.push_back(pending);
    pending = noc::NocStats{};
  }
  return out;
}

TEST(SystemNocCache, CachedRunMatchesUncachedAcrossCoreSweep) {
  const nn::NetSpec spec = nn::convnet_expt_spec();
  for (std::size_t cores : {4u, 8u, 16u}) {
    SCOPED_TRACE(cores);
    SystemConfig cfg;
    cfg.cores = cores;
    const CmpSystem system(cfg);
    const auto traffic =
        core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
    const sched::Schedule schedule = system.build_schedule(spec, traffic);
    const std::vector<noc::NocStats> direct =
        direct_layer_stats(system, schedule);

    noc::NocRunCache& cache = noc::NocRunCache::instance();
    cache.clear();
    const std::size_t bursts = schedule.comm_event_count();
    const InferenceResult cold = system.run_inference(spec, traffic);
    const std::uint64_t cold_misses = cache.misses();
    EXPECT_GT(cold_misses, 0u);
    EXPECT_EQ(cache.hits() + cold_misses, bursts);
    const InferenceResult warm = system.run_inference(spec, traffic);
    const InferenceResult rerun = system.execute(schedule);
    // The warm run and the re-execution hit every burst.
    EXPECT_EQ(cache.misses(), cold_misses);
    EXPECT_EQ(cache.hits() + cold_misses, 3 * bursts);

    ASSERT_EQ(cold.layers.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      SCOPED_TRACE(cold.layers[i].layer_name);
      EXPECT_EQ(cold.layers[i].noc_stats, direct[i]);
      EXPECT_EQ(cold.layers[i].comm_cycles, direct[i].completion_cycle);
    }
    expect_identical(warm, cold);
    expect_identical(rerun, cold);
  }
}

TEST(SystemNocCache, RepeatRunsAreDeterministic) {
  noc::NocRunCache::instance().clear();
  SystemConfig cfg;
  cfg.cores = 16;
  CmpSystem system(cfg);
  const nn::NetSpec spec = nn::lenet_expt_spec();
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  const InferenceResult first = system.run_inference(spec, traffic);
  const InferenceResult second = system.run_inference(spec, traffic);
  expect_identical(first, second);
}

}  // namespace
}  // namespace ls::sim
