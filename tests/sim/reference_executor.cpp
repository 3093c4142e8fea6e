#include "reference_executor.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/core_model.hpp"
#include "core/partition.hpp"
#include "noc/energy.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "util/parallel.hpp"

namespace ls::sim::oracle {

InferenceResult reference_run_inference(const SystemConfig& cfg,
                                        const nn::NetSpec& spec,
                                        const core::InferenceTraffic& traffic,
                                        const core::SparsityProfile* sparsity) {
  const auto analysis = nn::analyze(spec);
  const std::size_t P = cfg.cores;
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(P);
  accel::AccelConfig per_core = cfg.accel;
  per_core.dram_bytes_per_cycle =
      cfg.chip_dram_bytes_per_cycle / static_cast<double>(P);
  const accel::CoreModel core_model(per_core);

  std::unordered_map<std::string, const core::TransitionTraffic*> by_layer;
  for (const auto& t : traffic.transitions) {
    by_layer.emplace(t.layer_name, &t);
  }

  noc::MeshNocSimulator noc_sim(topo, cfg.noc);

  struct LayerJob {
    const nn::LayerAnalysis* a = nullptr;
    const core::TransitionTraffic* traffic = nullptr;  // null: no burst
    noc::NocStats stats{};
  };
  std::vector<LayerJob> jobs;
  for (const nn::LayerAnalysis& a : analysis) {
    if (!a.is_compute()) continue;
    LayerJob job;
    job.a = &a;
    const auto it = by_layer.find(a.spec.name);
    if (it != by_layer.end() && !it->second->messages.empty()) {
      job.traffic = it->second;
    }
    jobs.push_back(job);
  }
  util::parallel_for(0, jobs.size(), [&](std::size_t i) {
    if (jobs[i].traffic == nullptr) return;
    jobs[i].stats = noc_sim.run(jobs[i].traffic->messages);
  });

  InferenceResult result;
  std::uint64_t prev_compute = 0;
  for (const LayerJob& job : jobs) {
    const nn::LayerAnalysis& a = *job.a;

    LayerTimeline tl;
    tl.layer_name = a.spec.name;

    if (job.traffic != nullptr) {
      tl.noc_stats = job.stats;
      tl.comm_cycles = static_cast<std::uint64_t>(
          static_cast<double>(tl.noc_stats.completion_cycle) *
          cfg.noc_clock_divider);
      tl.traffic_bytes = job.traffic->total_bytes;
      tl.noc_energy_pj =
          noc::energy_from_stats(tl.noc_stats, cfg.noc_energy, P).total_pj();
    }
    tl.blocking_comm_cycles = tl.comm_cycles;
    if (cfg.overlap_comm) {
      tl.blocking_comm_cycles =
          tl.comm_cycles > prev_compute ? tl.comm_cycles - prev_compute : 0;
    }

    const std::size_t out_units = a.spec.kind == nn::LayerKind::kConv
                                      ? a.spec.out_channels
                                      : a.spec.out_features;
    const auto out_ranges = core::balanced_ranges(out_units, P);
    const std::size_t weight_bytes_total =
        a.weight_count * cfg.bytes_per_value;
    const std::size_t in_bytes = a.in.numel() * cfg.bytes_per_value;
    const core::LayerSparsity* layer_sparsity = nullptr;
    if (cfg.sparse_cycle_model && sparsity != nullptr) {
      layer_sparsity = sparsity->find(a.spec.name);
    }
    std::uint64_t worst = 0;
    for (std::size_t c = 0; c < P; ++c) {
      const double share = out_units
                               ? static_cast<double>(out_ranges[c].count()) /
                                     static_cast<double>(out_units)
                               : 0.0;
      if (share == 0.0) continue;
      const double live = layer_sparsity != nullptr &&
                                  c < layer_sparsity->live_fraction.size()
                              ? layer_sparsity->live_fraction[c]
                              : 1.0;
      accel::LayerPartitionWork work;
      work.macs = static_cast<std::uint64_t>(
          static_cast<double>(a.macs) * share * live + 0.5);
      work.weight_bytes = static_cast<std::uint64_t>(
          static_cast<double>(weight_bytes_total) * share * live + 0.5);
      work.input_bytes = in_bytes;  // every core reads the full input
      work.output_bytes = static_cast<std::uint64_t>(
          static_cast<double>(a.out.numel() * cfg.bytes_per_value) * share +
          0.5);
      const accel::LayerCoreCost cost = core_model.layer_cost(work);
      worst = std::max(worst, cost.cycles());
      tl.compute_energy_pj += cost.energy_pj;
    }
    tl.compute_cycles = worst;
    prev_compute = worst;

    result.compute_cycles += tl.compute_cycles;
    result.comm_cycles += tl.blocking_comm_cycles;
    result.compute_energy_pj += tl.compute_energy_pj;
    result.noc_energy_pj += tl.noc_energy_pj;
    result.traffic_bytes += tl.traffic_bytes;
    result.layers.push_back(std::move(tl));
  }
  result.total_cycles = result.compute_cycles + result.comm_cycles;
  return result;
}

}  // namespace ls::sim::oracle
