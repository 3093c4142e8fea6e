// Extension experiment: post-training schedule search vs communication-
// aware training.
//
// SS_Mask teaches the network to keep its surviving traffic between nearby
// cores. A post-hoc alternative for a distance-unaware SS model is to
// search the schedule instead: which mesh core hosts which partition, and
// which axis each layer is split on. This bench trains MLP with SS and
// with SS_Mask, then runs the schedule autotuner (tune::tune, default
// TunerConfig: per-layer dims x placement x overlap) on each scheme's live
// traffic and reports identity (kernel-wise, identity placement) against
// tuned, both executed flit-level. The question: can schedule search
// recover SS_Mask's advantage without distance-aware training?

#include <cstdio>
#include <string>
#include <vector>

#include "core/traffic.hpp"
#include "core/weight_groups.hpp"
#include "nn/model_zoo.hpp"
#include "sched/schedule.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "train/masks.hpp"
#include "train/trainer.hpp"
#include "tune/tuner.hpp"
#include "util/table.hpp"

namespace {

using namespace ls;

struct Row {
  std::string label;
  core::InferenceTraffic traffic;
  sched::Strategy strategy;
};

/// Bytes x mesh hops summed over every message of every comm event.
std::size_t byte_hops(const sched::Schedule& s,
                      const noc::MeshTopology& topo) {
  std::size_t total = 0;
  for (const sched::Event& e : s.events) {
    for (const noc::Message& m : e.messages) {
      total += m.bytes * topo.hops(m.src, m.dst);
    }
  }
  return total;
}

std::string dims_string(const tune::Candidate& c) {
  std::string dims;
  for (const sched::PartitionDim d : c.layer_dims) {
    dims += dims.empty() ? "" : ",";
    dims += sched::to_string(d);
  }
  return dims.empty() ? "kernel" : dims;
}

}  // namespace

int main() {
  std::puts("Learn-to-Scale bench: schedule search vs "
            "communication-aware training (MLP, 16 cores)\n");

  const std::size_t cores = 16;
  const nn::NetSpec spec = nn::mlp_expt_spec();
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cores);
  const data::Dataset train_set = sim::dataset_for(spec, 768, 1);
  const data::Dataset test_set = sim::dataset_for(spec, 256, 2);

  train::TrainConfig tcfg;
  tcfg.epochs = 5;

  std::vector<Row> rows;
  // Dense baseline.
  rows.push_back({"Baseline", core::traffic_dense(spec, topo, 2),
                  sched::Strategy::kTraditional});

  // SS and SS_Mask live traffic.
  for (const bool distance_aware : {false, true}) {
    util::Rng rng(42);
    nn::Network net = nn::build_network(spec, rng);
    train::GroupLassoRegularizer reg(
        core::build_group_sets(net, spec, cores),
        distance_aware ? train::distance_mask(topo)
                       : train::uniform_mask(cores),
        0.6);
    train::train_classifier(net, train_set, test_set, tcfg, &reg);
    rows.push_back({distance_aware ? "SS_Mask" : "SS",
                    core::traffic_live(net, spec, topo, 2),
                    sched::Strategy::kSparsified});
  }

  sim::SystemConfig cfg;
  cfg.cores = cores;
  const sim::CmpSystem system(cfg);
  const tune::TunerConfig tcfg_search;

  util::Table t("identity vs tuned schedule (flit-validated; speedup and "
                "energy vs Baseline identity)");
  t.set_header({"scheme", "schedule", "byte-hops", "sim-cyc", "comm-cyc",
                "speedup", "noc-energy-red", "overlap", "dims"});
  sim::InferenceResult base;
  for (const Row& row : rows) {
    const tune::TuneOutcome out =
        tune::tune(spec, row.traffic, cfg, tcfg_search, row.strategy);
    for (const bool tuned : {false, true}) {
      const tune::Candidate cand = tuned ? out.best : tune::Candidate{};
      const sched::Schedule s =
          tune::lower_candidate(spec, row.traffic, cfg, cand, row.strategy);
      const sim::InferenceResult r = system.execute(s);
      if (&row == &rows.front() && !tuned) base = r;
      t.add_row({row.label, tuned ? "tuned" : "identity",
                 std::to_string(byte_hops(s, topo)),
                 std::to_string(r.total_cycles),
                 std::to_string(r.comm_cycles),
                 util::fmt_speedup(sim::speedup(base, r)),
                 util::fmt_percent(sim::comm_energy_reduction(base, r)),
                 cand.overlap_comm ? "on" : "off", dims_string(cand)});
    }
  }
  t.print();
  std::puts(
      "\nReading: the tuner scores cycles, not energy. Its wins come from\n"
      "per-layer dims and comm/compute overlap; a dim that ignores the\n"
      "trained block structure (a channel split) brings dense traffic back\n"
      "and with it the NoC energy SS had saved. SS_Mask keeps its saving\n"
      "under the tuned schedule, because its locality is in the weights.");
  return 0;
}
