#include "tune/tuner.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/verify.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace ls::tune {

namespace {

constexpr sched::PartitionDim kAllDims[] = {
    sched::PartitionDim::kKernel, sched::PartitionDim::kBatch,
    sched::PartitionDim::kHeight, sched::PartitionDim::kWidth,
    sched::PartitionDim::kChannel};

std::vector<std::size_t> identity(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  return p;
}

/// Search state shared by the restarts: the scorer, the per-layer legal
/// moves, and the budget ledger.
class Search {
 public:
  Search(const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
         const sim::SystemConfig& system, const TunerConfig& cfg,
         sched::Strategy strategy)
      : spec_(spec),
        traffic_(traffic),
        system_(system),
        cfg_(cfg),
        strategy_(strategy),
        cost_(cost_model_for(system)),
        rng_(cfg.seed) {
    std::size_t layers = 0;
    for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
      layers += a.is_compute() ? 1 : 0;
    }
    // A dim is legal on a layer when the lowering's own knob rules
    // (sched::knob_error) accept it there with every other layer
    // kernel-wise, so every candidate stays lowerable: dim_compatible, and
    // on a multi-chip package no channel split ending a pipeline stage.
    legal_dims_.resize(layers);
    std::vector<sched::PartitionDim> dims(layers, sched::PartitionDim::kKernel);
    for (std::size_t li = 0; li < layers; ++li) {
      for (const sched::PartitionDim d : kAllDims) {
        dims[li] = d;
        if (d == sched::PartitionDim::kKernel ||
            sched::knob_error(spec, dims, {}, system.cores, system.chips)
                .empty()) {
          legal_dims_[li].push_back(d);
        }
      }
      dims[li] = sched::PartitionDim::kKernel;
    }
  }

  std::size_t layers() const { return legal_dims_.size(); }
  std::uint64_t evals() const { return evals_; }
  util::Rng& rng() { return rng_; }

  std::uint64_t score(const Candidate& c) {
    ++evals_;
    return sched::estimate_cycles(
               lower_candidate(spec_, traffic_, system_, c, strategy_), cost_)
        .total_cycles;
  }

  Candidate baseline() const {
    Candidate c;
    c.layer_dims.assign(layers(), sched::PartitionDim::kKernel);
    // Placement permutes one chip's mesh (== the whole machine when
    // chips == 1); stage-pipelined lowering requires it to stay identity,
    // so multi-chip searches freeze this knob (dims + overlap only).
    c.placement = identity(system_.cores / system_.chips);
    c.overlap_comm = system_.overlap_comm;
    return c;
  }

  Candidate random_start() {
    Candidate c = baseline();
    for (std::size_t li = 0; li < layers(); ++li) {
      const auto& legal = legal_dims_[li];
      c.layer_dims[li] = legal[rng_.uniform_index(legal.size())];
    }
    if (system_.chips == 1) {
      // Fisher-Yates with the search rng — deterministic under the seed.
      for (std::size_t i = c.placement.size(); i > 1; --i) {
        std::swap(c.placement[i - 1], c.placement[rng_.uniform_index(i)]);
      }
    }
    if (cfg_.search_overlap) c.overlap_comm = rng_.bernoulli(0.5);
    return c;
  }

  /// One single-knob mutation of `c`.
  Candidate mutate(const Candidate& c) {
    Candidate m = c;
    // Move mix: dims are the high-value knob, placement swaps explore the
    // mesh mapping (single-chip only — see baseline()), the overlap flip
    // is one bit (when searchable).
    const std::size_t placement_moves = system_.chips == 1 ? 2 : 0;
    const std::uint64_t move = rng_.uniform_index(
        3 + placement_moves + (cfg_.search_overlap ? 1 : 0));
    if (move < 3) {
      const std::size_t li = rng_.uniform_index(layers());
      const auto& legal = legal_dims_[li];
      m.layer_dims[li] = legal[rng_.uniform_index(legal.size())];
    } else if (move < 3 + placement_moves) {
      const std::size_t a = rng_.uniform_index(m.placement.size());
      const std::size_t b = rng_.uniform_index(m.placement.size());
      std::swap(m.placement[a], m.placement[b]);
    } else {
      m.overlap_comm = !m.overlap_comm;
    }
    return m;
  }

 private:
  const nn::NetSpec& spec_;
  const core::InferenceTraffic& traffic_;
  const sim::SystemConfig& system_;
  const TunerConfig& cfg_;
  sched::Strategy strategy_;
  sched::CostModelConfig cost_;
  util::Rng rng_;
  std::vector<std::vector<sched::PartitionDim>> legal_dims_;
  std::uint64_t evals_ = 0;
};

}  // namespace

sched::CostModelConfig cost_model_for(const sim::SystemConfig& system) {
  sched::CostModelConfig cost;
  cost.accel = system.accel;
  cost.chip_dram_bytes_per_cycle = system.chip_dram_bytes_per_cycle;
  cost.noc = system.noc;
  cost.noc_clock_divider = system.noc_clock_divider;
  cost.inter_chip = system.inter_chip;
  return cost;
}

sched::Schedule lower_candidate(const nn::NetSpec& spec,
                                const core::InferenceTraffic& traffic,
                                const sim::SystemConfig& system,
                                const Candidate& candidate,
                                sched::Strategy strategy) {
  LS_CHECK_MSG(system.chips > 0 && system.cores % system.chips == 0,
               "lower_candidate: %zu chips cannot tile %zu cores",
               system.chips, system.cores);
  sched::BuildOptions opts;
  opts.cores = system.cores / system.chips;  // one chip's mesh
  opts.bytes_per_value = system.bytes_per_value;
  opts.overlap_comm = candidate.overlap_comm;
  opts.sparse_cycle_model = false;
  opts.layer_dims = candidate.layer_dims;
  opts.placement = candidate.placement;
  if (system.chips > 1) {
    return sched::lower_pipelined(spec, traffic, opts, system.chips, nullptr,
                                  strategy);
  }
  return sched::lower(spec, traffic, opts, nullptr, strategy);
}

TuneOutcome tune(const nn::NetSpec& spec,
                 const core::InferenceTraffic& traffic,
                 const sim::SystemConfig& system, const TunerConfig& cfg,
                 sched::Strategy strategy, TuneTelemetry* telemetry) {
  LS_CHECK_MSG(cfg.budget > 0 && cfg.restarts > 0 && cfg.top_k > 0,
               "tune('%s'): budget, restarts and top_k must be positive",
               spec.name.c_str());
  static obs::Counter& evals_ctr =
      obs::Registry::instance().counter("tune.evals");
  static obs::Counter& validated_ctr =
      obs::Registry::instance().counter("tune.validated");
  static obs::Counter& restarts_ctr =
      obs::Registry::instance().counter("tune.restarts");
  static obs::Counter& accepted_ctr =
      obs::Registry::instance().counter("tune.moves_accepted");
  static obs::Counter& rejected_ctr =
      obs::Registry::instance().counter("tune.moves_rejected");
  if (telemetry != nullptr) *telemetry = TuneTelemetry{};

  Search search(spec, traffic, system, cfg, strategy);
  TuneOutcome out;

  // Baseline: what ls_experiment executes untuned. Scored outside the
  // budget (it is the yardstick, not a candidate).
  const Candidate base = search.baseline();

  // Greedy hill-climbing with restarts; collect each restart's local
  // optimum as a validation candidate.
  std::vector<std::pair<std::uint64_t, Candidate>> optima;
  {
    obs::Span span("tune.search", "tune");
    const std::uint64_t per_restart =
        std::max<std::uint64_t>(1, cfg.budget / cfg.restarts);
    for (std::size_t r = 0;
         r < cfg.restarts && search.evals() < cfg.budget; ++r) {
      obs::Span restart_span;
      if (obs::trace_enabled()) {
        restart_span.begin("tune.restart#" + std::to_string(r), "tune");
      }
      restarts_ctr.inc();
      Candidate cur = r == 0 ? base : search.random_start();
      std::uint64_t cur_cost = search.score(cur);
      TuneRestartTrace trace;
      trace.restart = r;
      trace.start_est_cycles = cur_cost;
      const std::uint64_t stop =
          std::min<std::uint64_t>(cfg.budget, (r + 1) * per_restart);
      while (search.evals() < stop) {
        const Candidate next = search.mutate(cur);
        const std::uint64_t next_cost = search.score(next);
        const bool accepted = next_cost < cur_cost;
        (accepted ? accepted_ctr : rejected_ctr).inc();
        if (telemetry != nullptr) {
          trace.moves.push_back({search.evals(), next_cost, accepted});
          (accepted ? telemetry->moves_accepted : telemetry->moves_rejected)++;
        }
        if (accepted) {
          cur = next;
          cur_cost = next_cost;
        }
      }
      if (telemetry != nullptr) {
        trace.final_est_cycles = cur_cost;
        telemetry->restarts.push_back(std::move(trace));
      }
      optima.emplace_back(cur_cost, std::move(cur));
    }
  }
  out.evals = search.evals();
  evals_ctr.inc(out.evals);

  // Deduplicate and keep the top-k analytic winners for flit validation.
  std::stable_sort(optima.begin(), optima.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::pair<std::uint64_t, Candidate>> finalists;
  for (auto& [est, cand] : optima) {
    if (finalists.size() >= cfg.top_k) break;
    bool dup = false;
    for (const auto& f : finalists) dup = dup || f.second == cand;
    if (!dup) finalists.emplace_back(est, std::move(cand));
  }
  LS_CHECK_MSG(!finalists.empty(), "tune('%s'): search produced no optima",
               spec.name.c_str());

  // Flit-level validation: the analytic model picks the shortlist, the
  // real simulator picks the winner (and prices the baseline for the
  // reported speedup).
  {
    obs::Span span("tune.validate", "tune");
    const sim::CmpSystem sys(system);
    out.baseline_sim_cycles =
        sys.execute(lower_candidate(spec, traffic, system, base, strategy))
            .total_cycles;
    out.baseline_est_cycles =
        sched::estimate_cycles(
            lower_candidate(spec, traffic, system, base, strategy),
            cost_model_for(system))
            .total_cycles;
    bool have_best = false;
    std::size_t best_idx = 0;
    sched::VerifyOptions vopts;
    vopts.accel = system.accel;
    vopts.accel.dram_bytes_per_cycle =
        system.chip_dram_bytes_per_cycle /
        static_cast<double>(system.cores / system.chips);
    vopts.noc = system.noc;
    for (const auto& [est, cand] : finalists) {
      obs::Span vspan;
      if (obs::trace_enabled()) {
        vspan.begin("tune.validate#" + std::to_string(out.validated), "tune");
      }
      // Static verification gates the expensive flit-level validation:
      // a finalist the verifier rejects never reaches the simulator. A
      // violation here means a builder bug — abort in checked builds,
      // skip the candidate in release.
      const sched::Schedule lowered =
          lower_candidate(spec, traffic, system, cand, strategy);
      if (const sched::VerifyReport report = sched::verify(lowered, vopts);
          !report.ok()) {
        LS_CHECK_MSG(false, "tune('%s'): finalist failed verify:\n%s",
                     spec.name.c_str(), report.to_string().c_str());
        LS_LOG_WARN("tune('%s'): skipping finalist that failed verify:\n%s",
                    spec.name.c_str(), report.to_string().c_str());
        continue;
      }
      const std::uint64_t sim_cycles = sys.execute(lowered).total_cycles;
      if (telemetry != nullptr) {
        telemetry->validations.push_back({est, sim_cycles, false});
      }
      ++out.validated;
      if (!have_best || sim_cycles < out.best_sim_cycles) {
        have_best = true;
        best_idx = out.validated - 1;
        out.best = cand;
        out.best_est_cycles = est;
        out.best_sim_cycles = sim_cycles;
      }
    }
    if (telemetry != nullptr && have_best) {
      telemetry->validations[best_idx].is_best = true;
    }
    if (!have_best) {
      // Every finalist was rejected by the static verifier (release builds
      // only — checked builds abort above). Fall back to the already-priced
      // kernel-wise baseline rather than returning garbage.
      out.best = base;
      out.best_est_cycles = out.baseline_est_cycles;
      out.best_sim_cycles = out.baseline_sim_cycles;
    }
  }
  validated_ctr.inc(out.validated);
  return out;
}

}  // namespace ls::tune
