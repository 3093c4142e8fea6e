#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "trace_report.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ = (h_ ^ p[i]) * 0x100000001b3ull;
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return ls::util::hash_u64(ls::util::hash_u64(seed) ^
                            (0x9e3779b97f4a7c15ull * (stream + 1)));
}

namespace {
std::uint64_t g_op = 0;
}

void set_current_op(std::uint64_t op) { g_op = op; }

CallSpan::CallSpan(const char* name) {
  if (ls::obs::trace_enabled()) {
    span_.begin(name, "bench", "{\"op\":" + std::to_string(g_op) + "}");
  }
}

// Units and directions are stated here, not inferred from names.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s", "lower"},
    {"wall_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"model_tuned_speedup", "x", "higher"},
    {"model_finalist_err_pct", "%", "lower"},
    {"model_comm_err_pct", "%", "lower"},
    {"model_single_pass_cycles", "cycles", "lower"},
    {"model_inf_per_mcycle", "inf/Mcycle", "higher"},
    {"model_energy_uj", "uJ", "lower"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"noc.run.calls", "count", "lower"},
    {"noc.run.self_s", "s", "lower"},
    {"noc.flits", "count", "lower"},
    {"noc.flits_per_s", "1/s", "higher"},
    {"noc.cycles_per_s", "1/s", "higher"},
    {"noc.cache.hits", "count", "higher"},
    {"noc.cache.misses", "count", "lower"},
    {"noc.cache.hit_ratio", "fraction", "higher"},
    {"noc.cache.entries", "count", "lower"},
    {"sched.estimate.calls", "count", "lower"},
    {"sched.estimate.us_per_call", "us", "lower"},
    {"sched.lower.self_s", "s", "lower"},
    {"sched.verify.self_s", "s", "lower"},
    {"sched.verify.violations", "count", "lower"},
    {"sched.comm_err_mean_signed_pct", "%", "higher"},
    {"sched.comm_err_max_abs_pct", "%", "lower"},
    {"tune.search_self_s", "s", "lower"},
    {"tune.validate_s", "s", "lower"},
    {"tune.evals_per_s", "1/s", "higher"},
    {"tune.moves_accept_ratio", "fraction", "higher"},
    {"tune.validated", "count", "lower"},
    {"sim.execute.self_s", "s", "lower"},
    {"sim.stream.self_s", "s", "lower"},
    {"sim.stream.requests", "count", "higher"},
    {"sim.compute_occupancy", "fraction", "higher"},
    {"sim.noc_occupancy", "fraction", "lower"},
    {"sim.inter_chip_occupancy", "fraction", "lower"},
    {"sim.comm_fraction", "fraction", "lower"},
    {"prof.attribute.self_s", "s", "lower"},
    {"prof.blame.compute_frac", "fraction", "higher"},
    {"prof.blame.noc_frac", "fraction", "lower"},
    {"prof.blame.dep_stall_comm_frac", "fraction", "lower"},
    {"prof.blame.inter_chip_frac", "fraction", "lower"},
    {"core.traffic.self_s", "s", "lower"},
    {"core.traffic.bytes", "bytes", "lower"},
    {"nn.conv.fwd.self_s", "s", "lower"},
    {"nn.conv.bwd.self_s", "s", "lower"},
    {"nn.fc.fwd.self_s", "s", "lower"},
    {"nn.fc.bwd.self_s", "s", "lower"},
    {"nn.conv.gmacs_per_s", "GMAC/s", "higher"},
    {"nn.sparse.macs_skipped_ratio", "fraction", "higher"},
    {"train.batch_s_p50", "s", "lower"},
    {"train.samples_per_s", "1/s", "higher"},
    {"train.non_kernel_s", "s", "lower"},
    {"train.ss_mask_accuracy", "%", "higher"},
    {"train.ss_mask_speedup", "x", "higher"},
    {"train.ss_mask_traffic_rate", "fraction", "lower"},
    {"data.gen_s", "s", "lower"},
    {"pool.tasks", "count", "lower"},
    {"pool.items", "count", "lower"},
    {"pool.wait_s", "s", "lower"},
    {"trace.unattributed_s", "s", "lower"},
    {"trace.overhead_s", "s", "lower"},
};

bool RunResult::correct() const {
  return failed == 0 &&
         std::set<std::uint64_t>(digests.begin(), digests.end()).size() == 1;
}

namespace {

using Clock = std::chrono::steady_clock;
using Samples = std::map<std::string, std::vector<double>>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const std::vector<double>& samples(const Samples& s, const std::string& k) {
  static const std::vector<double> kNone;
  const auto it = s.find(k);
  return it == s.end() ? kNone : it->second;
}
double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : ls::util::mean(v);
}
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}
double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logs = 0.0;
  for (const double x : v) logs += std::log(x);
  return std::exp(logs / static_cast<double>(v.size()));
}
double median(std::vector<double> v) {
  return v.empty() ? 0.0 : ls::util::percentile(v, 50.0);
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Process-wide counters the program keeps (obs::Registry), read as deltas
/// across the traced rounds.
const char* const kCounters[] = {
    "noc.cache.hits",      "noc.cache.misses", "tune.evals",
    "tune.moves_accepted", "tune.moves_rejected", "tune.validated",
    "sparse.macs_skipped", "pool.tasks",       "pool.items"};

std::map<std::string, double> read_counters() {
  std::map<std::string, double> out;
  for (const char* name : kCounters) {
    out[name] = static_cast<double>(
        ls::obs::Registry::instance().counter(name).value());
  }
  return out;
}

Metrics model_metrics(const Round& r) {
  Metrics m;
  const Samples& s = r.model;
  m["model_tuned_speedup"] = geomean(samples(s, "speedup"));
  m["model_finalist_err_pct"] = 100.0 * mean(samples(s, "finalist_err"));
  double abs_err = 0.0;
  for (const double e : samples(s, "comm_err")) abs_err += std::abs(e);
  m["model_comm_err_pct"] =
      100.0 * ratio(abs_err, static_cast<double>(samples(s, "comm_err").size()));
  m["model_single_pass_cycles"] = geomean(samples(s, "cycles"));
  m["model_inf_per_mcycle"] = geomean(samples(s, "inf_per_mcycle"));
  m["model_energy_uj"] = geomean(samples(s, "energy_uj"));
  for (const char* k :
       {"ss_mask_accuracy", "ss_mask_speedup", "ss_mask_traffic_rate"}) {
    if (s.count(k)) m[k] = mean(s.at(k));
  }
  return m;
}

/// Per-layer metrics of the traced rounds (see README.md for each).
Metrics layer_metrics(const Round& r, const TraceTotals& t,
                      const TraceTotals& setup, std::size_t setup_reps,
                      std::size_t rounds, const std::map<std::string, double>& c,
                      double traced_wall_s, double overhead_s) {
  const double n = static_cast<double>(rounds);
  const auto busy = [&](const std::string& k) { return lookup(t.busy_s, k); };
  const auto cnt = [&](const std::string& k) { return lookup(c, k); };
  const Samples& L = r.layer;
  Metrics m;
  const double noc_s = busy("noc");
  m["noc.run.calls"] = static_cast<double>(t.noc_bursts) / n;
  m["noc.run.self_s"] = noc_s / n;
  m["noc.flits"] = static_cast<double>(t.noc_flits) / n;
  m["noc.flits_per_s"] = ratio(static_cast<double>(t.noc_flits), noc_s);
  m["noc.cycles_per_s"] = ratio(static_cast<double>(t.noc_cycles), noc_s);
  const double hits = cnt("noc.cache.hits"), misses = cnt("noc.cache.misses");
  m["noc.cache.hits"] = hits / n;
  m["noc.cache.misses"] = misses / n;
  m["noc.cache.hit_ratio"] = ratio(hits, hits + misses);
  const auto& entries = samples(L, "noc.cache.entries");
  m["noc.cache.entries"] =
      entries.empty() ? 0.0 : *std::max_element(entries.begin(), entries.end());

  // The tuner's search loop does nothing but lower and estimate candidates,
  // so its self time prices the estimates it counts in tune.evals.
  const double own_estimates =
      static_cast<double>(t.calls.count("sched.estimate")
                              ? t.calls.at("sched.estimate")
                              : 0);
  const double estimates = own_estimates + cnt("tune.evals");
  m["sched.estimate.calls"] = estimates / n;
  m["sched.estimate.us_per_call"] =
      1e6 * ratio(busy("sched.estimate") + busy("tune.search"), estimates);
  m["sched.lower.self_s"] = busy("sched.lower") / n;
  m["sched.verify.self_s"] = busy("sched.verify") / n;
  m["sched.verify.violations"] = sum(samples(L, "sched.verify.violations"));
  const auto& err = samples(r.model, "comm_err");
  double max_abs = 0.0;
  for (const double e : err) max_abs = std::max(max_abs, std::abs(e));
  m["sched.comm_err_mean_signed_pct"] = 100.0 * mean(err);
  m["sched.comm_err_max_abs_pct"] = 100.0 * max_abs;

  const double search_s = lookup(t.inclusive_s, "tune.search");
  m["tune.search_self_s"] = busy("tune.search") / n;
  m["tune.validate_s"] = lookup(t.inclusive_s, "tune.validate") / n;
  m["tune.evals_per_s"] = ratio(cnt("tune.evals"), search_s);
  const double accepted = cnt("tune.moves_accepted");
  m["tune.moves_accept_ratio"] =
      ratio(accepted, accepted + cnt("tune.moves_rejected"));
  m["tune.validated"] = cnt("tune.validated") / n;

  m["sim.execute.self_s"] = busy("sim.execute") / n;
  m["sim.stream.self_s"] = busy("sim.run_stream") / n;
  m["sim.stream.requests"] = sum(samples(L, "sim.stream.requests"));
  m["sim.compute_occupancy"] = mean(samples(L, "sim.compute_occupancy"));
  m["sim.noc_occupancy"] = mean(samples(L, "sim.noc_occupancy"));
  m["sim.inter_chip_occupancy"] = mean(samples(L, "sim.inter_chip_occupancy"));
  m["sim.comm_fraction"] = mean(samples(L, "sim.comm_fraction"));

  m["prof.attribute.self_s"] = busy("prof.attribute_stream") / n;
  m["prof.blame.compute_frac"] = mean(samples(L, "prof.blame.compute_frac"));
  m["prof.blame.noc_frac"] = mean(samples(L, "prof.blame.noc_frac"));
  m["prof.blame.dep_stall_comm_frac"] =
      mean(samples(L, "prof.blame.dep_stall_comm_frac"));
  m["prof.blame.inter_chip_frac"] =
      mean(samples(L, "prof.blame.inter_chip_frac"));

  const double reps = static_cast<double>(setup_reps);
  m["core.traffic.self_s"] = lookup(setup.busy_s, "core.traffic_dense") / reps;
  m["core.traffic.bytes"] = sum(samples(L, "core.traffic.bytes"));

  const double conv_fwd = busy("nn.conv.fwd");
  m["nn.conv.fwd.self_s"] = conv_fwd / n;
  m["nn.conv.bwd.self_s"] = busy("nn.conv.bwd") / n;
  m["nn.fc.fwd.self_s"] = busy("nn.fc.fwd") / n;
  m["nn.fc.bwd.self_s"] = busy("nn.fc.bwd") / n;
  m["nn.conv.gmacs_per_s"] = 1e-9 * ratio(t.conv_fwd_macs, conv_fwd);
  m["nn.sparse.macs_skipped_ratio"] =
      ratio(cnt("sparse.macs_skipped"), t.fwd_macs);

  const double batch_s = sum(t.batch_s);
  m["train.batch_s_p50"] = median(t.batch_s);
  m["train.samples_per_s"] = ratio(sum(samples(L, "train.samples")) * n, batch_s);
  m["train.non_kernel_s"] = busy("train.batch") / n;
  const Metrics model = model_metrics(r);
  m["train.ss_mask_accuracy"] = lookup(model, "ss_mask_accuracy");
  m["train.ss_mask_speedup"] = lookup(model, "ss_mask_speedup");
  m["train.ss_mask_traffic_rate"] = lookup(model, "ss_mask_traffic_rate");

  m["data.gen_s"] = lookup(setup.busy_s, "data.dataset_for") / reps;
  m["pool.tasks"] = cnt("pool.tasks") / n;
  m["pool.items"] = cnt("pool.items") / n;
  m["pool.wait_s"] = busy("pool.wait") / n;
  m["trace.unattributed_s"] = (traced_wall_s - t.client_covered_s) / n;
  m["trace.overhead_s"] = overhead_s;
  return m;
}

}  // namespace

RunResult run_workload(const RunOptions& o) {
  std::unique_ptr<Workload> w = make_workload(o.workload, o.size);
  if (w == nullptr) throw std::invalid_argument("unknown workload " + o.workload);
  ls::obs::Tracer& tracer = ls::obs::Tracer::instance();
  RunResult res;
  if (o.trace) tracer.start(o.trace_path);

  for (std::size_t i = 0; i < std::max<std::size_t>(1, o.setup_reps); ++i) {
    const Clock::time_point t0 = Clock::now();
    w->setup(o.seed);
    res.setup_s.push_back(seconds_since(t0));
  }

  Round first;
  std::uint64_t op = 0;
  const auto run_round = [&]() {
    Round round;
    const Clock::time_point t0 = Clock::now();
    res.op_s.resize(w->ops());
    for (std::size_t i = 0; i < w->ops(); ++i) {
      set_current_op(++op);
      ++round.attempted;
      const Clock::time_point op_t0 = Clock::now();
      try {
        w->run_op(i, &round);
      } catch (const std::exception& e) {
        ++round.failed;
        round.failures.push_back(o.workload + " op " + std::to_string(i) +
                                 ": " + e.what());
      }
      res.op_s[i].push_back(seconds_since(op_t0));
    }
    const double s = seconds_since(t0);
    res.round_s.push_back(s);
    res.digests.push_back(round.digest.value());
    res.attempted += round.attempted;
    res.failed += round.failed;
    for (std::string& f : round.failures) res.failures.push_back(std::move(f));
    if (res.rounds++ == 0) first = std::move(round);
    return s;
  };
  // Closed loop: start another round only while it is expected to finish
  // inside the time box (the first always runs).
  const auto run_rounds = [&](double budget_s, std::size_t fixed) {
    std::size_t count = 0;
    double elapsed = 0.0, last = 0.0;
    while (fixed ? count < fixed : count == 0 || elapsed + last <= budget_s) {
      last = run_round();
      elapsed += last;
      ++count;
    }
    return count;
  };

  if (!o.trace) {
    run_rounds(o.seconds, o.fixed_rounds);
    res.end_to_end = model_metrics(first);
    res.end_to_end["setup_s"] = median(res.setup_s);
    res.end_to_end["wall_s"] = median(res.round_s);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    res.end_to_end["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return res;
  }

  // Traced run: traced rounds, then as many untraced ones for the overhead.
  const std::uint64_t rounds_from_us = tracer.now_us();
  const std::map<std::string, double> before = read_counters();
  const std::size_t traced = run_rounds(o.seconds / 2, o.fixed_rounds);
  const std::map<std::string, double> after = read_counters();
  tracer.stop();
  run_rounds(0.0, traced);
  if (!tracer.write()) throw std::runtime_error("cannot write " + o.trace_path);

  std::map<std::string, double> delta;
  for (const auto& [name, value] : after) delta[name] = value - before.at(name);
  const std::vector<double> traced_s(res.round_s.begin(),
                                     res.round_s.begin() + traced);
  const std::vector<double> untraced_s(res.round_s.begin() + traced,
                                       res.round_s.end());
  TraceFile file;
  std::string error;
  if (!file.load(o.trace_path, w->trained_net(), &error)) {
    throw std::runtime_error("trace: " + error);
  }
  const TraceTotals setup = file.totals(0, rounds_from_us);
  const TraceTotals rounds = file.totals(rounds_from_us, ~std::uint64_t{0});
  res.per_layer = layer_metrics(first, rounds, setup, res.setup_s.size(),
                                traced, delta, sum(traced_s),
                                median(traced_s) - median(untraced_s));
  for (const auto& [module, s] : rounds.wall_s) {
    res.layer_wall_s[module] = s / static_cast<double>(traced);
  }
  res.layer_wall_s["(unattributed)"] = res.per_layer["trace.unattributed_s"];
  return res;
}

}  // namespace perfbench
