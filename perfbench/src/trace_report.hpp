#pragma once
// Reads back the Chrome-trace file ls::obs wrote during a traced run and
// attributes its wall-clock spans to the repository's modules.
//
// Every complete span on the wall-clock track gets a *bucket*
// "<module>[.<part>]": the benchmark's own call spans by their name, the
// program's spans by the module that records them (noc.burst -> noc,
// tune.search -> tune.search, <layer>.fwd -> nn.conv.fwd, ...). Pool spans
// (pool.task, parallel_for) do work on behalf of whoever called
// parallel_for, so they take the bucket of their parent — on a pool worker
// thread, the innermost client-thread span open when the task started.
//
// Two views of time come out:
//   * busy — summed over all threads: a span's self time (its duration
//     minus its same-thread children) in its bucket. parallel_for's own
//     self time is the caller blocked on the pool and goes to "pool.wait".
//   * wall — the client thread alone, where span self times plus the
//     uncovered remainder tile the traced wall time exactly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/layer_spec.hpp"

namespace perfbench {

struct TraceTotals {
  std::map<std::string, double> busy_s;      ///< bucket -> busy seconds
  std::map<std::string, double> wall_s;      ///< module -> client self s
  std::map<std::string, double> inclusive_s; ///< span name -> total duration
  std::map<std::string, std::uint64_t> calls;  ///< bucket -> span count
  double client_covered_s = 0.0;  ///< client-thread root spans, summed
  std::uint64_t noc_bursts = 0;   ///< flit-level simulations run
  std::uint64_t noc_flits = 0;
  std::uint64_t noc_cycles = 0;
  std::vector<double> batch_s;    ///< train.batch durations
  double conv_fwd_macs = 0.0;     ///< dense-equivalent, from span batch sizes
  double fwd_macs = 0.0;          ///< conv + fc forward
};

class TraceFile {
 public:
  /// Parses `path` event by event with util::parse_json. `net` (optional)
  /// names the trained network, whose layer kinds and MACs price the nn
  /// spans. False with a message on I/O or parse failure.
  bool load(const std::string& path, const ls::nn::NetSpec* net,
            std::string* error);

  /// Totals over the spans that start in [from_us, to_us).
  TraceTotals totals(std::uint64_t from_us, std::uint64_t to_us) const;

 private:
  struct Span {
    std::string name;
    std::string bucket;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::uint64_t tid = 0;
    std::uint64_t child_dur = 0;  ///< same-thread children
    int parent = -1;              ///< same thread, or client thread for roots
    double flits = 0.0, cycles = 0.0;  ///< noc.burst args
    double batch = 0.0;  ///< conv spans: the "N" arg
    double macs = 0.0;   ///< nn forward spans
    bool conv = false;
  };
  std::vector<Span> spans_;
  std::uint64_t client_tid_ = 0;
};

}  // namespace perfbench
