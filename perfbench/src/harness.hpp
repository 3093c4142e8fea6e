#pragma once
// perfbench: the repository's end-to-end benchmark (perfbench/README.md).
//
// A workload is a fixed set of ops run back to back by one client thread (a
// closed loop). One *round* runs every op of the set once; a run repeats
// rounds for the requested seconds. Every op checks its own outputs and
// feeds a digest over every model-clock value it produced, so two rounds,
// two pool sizes or a traced and an untraced round can be compared for
// byte identity.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nn/layer_spec.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// FNV-1a over the raw bytes of model-clock outputs.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Input sizes. full() is what the benchmark measures; tiny() keeps every
/// code path of every workload but runs in seconds (self-test).
struct Size {
  std::uint64_t tune_budget = 2000;
  bool tune_alexnet = true;
  std::size_t stream_draws = 24;  ///< random candidates per config
  std::size_t stream_requests = 16;
  bool stream_alexnet = true;
  std::size_t train_samples = 384;
  std::size_t train_epochs = 3;

  static Size full() { return {}; }
  static Size tiny();
};

/// What one round produced.
struct Round {
  Digest digest;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  /// Model-clock samples behind the model_* metrics (harness.cpp).
  std::map<std::string, std::vector<double>> model;
  /// Values the benchmark reads off the results it gets back, behind the
  /// per-layer metrics that no span or counter carries.
  std::map<std::string, std::vector<double>> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from `seed`; timed as setup_s.
  virtual void setup(std::uint64_t seed) = 0;
  virtual std::size_t ops() const = 0;
  /// Runs op `i` and checks its outputs, throwing on a wrong one.
  virtual void run_op(std::size_t i, Round* round) = 0;
  /// The network the workload trains, if any (prices nn spans).
  virtual const ls::nn::NetSpec* trained_net() const { return nullptr; }
};

/// "tune", "stream" or "train"; null for any other name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Size& size);

/// Independent 64-bit seed for input stream `stream` of run seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Op id stamped on every call span; the spans of one op share it.
void set_current_op(std::uint64_t op);

/// Wall-clock span around one call the benchmark makes into the library,
/// named "<module>.<function>" (category "bench"). Inert when tracing is
/// off.
class CallSpan {
 public:
  explicit CallSpan(const char* name);

 private:
  ls::obs::Span span_;
};

// --- Metrics ----------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

/// Every metric the benchmark reports, in BENCHMARK.json order.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

using Metrics = std::map<std::string, double>;

/// One measured run of a workload.
struct RunResult {
  std::size_t rounds = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  /// Digest of every round; a correct run has one distinct value.
  std::vector<std::uint64_t> digests;
  std::vector<double> round_s;
  std::vector<std::vector<double>> op_s;  ///< per op, one entry per round
  std::vector<double> setup_s;
  /// kEndToEnd, plus the SS_Mask training outcome (ss_mask_*) on train.
  Metrics end_to_end;
  Metrics per_layer;  ///< traced runs only
  /// Client-thread self time per layer, per traced round (printed table).
  Metrics layer_wall_s;

  bool correct() const;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_path;  ///< traced runs write and re-read the trace here
  Size size = Size::full();
  std::size_t setup_reps = 15;
  /// Rounds to run regardless of `seconds` (0 = time-boxed); the self-test
  /// pins it so passes compare equal work.
  std::size_t fixed_rounds = 0;
};

/// Sets up the workload, runs its rounds and computes every metric.
RunResult run_workload(const RunOptions& options);

/// The self-test (perfbench/README.md). Returns the process exit code.
int self_test(const std::string& benchmark_json, const std::string& work_dir);

}  // namespace perfbench
