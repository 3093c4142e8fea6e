// Tracing and metrics are observers: enabling them must not change any
// simulated result. Runs the same inference with the tracer off and on
// (in-memory capture) and asserts byte-identical InferenceResults via the
// defaulted operator==.

#include <gtest/gtest.h>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/sim_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/system.hpp"

namespace ls {
namespace {

sim::InferenceResult run_once(const nn::NetSpec& spec, std::size_t cores) {
  sim::SystemConfig cfg;
  cfg.cores = cores;
  // Start from a cold burst cache so both runs exercise the full
  // instrumented flit-simulator path rather than memoized stats.
  noc::NocRunCache::instance().clear();
  const sim::CmpSystem system(cfg);
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  return system.run_inference(spec, traffic);
}

class ObsDeterminismTest : public testing::TestWithParam<const char*> {};

TEST_P(ObsDeterminismTest, TracingDoesNotPerturbInference) {
  const std::string net = GetParam();
  const nn::NetSpec spec =
      net == "lenet" ? nn::lenet_spec() : nn::alexnet_spec();

  obs::Tracer& tr = obs::Tracer::instance();
  tr.stop();
  tr.clear();

  const sim::InferenceResult off = run_once(spec, 16);

  tr.start("");  // in-memory capture only
  const sim::InferenceResult on = run_once(spec, 16);
  tr.stop();

  EXPECT_GT(tr.event_count(), 0u) << "tracer captured nothing while enabled";
  EXPECT_TRUE(off == on) << "tracing changed the simulated result";
  EXPECT_EQ(off.total_cycles, on.total_cycles);
  EXPECT_EQ(off.layers.size(), on.layers.size());
  tr.clear();
}

INSTANTIATE_TEST_SUITE_P(Nets, ObsDeterminismTest,
                         testing::Values("lenet", "alexnet"));

TEST(ObsDeterminism, MetricsAccumulateHeatmapDuringInference) {
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  run_once(nn::lenet_spec(), 16);
  const obs::LinkHeatmap hm = reg.link_heatmap();
  EXPECT_EQ(hm.cols * hm.rows, 16u);
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < hm.cols * hm.rows; ++r) {
    total += hm.router_total(r);
  }
  EXPECT_GT(total, 0u) << "no per-link flits reached the registry";
  EXPECT_GT(reg.counter("sim.inferences").value(), 0u);
  reg.reset();
}

}  // namespace
}  // namespace ls
