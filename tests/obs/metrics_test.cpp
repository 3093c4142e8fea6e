#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

namespace ls::obs {
namespace {

// A file under TempDir() named after the running test: ctest -j runs every
// case as its own process, so a shared name would let cases clobber it.
std::string temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + stem + "_" + info->name() + ".json";
}

TEST(Metrics, CounterIncrementsAndSameNameIsSameInstance) {
  Registry& reg = Registry::instance();
  reg.reset();
  Counter& a = reg.counter("test.counter");
  Counter& b = reg.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.inc();
  a.inc(4);
  EXPECT_EQ(b.value(), 5u);
}

TEST(Metrics, GaugeStoresDoubles) {
  Registry& reg = Registry::instance();
  Gauge& g = reg.gauge("test.gauge");
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST(Metrics, HistogramSummaryAndBins) {
  Registry& reg = Registry::instance();
  HistogramMetric& h = reg.histogram("test.hist", 0.0, 10.0, 5);
  for (double v : {1.0, 3.0, 5.0, 20.0}) h.observe(v);
  const util::RunningStats s = h.summary();
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
  const auto bins = h.bins();
  ASSERT_TRUE(bins.has_value());
  EXPECT_EQ(bins->overflow(), 1u);
  EXPECT_EQ(bins->bin_count(0), 1u);  // 1.0
  EXPECT_EQ(bins->bin_count(1), 1u);  // 3.0
  EXPECT_EQ(bins->bin_count(2), 1u);  // 5.0
}

TEST(Metrics, QuantilesInterpolateWithinBins) {
  Registry& reg = Registry::instance();
  reg.reset();
  HistogramMetric& h = reg.histogram("test.quant", 0.0, 100.0, 10);
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  // Uniform fill: binned interpolation lands within one bin width of the
  // exact order statistic.
  ASSERT_TRUE(h.quantile(0.50).has_value());
  EXPECT_NEAR(*h.quantile(0.50), 50.0, 10.0);
  EXPECT_NEAR(*h.quantile(0.95), 95.0, 10.0);
  EXPECT_NEAR(*h.quantile(0.99), 99.0, 10.0);
  EXPECT_LE(*h.quantile(0.50), *h.quantile(0.95));
  EXPECT_LE(*h.quantile(0.95), *h.quantile(0.99));
}

TEST(Metrics, QuantileOnEmptyHistogramIsEmpty) {
  Registry& reg = Registry::instance();
  reg.reset();
  HistogramMetric& h = reg.histogram("test.quant.empty", 0.0, 1.0, 4);
  EXPECT_FALSE(h.quantile(0.5).has_value());
  EXPECT_FALSE(h.quantile(0.99).has_value());
  // And the JSON export omits the percentile keys rather than inventing
  // values.
  EXPECT_EQ(reg.to_json().find("\"p50\""), std::string::npos);
}

TEST(Metrics, QuantileOnSingleSampleIsThatSample) {
  Registry& reg = Registry::instance();
  reg.reset();
  HistogramMetric& h = reg.histogram("test.quant.one", 0.0, 100.0, 10);
  h.observe(42.0);
  // Interpolation inside the lone bin is clamped to the observed value:
  // every quantile of a one-sample distribution is that sample.
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    ASSERT_TRUE(h.quantile(q).has_value()) << q;
    EXPECT_DOUBLE_EQ(*h.quantile(q), 42.0) << q;
  }
}

TEST(Metrics, QuantileClampsOutOfRangeMassToObservedExtrema) {
  Registry& reg = Registry::instance();
  reg.reset();
  HistogramMetric& h = reg.histogram("test.quant.range", 10.0, 20.0, 4);
  h.observe(-5.0);  // underflow bucket
  h.observe(15.0);
  h.observe(99.0);  // overflow bucket
  // Low quantiles resolve to the underflow mass, high to the overflow —
  // but always clamped to what was actually observed, never the bin
  // edges.
  EXPECT_DOUBLE_EQ(*h.quantile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(*h.quantile(1.0), 99.0);
  const double mid = *h.quantile(0.5);
  EXPECT_GE(mid, -5.0);
  EXPECT_LE(mid, 99.0);
}

TEST(Metrics, JsonExportCarriesPercentiles) {
  Registry& reg = Registry::instance();
  reg.reset();
  HistogramMetric& h = reg.histogram("test.quant.json", 0.0, 10.0, 5);
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);
  const std::string doc = reg.to_json();
  EXPECT_NE(doc.find("\"p50\""), std::string::npos);
  EXPECT_NE(doc.find("\"p95\""), std::string::npos);
  EXPECT_NE(doc.find("\"p99\""), std::string::npos);
  reg.reset();
}

TEST(Metrics, ResetZeroesButKeepsReferencesValid) {
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("test.reset.counter");
  c.inc(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();  // the reference must survive reset()
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(reg.counter("test.reset.counter").value(), 1u);
}

TEST(Metrics, LinkHeatmapAccumulatesAndResetsOnShapeChange) {
  Registry& reg = Registry::instance();
  reg.reset();

  // 2x1 mesh: 2 routers * kLinkPorts entries.
  std::vector<std::uint64_t> burst(2 * kLinkPorts, 0);
  burst[0 * kLinkPorts + 4] = 3;  // router 0, east
  burst[1 * kLinkPorts + 3] = 2;  // router 1, west
  reg.accumulate_link_flits(2, 1, burst);
  reg.accumulate_link_flits(2, 1, burst);

  LinkHeatmap hm = reg.link_heatmap();
  EXPECT_EQ(hm.cols, 2u);
  EXPECT_EQ(hm.rows, 1u);
  ASSERT_EQ(hm.flits.size(), 2 * kLinkPorts);
  EXPECT_EQ(hm.flits[0 * kLinkPorts + 4], 6u);
  EXPECT_EQ(hm.flits[1 * kLinkPorts + 3], 4u);
  EXPECT_EQ(hm.router_total(0), 6u);
  EXPECT_EQ(hm.router_total(1), 4u);

  // Different mesh shape starts a fresh accumulation.
  std::vector<std::uint64_t> single(1 * kLinkPorts, 1);
  reg.accumulate_link_flits(1, 1, single);
  hm = reg.link_heatmap();
  EXPECT_EQ(hm.cols, 1u);
  EXPECT_EQ(hm.rows, 1u);
  EXPECT_EQ(hm.router_total(0), kLinkPorts);
  reg.reset();
}

TEST(Metrics, ToJsonContainsEverySection) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.counter("json.counter").inc(3);
  reg.gauge("json.gauge").set(1.5);
  reg.histogram("json.hist", 0.0, 1.0, 2).observe(0.25);
  std::vector<std::uint64_t> burst(1 * kLinkPorts, 2);
  reg.accumulate_link_flits(1, 1, burst);

  const std::string doc = reg.to_json();
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"json.counter\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(doc.find("\"json.gauge\":1.5"), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"json.hist\""), std::string::npos);
  EXPECT_NE(doc.find("\"noc_link_heatmap\""), std::string::npos);
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
  reg.reset();
}

TEST(Metrics, WriteProducesFile) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.counter("write.counter").inc();
  const std::string path = temp_path("metrics_out");
  EXPECT_TRUE(reg.write(path));
  reg.reset();
}

}  // namespace
}  // namespace ls::obs
