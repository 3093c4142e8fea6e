#include "prof/bench_compare.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/json_in.hpp"

namespace ls::prof {
namespace {

util::JsonValue parse(const std::string& text) {
  util::JsonValue v;
  std::string error;
  EXPECT_TRUE(util::parse_json(text, &v, &error)) << error;
  return v;
}

TEST(BenchCompare, DirectionHeuristics) {
  EXPECT_EQ(metric_direction("fwd_speedup"), MetricDirection::kHigherBetter);
  EXPECT_EQ(metric_direction("throughput_per_mcycle"),
            MetricDirection::kHigherBetter);
  EXPECT_EQ(metric_direction("compute_occupancy"),
            MetricDirection::kHigherBetter);
  EXPECT_EQ(metric_direction("mm_simd_gflops"),
            MetricDirection::kHigherBetter);
  EXPECT_EQ(metric_direction("flits_per_s"), MetricDirection::kHigherBetter);
  EXPECT_EQ(metric_direction("gemm_fwd_ms"), MetricDirection::kLowerBetter);
  EXPECT_EQ(metric_direction("wall_s"), MetricDirection::kLowerBetter);
  EXPECT_EQ(metric_direction("setup_s"), MetricDirection::kLowerBetter);
  EXPECT_EQ(metric_direction("makespan_cycles"),
            MetricDirection::kLowerBetter);
  EXPECT_EQ(metric_direction("comm_rel_error"),
            MetricDirection::kLowerBetter);
  EXPECT_EQ(metric_direction("cores"), MetricDirection::kInfo);
  EXPECT_EQ(metric_direction("evals"), MetricDirection::kInfo);
  EXPECT_EQ(metric_direction("some_label"), MetricDirection::kInfo);
}

TEST(BenchCompare, IdenticalDocumentsPass) {
  const std::string doc =
      R"({"bench":"x","rows":[{"net":"A","cores":16,"makespan_cycles":100,)"
      R"("throughput_per_mcycle":5.0}]})";
  const DiffResult r = diff_bench(parse(doc), parse(doc));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.regressions, 0u);
  EXPECT_TRUE(r.mismatches.empty());
  EXPECT_FALSE(r.diffs.empty());
}

TEST(BenchCompare, DetectsDirectionalRegressions) {
  const auto base = parse(
      R"({"makespan_cycles":100,"throughput_per_mcycle":10.0,"cores":16})");
  // Cycles up 20%, throughput down 20%, cores changed (info only).
  const auto cur = parse(
      R"({"makespan_cycles":120,"throughput_per_mcycle":8.0,"cores":32})");
  const DiffResult r = diff_bench(base, cur);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.regressions, 2u);
  for (const MetricDiff& d : r.diffs) {
    if (d.leaf == "cores") {
      EXPECT_FALSE(d.regressed);
    }
  }
}

TEST(BenchCompare, ImprovementsAndSmallDriftPass) {
  const auto base = parse(
      R"({"makespan_cycles":100,"throughput_per_mcycle":10.0})");
  // Cycles down (good), throughput up (good) — never a regression; and a
  // 2% adverse drift stays under the default 5% threshold.
  EXPECT_TRUE(diff_bench(base, parse(R"({"makespan_cycles":80,)"
                                     R"("throughput_per_mcycle":12.0})"))
                  .ok());
  EXPECT_TRUE(diff_bench(base, parse(R"({"makespan_cycles":102,)"
                                     R"("throughput_per_mcycle":9.8})"))
                  .ok());
}

TEST(BenchCompare, PerMetricThresholdOverride) {
  const auto base = parse(R"({"speedup_sim":2.0})");
  const auto cur = parse(R"({"speedup_sim":1.8})");  // -10%
  EXPECT_FALSE(diff_bench(base, cur).ok());  // default 5%
  DiffOptions loose;
  loose.thresholds["speedup_sim"] = 0.15;
  EXPECT_TRUE(diff_bench(base, cur, loose).ok());
  DiffOptions tight;
  tight.default_threshold = 0.5;
  tight.thresholds["speedup_sim"] = 0.01;
  EXPECT_FALSE(diff_bench(base, cur, tight).ok());
}

TEST(BenchCompare, StructuralMismatchesFail) {
  const auto base =
      parse(R"({"rows":[{"a":1},{"a":2}],"name":"x","flag":true})");
  // Missing key.
  EXPECT_FALSE(diff_bench(base, parse(R"({"rows":[{"a":1},{"a":2}],)"
                                      R"("flag":true})"))
                   .ok());
  // Extra key.
  EXPECT_FALSE(
      diff_bench(base, parse(R"({"rows":[{"a":1},{"a":2}],"name":"x",)"
                             R"("flag":true,"extra":0})"))
          .ok());
  // Array size change.
  EXPECT_FALSE(
      diff_bench(base,
                 parse(R"({"rows":[{"a":1}],"name":"x","flag":true})"))
          .ok());
  // Type change.
  EXPECT_FALSE(
      diff_bench(base, parse(R"({"rows":[{"a":1},{"a":"2"}],"name":"x",)"
                             R"("flag":true})"))
          .ok());
  // String / bool value changes.
  EXPECT_FALSE(
      diff_bench(base, parse(R"({"rows":[{"a":1},{"a":2}],"name":"y",)"
                             R"("flag":true})"))
          .ok());
  EXPECT_FALSE(
      diff_bench(base, parse(R"({"rows":[{"a":1},{"a":2}],"name":"x",)"
                             R"("flag":false})"))
          .ok());
}

TEST(BenchCompare, ArrayElementsAlignByIndex) {
  const auto base = parse(
      R"({"rows":[{"makespan_cycles":100},{"makespan_cycles":200}]})");
  const auto cur = parse(
      R"({"rows":[{"makespan_cycles":100},{"makespan_cycles":400}]})");
  const DiffResult r = diff_bench(base, cur);
  EXPECT_EQ(r.regressions, 1u);
  ASSERT_EQ(r.diffs.size(), 2u);
  EXPECT_FALSE(r.diffs[0].regressed);
  EXPECT_TRUE(r.diffs[1].regressed);
  EXPECT_EQ(r.diffs[1].path, "rows[1].makespan_cycles");
}

TEST(BenchCompare, ZeroBaselineUsesAbsoluteDelta) {
  const auto base = parse(R"({"comm_rel_error":0.0})");
  const auto cur = parse(R"({"comm_rel_error":0.5})");
  const DiffResult r = diff_bench(base, cur);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.diffs[0].rel_change, 0.5);
  EXPECT_TRUE(r.diffs[0].regressed);
}

}  // namespace
}  // namespace ls::prof
