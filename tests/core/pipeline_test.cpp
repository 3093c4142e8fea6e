#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "nn/model_zoo.hpp"

namespace ls::core {
namespace {

TEST(Pipeline, StagesAreContiguousAndComplete) {
  const auto a = assign_pipeline(nn::lenet_spec(), 4, 2);
  ASSERT_FALSE(a.stages.empty());
  EXPECT_LE(a.stages.size(), 4u);
  std::size_t cursor = 0;
  for (const auto& s : a.stages) {
    EXPECT_EQ(s.begin, cursor);
    EXPECT_GT(s.end, s.begin);
    cursor = s.end;
  }
  EXPECT_EQ(cursor, 4u);  // LeNet has conv1, conv2, ip1, ip2
}

TEST(Pipeline, SingleCoreSingleStage) {
  const auto a = assign_pipeline(nn::lenet_spec(), 1, 2);
  ASSERT_EQ(a.stages.size(), 1u);
  EXPECT_DOUBLE_EQ(a.imbalance(), 1.0);
}

TEST(Pipeline, MaxStageIsAtLeastLargestLayer) {
  const auto analysis = nn::analyze(nn::alexnet_spec());
  std::uint64_t largest = 0;
  for (const auto& la : analysis) {
    if (la.is_compute()) largest = std::max(largest, la.macs);
  }
  for (std::size_t cores : {2u, 4u, 16u}) {
    const auto a = assign_pipeline(nn::alexnet_spec(), cores, 2);
    EXPECT_GE(a.max_stage_macs(), largest);
  }
}

TEST(Pipeline, BottleneckShrinksWithMoreCores) {
  const auto a2 = assign_pipeline(nn::vgg19_spec(), 2, 2);
  const auto a8 = assign_pipeline(nn::vgg19_spec(), 8, 2);
  EXPECT_LE(a8.max_stage_macs(), a2.max_stage_macs());
}

TEST(Pipeline, StageMacsSumToNetwork) {
  const auto a = assign_pipeline(nn::convnet_spec(), 4, 2);
  std::uint64_t total = 0;
  for (const auto& s : a.stages) total += s.macs;
  EXPECT_EQ(total, nn::total_macs(nn::convnet_spec()));
}

TEST(Pipeline, ImbalanceExceedsOneForRealNets) {
  // The paper's claim: real layer mixes do not balance.
  const auto a = assign_pipeline(nn::lenet_spec(), 4, 2);
  EXPECT_GT(a.imbalance(), 1.1);
}

TEST(Pipeline, RejectsZeroCores) {
  EXPECT_THROW(assign_pipeline(nn::lenet_spec(), 0, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace ls::core
