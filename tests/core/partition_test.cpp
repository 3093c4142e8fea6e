#include "core/partition.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace ls::core {
namespace {

TEST(BalancedRanges, EvenSplit) {
  const auto r = balanced_ranges(16, 4);
  ASSERT_EQ(r.size(), 4u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(r[p].count(), 4u);
    EXPECT_EQ(r[p].begin, p * 4);
  }
}

TEST(BalancedRanges, RaggedSplit) {
  const auto r = balanced_ranges(10, 4);
  EXPECT_EQ(r[0].count(), 3u);
  EXPECT_EQ(r[1].count(), 3u);
  EXPECT_EQ(r[2].count(), 2u);
  EXPECT_EQ(r[3].count(), 2u);
  EXPECT_EQ(r[3].end, 10u);
}

TEST(BalancedRanges, MorePartsThanUnits) {
  const auto r = balanced_ranges(3, 8);
  std::size_t total = 0;
  for (const auto& range : r) total += range.count();
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(r[3].count(), 0u);
  EXPECT_EQ(r[7].count(), 0u);
}

TEST(BalancedRanges, ContiguousAndComplete) {
  for (std::size_t units : {1u, 7u, 16u, 20u, 304u}) {
    for (std::size_t parts : {1u, 4u, 8u, 16u, 32u}) {
      const auto r = balanced_ranges(units, parts);
      std::size_t cursor = 0;
      for (const auto& range : r) {
        EXPECT_EQ(range.begin, cursor);
        cursor = range.end;
      }
      EXPECT_EQ(cursor, units);
    }
  }
}

TEST(BalancedRanges, RejectsZeroParts) {
  EXPECT_THROW(balanced_ranges(4, 0), std::invalid_argument);
}

// Exhaustive over units 0..300 x parts 1..70: each closed-form part
// starts where the previous one ended, the parts cover [0, units), fat
// parts (base + 1 units) come first, and owner_of names the part that
// holds every unit. balanced_ranges must be exactly the per-part ranges.
TEST(BalancedRange, ClosedFormSplitProperties) {
  for (std::size_t units = 0; units <= 300; ++units) {
    for (std::size_t parts = 1; parts <= 70; ++parts) {
      SCOPED_TRACE("units=" + std::to_string(units) +
                   " parts=" + std::to_string(parts));
      const std::size_t base = units / parts;
      const std::size_t extra = units % parts;
      const auto all = balanced_ranges(units, parts);
      ASSERT_EQ(all.size(), parts);
      std::size_t cursor = 0;
      for (std::size_t j = 0; j < parts; ++j) {
        const UnitRange r = balanced_range(units, parts, j);
        ASSERT_EQ(r, all[j]) << "j=" << j;
        ASSERT_EQ(r.begin, cursor) << "j=" << j;
        ASSERT_EQ(r.count(), j < extra ? base + 1 : base) << "j=" << j;
        for (std::size_t u = r.begin; u < r.end; ++u) {
          ASSERT_EQ(owner_of(u, units, parts), j) << "u=" << u;
        }
        cursor = r.end;
      }
      ASSERT_EQ(cursor, units);
    }
  }
}

TEST(BalancedRange, RejectsZeroPartsAndPartIndexPastTheEnd) {
  EXPECT_THROW(balanced_range(4, 0, 0), std::invalid_argument);
  EXPECT_THROW(balanced_range(4, 3, 3), std::out_of_range);
}

TEST(OwnerOf, MatchesRanges) {
  for (std::size_t units : {1u, 5u, 16u, 20u, 50u, 304u}) {
    for (std::size_t parts : {1u, 3u, 8u, 16u, 32u}) {
      const auto r = balanced_ranges(units, parts);
      for (std::size_t u = 0; u < units; ++u) {
        const std::size_t owner = owner_of(u, units, parts);
        EXPECT_TRUE(r[owner].contains(u))
            << "u=" << u << " units=" << units << " parts=" << parts;
      }
    }
  }
}

TEST(OwnerOf, RejectsOutOfRange) {
  EXPECT_THROW(owner_of(5, 5, 2), std::out_of_range);
}

}  // namespace
}  // namespace ls::core
