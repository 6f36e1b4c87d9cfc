// IntervalSet unit + property tests (the weight extractor's core data
// structure).
#include <gtest/gtest.h>

#include <set>

#include "common/interval_set.hpp"
#include "common/rng.hpp"

namespace nvsoc {
namespace {

TEST(IntervalSet, BasicInsertAndCover) {
  IntervalSet set;
  EXPECT_TRUE(set.empty());
  set.insert(10, 20);
  EXPECT_TRUE(set.gaps(10, 20).empty());
  EXPECT_TRUE(set.gaps(12, 15).empty());
  EXPECT_FALSE(set.gaps(5, 12).empty());
  EXPECT_FALSE(set.gaps(15, 25).empty());
}

TEST(IntervalSet, CoalescesAdjacentAndOverlapping) {
  IntervalSet set;
  set.insert(0, 10);
  set.insert(10, 20);  // adjacent
  EXPECT_EQ(set.interval_count(), 1u);
  set.insert(15, 30);  // overlapping
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_TRUE(set.gaps(0, 30).empty());
  set.insert(40, 50);
  EXPECT_EQ(set.interval_count(), 2u);
  set.insert(25, 45);  // bridges the gap
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_TRUE(set.gaps(0, 50).empty());
}

TEST(IntervalSet, EmptyInsertIgnored) {
  IntervalSet set;
  set.insert(5, 5);
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, GapsEnumeration) {
  IntervalSet set;
  set.insert(10, 20);
  set.insert(30, 40);
  const auto gaps = set.gaps(0, 50);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (std::pair<std::uint64_t, std::uint64_t>{0, 10}));
  EXPECT_EQ(gaps[1], (std::pair<std::uint64_t, std::uint64_t>{20, 30}));
  EXPECT_EQ(gaps[2], (std::pair<std::uint64_t, std::uint64_t>{40, 50}));

  EXPECT_TRUE(set.gaps(10, 20).empty());
  EXPECT_TRUE(set.gaps(12, 18).empty());
  const auto partial = set.gaps(15, 35);
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_EQ(partial[0],
            (std::pair<std::uint64_t, std::uint64_t>{20, 30}));
}

TEST(IntervalSet, PropertyMatchesNaiveSet) {
  // Compare against a naive per-byte set over random operations.
  Rng rng(2024);
  IntervalSet set;
  std::set<std::uint64_t> naive;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t begin = rng.next_below(1000);
    const std::uint64_t end = begin + rng.next_below(50);
    set.insert(begin, end);
    for (std::uint64_t b = begin; b < end; ++b) naive.insert(b);
  }
  // Over the whole range, the gaps are exactly the bytes never inserted.
  std::uint64_t uncovered = 0;
  for (const auto& [gb, ge] : set.gaps(0, 1100)) uncovered += ge - gb;
  EXPECT_EQ(uncovered, 1100 - naive.size());
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t begin = rng.next_below(1100);
    const std::uint64_t end = begin + 1 + rng.next_below(40);
    // Gaps partition the uncovered bytes exactly.
    std::uint64_t gap_bytes = 0;
    for (const auto& [gb, ge] : set.gaps(begin, end)) {
      for (std::uint64_t b = gb; b < ge; ++b) {
        EXPECT_FALSE(naive.contains(b));
      }
      gap_bytes += ge - gb;
    }
    std::uint64_t expected_gap = 0;
    for (std::uint64_t b = begin; b < end; ++b) {
      if (!naive.contains(b)) ++expected_gap;
    }
    EXPECT_EQ(gap_bytes, expected_gap);
  }
}

}  // namespace
}  // namespace nvsoc
