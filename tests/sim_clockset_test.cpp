#include <gtest/gtest.h>

#include "sim/clockset.hpp"

namespace pcm::sim {
namespace {

TEST(ClockSet, StartsAtZero) {
  ClockSet c(4);
  EXPECT_EQ(c.size(), 4);
  EXPECT_EQ(c.max(), 0.0);
  EXPECT_EQ(c.min(), 0.0);
}

TEST(ClockSet, AdvanceIsPerProcessor) {
  ClockSet c(3);
  c.advance(1, 5.0);
  EXPECT_EQ(c.at(0), 0.0);
  EXPECT_EQ(c.at(1), 5.0);
  EXPECT_EQ(c.max(), 5.0);
  EXPECT_EQ(c.min(), 0.0);
}

TEST(ClockSet, WaitUntilNeverMovesBackwards) {
  ClockSet c(2);
  c.advance(0, 10.0);
  c.wait_until(0, 5.0);
  EXPECT_EQ(c.at(0), 10.0);
  c.wait_until(1, 7.0);
  EXPECT_EQ(c.at(1), 7.0);
}

TEST(ClockSet, BarrierSynchronisesToMakespanPlusCost) {
  ClockSet c(3);
  c.advance(2, 9.0);
  c.barrier(1.5);
  for (int p = 0; p < 3; ++p) EXPECT_EQ(c.at(p), 10.5);
}

TEST(ClockSet, ResetZeroes) {
  ClockSet c(2);
  c.advance(0, 3.0);
  c.reset();
  EXPECT_EQ(c.max(), 0.0);
}

}  // namespace
}  // namespace pcm::sim
