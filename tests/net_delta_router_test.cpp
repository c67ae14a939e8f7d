#include "net/delta_router.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string_view>

#include "calibrate/local_perm.hpp"
#include "calibrate/microbench.hpp"
#include "sim/clockset.hpp"
#include "sim/rng.hpp"

namespace pcm::net {
namespace {

class DeltaRouterTest : public ::testing::Test {
 protected:
  DeltaRouter router_{1024};
  sim::Rng rng_{21};
};

TEST_F(DeltaRouterTest, Topology) {
  EXPECT_EQ(router_.clusters(), 64);
  EXPECT_EQ(router_.stages(), 3);
}

TEST_F(DeltaRouterTest, BitFlipPermutationIsConflictFree) {
  // A cluster-level XOR permutation routes without internal conflicts, so
  // the wave count equals the cluster size (channel serialisation only).
  for (int bit = 0; bit < 10; ++bit) {
    const auto pat = patterns::bit_flip(1024, bit, 1, 4);
    EXPECT_EQ(router_.wave_count(pat), router_.params().cluster_size)
        << "bit " << bit;
  }
}

TEST_F(DeltaRouterTest, IdentityPermutationIsConflictFree) {
  CommPattern pat(1024);
  for (int p = 0; p < 1024; ++p) pat.add(p, p, 4);
  EXPECT_EQ(router_.wave_count(pat), router_.params().cluster_size);
}

TEST_F(DeltaRouterTest, RandomPermutationSuffersConflicts) {
  const auto perm = rng_.permutation(1024);
  const auto pat = patterns::from_permutation(perm, 4);
  const int waves = router_.wave_count(pat);
  EXPECT_GT(waves, router_.params().cluster_size);
  EXPECT_LT(waves, 4 * router_.params().cluster_size);
}

TEST_F(DeltaRouterTest, RandomPermutationAboutTwiceBitFlip) {
  // The Fig 5/10/17 mechanism: ~590 µs vs ~1300 µs on the real machine.
  double random_mean = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const auto perm = rng_.permutation(1024);
    random_mean += router_.step_duration(patterns::from_permutation(perm, 4));
  }
  random_mean /= trials;
  const double flip = router_.step_duration(patterns::bit_flip(1024, 4, 1, 4));
  EXPECT_GT(random_mean / flip, 1.7);
  EXPECT_LT(random_mean / flip, 3.2);
}

TEST_F(DeltaRouterTest, SingleMessageUsesOneWave) {
  CommPattern pat(1024);
  pat.add(3, 900, 4);
  EXPECT_EQ(router_.wave_count(pat), 1);
}

TEST_F(DeltaRouterTest, HotDestinationSerialises) {
  // h messages into one PE need at least h waves.
  CommPattern pat(1024);
  for (int s = 0; s < 32; ++s) pat.add(s * 16, 777, 4);
  EXPECT_GE(router_.wave_count(pat), 32);
}

TEST_F(DeltaRouterTest, SameClusterChannelSerialises) {
  // 16 PEs of one cluster each send one message to distinct far targets:
  // the shared channel forces >= 16 waves.
  CommPattern pat(1024);
  for (int i = 0; i < 16; ++i) pat.add(i, 512 + i * 16, 4);
  EXPECT_GE(router_.wave_count(pat), 16);
}

TEST_F(DeltaRouterTest, DurationScalesLinearlyWithBytes) {
  const auto perm = rng_.permutation(1024);
  const auto p1 = patterns::from_permutation(perm, 4);
  const auto p2 = patterns::from_permutation(perm, 1024);
  const double d1 = router_.step_duration(p1);
  const double d2 = router_.step_duration(p2);
  const int waves = router_.wave_count(p1);
  EXPECT_NEAR(d2 - d1, waves * router_.params().t_byte * (1024 - 4),
              1e-6 * d2);
}

TEST_F(DeltaRouterTest, StepDurationIsMemoisedAndDeterministic) {
  const auto perm = rng_.permutation(1024);
  const auto pat = patterns::from_permutation(perm, 4);
  const double a = router_.step_duration(pat);
  const double b = router_.step_duration(pat);
  EXPECT_EQ(a, b);
}

TEST_F(DeltaRouterTest, PatternRefilledInPlaceIsCostedAfresh) {
  // The same object, cleared and refilled with another bit-flip of as many
  // messages: its cost must be the new contents', not the last one's.
  CommPattern pat(1024);
  for (int p = 0; p < 1024; ++p) pat.add(p, p ^ 1, 4);
  sim::ClockSet clocks(1024);
  router_.route(pat, clocks, rng_);
  const double first = clocks.max();
  pat.clear();
  for (int p = 0; p < 1024; ++p) pat.add(p, p ^ 64, 8);
  const double want = DeltaRouter(1024).step_duration(pat);
  ASSERT_NE(want, first);  // the two patterns cost differently
  router_.route(pat, clocks, rng_);
  EXPECT_EQ(clocks.max(), first + want);
  EXPECT_EQ(router_.step_duration(pat), want);
}

TEST_F(DeltaRouterTest, NewPatternAtAReusedAddressIsCostedAfresh) {
  std::optional<CommPattern> slot;
  slot.emplace(patterns::bit_flip(1024, 2, 1, 4));
  const double flip = router_.step_duration(*slot);
  slot.reset();
  slot.emplace(patterns::from_permutation(rng_.permutation(1024), 4));
  const double want = DeltaRouter(1024).step_duration(*slot);
  ASSERT_NE(want, flip);
  EXPECT_EQ(router_.step_duration(*slot), want);
}

TEST_F(DeltaRouterTest, RouteIsSimdSynchronous) {
  const auto perm = rng_.permutation(1024);
  const auto pat = patterns::from_permutation(perm, 4);
  sim::ClockSet clocks(1024);
  clocks.set(7, 500.0);  // slowest PE gates the step
  router_.route(pat, clocks, rng_);
  const double expect = 500.0 + router_.step_duration(pat);
  for (int p = 0; p < 1024; ++p) EXPECT_DOUBLE_EQ(clocks.at(p), expect);
}

TEST_F(DeltaRouterTest, MoreActivePEsCostMore) {
  // Monotone growth of partial permutations (the T_unb shape, Fig 2).
  double prev = 0.0;
  for (int active : {32, 128, 512, 1024}) {
    const auto snd = rng_.sample_without_replacement(1024, active);
    const auto rcv = rng_.sample_without_replacement(1024, active);
    CommPattern pat(1024);
    for (int i = 0; i < active; ++i) pat.add(snd[i], rcv[i], 4);
    const double d = router_.step_duration(pat);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(DeltaRouterSmall, WorksWith256PEs) {
  DeltaRouter router(256);
  EXPECT_EQ(router.clusters(), 16);
  EXPECT_EQ(router.stages(), 2);
  const auto pat = patterns::bit_flip(256, 3, 1, 4);
  EXPECT_EQ(router.wave_count(pat), 16);
}

// The wave allocator's exact output on the Section 3 calibration patterns,
// pinned so that a faster allocator must keep probe order, conflict counting
// and wave durations bit for bit. Each pattern is rebuilt from its own seed.
CommPattern pinned_pattern(std::string_view name, int procs) {
  sim::Rng rng(0x5eedULL + static_cast<std::uint64_t>(procs));
  if (name == "one-h-1") return calibrate::one_h_relation(rng, procs, 1, 4);
  if (name == "one-h-8") return calibrate::one_h_relation(rng, procs, 8, 4);
  if (name == "one-h-64") return calibrate::one_h_relation(rng, procs, 64, 4);
  if (name == "random-perm") {
    return patterns::from_permutation(rng.permutation(procs), 4);
  }
  if (name == "partial-8") return calibrate::partial_permutation(rng, procs, 8, 4);
  if (name == "partial-512") {
    return calibrate::partial_permutation(rng, procs, 512, 4);
  }
  if (name == "local-perm") {
    return calibrate::local_permutation(rng, procs, procs / 2, 64, 4);
  }
  return calibrate::multinode_scatter(procs, 512, 4);  // "mscat-512"
}

struct PinnedCost {
  const char* pattern;
  int procs;
  bool ideal_crossbar;
  int waves;
  int conflicts;
  double duration;
};

void expect_pinned(const PinnedCost& c) {
  DeltaRouterParams params;
  params.ideal_crossbar = c.ideal_crossbar;
  DeltaRouter router(c.procs, params);
  const auto pat = pinned_pattern(c.pattern, c.procs);
  const auto cost = router.step_cost(pat);
  char actual[160];
  std::snprintf(actual, sizeof actual, "{\"%s\", %d, %s, %d, %d, %a}",
                c.pattern, c.procs, c.ideal_crossbar ? "true" : "false",
                cost.waves, cost.conflicts, cost.duration);
  EXPECT_EQ(cost.waves, c.waves) << actual;
  EXPECT_EQ(cost.conflicts, c.conflicts) << actual;
  EXPECT_EQ(cost.duration, c.duration) << actual;
  EXPECT_EQ(router.wave_count(pat), c.waves) << actual;
}

constexpr PinnedCost kPinned[] = {
    // pattern, procs, ideal_crossbar, waves, conflicts, duration (us)
    {"one-h-1", 1024, false, 42, 952, 0x1.6026666666662p+10},
    {"one-h-8", 1024, false, 49, 1266, 0x1.97cccccccccc7p+10},
    {"one-h-64", 1024, false, 132, 4534, 0x1.0ae99999999a5p+12},
    {"random-perm", 1024, false, 45, 1015, 0x1.77ffffffffffbp+10},
    {"partial-8", 1024, false, 1, 0, 0x1.a333333333333p+6},
    {"partial-512", 1024, false, 26, 446, 0x1.c1e6666666664p+9},
    {"local-perm", 1024, false, 19, 186, 0x1.529999999999ap+9},
    {"mscat-512", 1024, false, 1587, 15703, 0x1.8ad73333333c9p+15},
    {"one-h-1", 1024, true, 34, 535, 0x1.208cccccccccap+10},
    {"one-h-8", 1024, true, 47, 919, 0x1.87e6666666661p+10},
    {"one-h-64", 1024, true, 132, 4449, 0x1.0ae99999999a5p+12},
    {"random-perm", 1024, true, 36, 530, 0x1.307333333333p+10},
    {"partial-8", 1024, true, 1, 0, 0x1.a333333333333p+6},
    {"partial-512", 1024, true, 19, 239, 0x1.529999999999ap+9},
    {"local-perm", 1024, true, 19, 186, 0x1.529999999999ap+9},
    {"mscat-512", 1024, true, 661, 169, 0x1.49933333332ecp+14},
    {"one-h-1", 16384, false, 63, 21117, 0x1.038ccccccccc8p+11},
    {"one-h-8", 16384, false, 78, 24980, 0x1.3f2cccccccccep+11},
    {"one-h-64", 16384, false, 199, 65497, 0x1.901333333334cp+12},
    {"random-perm", 16384, false, 62, 21245, 0x1.ff2666666665ep+10},
    {"partial-8", 16384, false, 1, 0, 0x1.a333333333333p+6},
    {"partial-512", 16384, false, 6, 257, 0x1.07ccccccccccdp+8},
    {"local-perm", 16384, false, 25, 2893, 0x1.b1ffffffffffep+9},
    {"mscat-512", 16384, false, 2048, 151091, 0x1.fd5ecccccce1bp+15},
    {"one-h-1", 16384, true, 37, 8352, 0x1.3866666666663p+10},
    {"one-h-8", 16384, true, 74, 16731, 0x1.2f46666666666p+11},
    {"one-h-64", 16384, true, 199, 64323, 0x1.901333333334cp+12},
    {"random-perm", 16384, true, 39, 8365, 0x1.484ccccccccc9p+10},
    {"partial-8", 16384, true, 1, 0, 0x1.a333333333333p+6},
    {"partial-512", 16384, true, 5, 83, 0x1.dp+7},
    {"local-perm", 16384, true, 25, 2893, 0x1.b1ffffffffffep+9},
    {"mscat-512", 16384, true, 529, 18, 0x1.07fccccccccap+14},
    {"random-perm", 16, false, 16, 0, 0x1.22e6666666668p+9},
    {"one-h-8", 16, false, 16, 0, 0x1.22e6666666668p+9},
};

TEST(DeltaRouterPinned, CalibrationPatternsKeepTheirExactCost) {
  for (const auto& c : kPinned) expect_pinned(c);
}

}  // namespace
}  // namespace pcm::net
