#include "net/mesh_router.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "calibrate/microbench.hpp"
#include "net/pattern.hpp"
#include "sim/clockset.hpp"
#include "sim/rng.hpp"

namespace pcm::net {
namespace {

class MeshRouterTest : public ::testing::Test {
 protected:
  MeshRouter router_{64, MeshRouterParams{}, 5};
  sim::Rng rng_{31};
  sim::ClockSet clocks_{64};
};

TEST_F(MeshRouterTest, Hops) {
  // 8x8 mesh, node = y*8 + x.
  EXPECT_EQ(router_.hops(0, 0), 0);
  EXPECT_EQ(router_.hops(0, 7), 7);
  EXPECT_EQ(router_.hops(0, 63), 14);
  EXPECT_EQ(router_.hops(9, 18), 2);
}

TEST_F(MeshRouterTest, EmptyPatternLeavesClocksAlone) {
  CommPattern pat(64);
  clocks_.set(5, 100.0);
  router_.route(pat, clocks_, rng_);
  EXPECT_EQ(clocks_.at(5), 100.0);
  EXPECT_EQ(clocks_.at(0), 0.0);
}

TEST_F(MeshRouterTest, FinishNeverBeforeStart) {
  const auto perm = rng_.permutation(64);
  const auto pat = patterns::from_permutation(perm, 4);
  std::vector<sim::Micros> start(64);
  for (int p = 0; p < 64; ++p) {
    start[p] = rng_.next_double() * 1000.0;
    clocks_.set(p, start[p]);
  }
  router_.route(pat, clocks_, rng_);
  for (int p = 0; p < 64; ++p) EXPECT_GE(clocks_.at(p), start[p]);
}

TEST_F(MeshRouterTest, NonParticipantsUntouched) {
  CommPattern pat(64);
  pat.add(0, 1, 4);
  clocks_.set(63, 77.0);
  router_.route(pat, clocks_, rng_);
  EXPECT_EQ(clocks_.at(63), 77.0);
  EXPECT_GT(clocks_.at(1), 0.0);
}

TEST_F(MeshRouterTest, ReceiveCostDominates) {
  // One sender, ten messages to one receiver: cost ~ 10 * o_recv.
  CommPattern pat(64);
  for (int i = 0; i < 10; ++i) pat.add(0, 63, 4);
  router_.route(pat, clocks_, rng_);
  const auto& p = router_.params();
  EXPECT_GT(clocks_.at(63), 10 * p.o_recv * 0.8);
  EXPECT_LT(clocks_.at(63), 10 * (p.o_recv + p.o_send) * 1.5);
}

TEST_F(MeshRouterTest, ScatterCheaperThanConcentration) {
  // Same message count: one hot receiver vs spread receivers (the Fig 14
  // multinode-scatter mechanism at node level).
  CommPattern hot(64);
  for (int i = 0; i < 32; ++i) hot.add(0, 63, 4);
  router_.route(hot, clocks_, rng_);
  const double t_hot = clocks_.at(63);

  router_.reset();
  CommPattern spread(64);
  for (int i = 0; i < 32; ++i) spread.add(0, 8 + i, 4);
  clocks_.reset();
  router_.route(spread, clocks_, rng_);
  const double t_spread = clocks_.max();
  EXPECT_LT(t_spread, 0.6 * t_hot);
}

TEST_F(MeshRouterTest, LongerMessagesCostMore) {
  const auto perm = rng_.permutation(64);
  router_.route(patterns::from_permutation(perm, 4), clocks_, rng_);
  const double t_small = clocks_.max();
  router_.reset();
  clocks_.reset();
  router_.route(patterns::from_permutation(perm, 4096), clocks_, rng_);
  const double t_big = clocks_.max();
  EXPECT_GT(t_big, t_small + 3000.0);
}

TEST_F(MeshRouterTest, StatePersistsAcrossCallsAndDrains) {
  CommPattern pat(64);
  pat.add(0, 1, 4);
  router_.route(pat, clocks_, rng_);
  const double busy_until = clocks_.at(1);
  // Without a drain, a second delivery to node 1 queues behind the first
  // even if its start time is 0.
  clocks_.reset();
  router_.route(pat, clocks_, rng_);
  EXPECT_GT(clocks_.at(1), busy_until);
  // After drain, the receiver is idle at the drain time.
  router_.drain(100000.0);
  clocks_.reset();
  clocks_.set_all(100000.0);
  router_.route(pat, clocks_, rng_);
  EXPECT_LT(clocks_.at(1), 100000.0 + 3 * router_.params().o_recv);
}

TEST_F(MeshRouterTest, DesyncSurchargeKicksInBeyondTolerance) {
  const auto perm = rng_.permutation(64);
  const auto pat = patterns::from_permutation(perm, 4);
  // Synchronised starts.
  router_.route(pat, clocks_, rng_);
  double sync_span = clocks_.max();

  // Heavily desynchronised starts (spread beyond the tolerance).
  router_.reset();
  clocks_.reset();
  for (int p = 0; p < 64; ++p) clocks_.set(p, p * 1000.0);  // 63k spread
  router_.route(pat, clocks_, rng_);
  double desync_cost = 0.0;
  for (int p = 0; p < 64; ++p) {
    desync_cost = std::max(desync_cost, clocks_.at(p) - p * 1000.0);
  }
  EXPECT_GT(desync_cost, sync_span + 1000.0);
}

TEST(MeshRouterConfig, SmallMeshWorks) {
  MeshRouter router(16, []() {
    MeshRouterParams p;
    p.width = 4;
    p.height = 4;
    return p;
  }());
  EXPECT_EQ(router.hops(0, 15), 6);
}

// Per-node clocks after routing, pinned bit for bit so that a faster
// departure or receive ordering must reproduce the exact link claims and
// the exact order of the receive jitter draws.
MeshRouterParams mesh_params(int width, int height) {
  MeshRouterParams p;
  p.width = width;
  p.height = height;
  return p;
}

CommPattern pinned_mesh_pattern(std::string_view name, int procs,
                                sim::Rng& rng) {
  if (name == "h-relation-64") {
    return calibrate::full_h_relation(rng, procs, 64, 4);
  }
  if (name == "random-dest-64") {
    return calibrate::random_destination_relation(rng, procs, 64, 4);
  }
  if (name == "mscat-256") return calibrate::multinode_scatter(procs, 256, 4);
  if (name == "gather-64") {
    CommPattern pat(procs);  // every other node streams 64 messages at node 0
    for (int p = 1; p < procs; ++p) {
      for (int i = 0; i < 64; ++i) pat.add(p, 0, 4);
    }
    return pat;
  }
  CommPattern pat(procs);  // "mixed-sizes": h = 16, 4..512 bytes
  for (int p = 0; p < procs; ++p) {
    for (int i = 0; i < 16; ++i) {
      pat.add(p, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(procs))),
              4 << rng.next_below(8));
    }
  }
  return pat;
}

/// FNV-1a over every node's clock bits.
std::uint64_t clock_digest(const sim::ClockSet& clocks) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int p = 0; p < clocks.size(); ++p) {
    h ^= std::bit_cast<std::uint64_t>(clocks.at(p));
    h *= 0x100000001b3ull;
  }
  return h;
}

struct PinnedMesh {
  const char* pattern;
  int width;
  int height;
  bool free_sends;  ///< o_send = copy_send = 0: every departure ties.
  std::uint64_t digest;
};

void expect_pinned(const PinnedMesh& c) {
  const int procs = c.width * c.height;
  auto params = mesh_params(c.width, c.height);
  if (c.free_sends) params.o_send = params.copy_send = 0.0;
  MeshRouter router(procs, params, 5);
  sim::Rng rng(0x3e5eULL + static_cast<std::uint64_t>(procs));
  const auto pat = pinned_mesh_pattern(c.pattern, procs, rng);
  sim::ClockSet clocks(procs);
  if (!c.free_sends) {
    // Staggered starts; the second route queues behind the first.
    for (int p = 0; p < procs; ++p) clocks.set(p, rng.next_double() * 1000.0);
  }
  router.route(pat, clocks, rng);
  router.route(pat, clocks, rng);
  const std::uint64_t digest = clock_digest(clocks);
  char actual[160];
  std::snprintf(actual, sizeof actual, "{\"%s\", %d, %d, %s, 0x%016llxull}",
                c.pattern, c.width, c.height, c.free_sends ? "true" : "false",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, c.digest) << actual;
}

constexpr PinnedMesh kPinnedMesh[] = {
    // pattern, width, height, free_sends, clock digest
    {"h-relation-64", 8, 8, false, 0x68970fba3104eee9ull},
    {"random-dest-64", 8, 8, false, 0x0a697f8eb80cb477ull},
    {"mscat-256", 8, 8, false, 0x9d02330709a90e4eull},
    {"gather-64", 8, 8, false, 0xbf877e013217f91dull},
    {"mixed-sizes", 8, 8, true, 0x77d75c23eaaee744ull},
    {"h-relation-64", 8, 6, false, 0x8f2a4f16b066c39eull},
    {"random-dest-64", 8, 6, false, 0x6d34a72fdd83f84eull},
    {"mscat-256", 8, 6, false, 0x4955e9859857a2c3ull},
    {"gather-64", 8, 6, false, 0x2ad3ece79a58e5b9ull},
    {"mixed-sizes", 8, 6, true, 0xf732bffba6d3bdfaull},
};

TEST(MeshRouterPinned, CalibrationPatternsKeepTheirExactClocks) {
  for (const auto& c : kPinnedMesh) expect_pinned(c);
}

}  // namespace
}  // namespace pcm::net
