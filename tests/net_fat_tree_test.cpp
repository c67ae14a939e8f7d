#include "net/fat_tree.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "audit/audit.hpp"
#include "calibrate/microbench.hpp"
#include "net/pattern.hpp"
#include "sim/clockset.hpp"
#include "sim/rng.hpp"

namespace pcm::net {
namespace {

class FatTreeTest : public ::testing::Test {
 protected:
  FatTree router_{64};
  sim::Rng rng_{41};
  sim::ClockSet clocks_{64};
};

TEST_F(FatTreeTest, SingleMessageLatency) {
  CommPattern pat(64);
  pat.add(0, 63, 8);
  router_.route(pat, clocks_, rng_);
  const auto& p = router_.params();
  EXPECT_GT(clocks_.at(63), p.t_lat);
  EXPECT_LT(clocks_.at(63), 50.0);  // Table 1: L ~ 45 µs scale
}

TEST_F(FatTreeTest, BalancedPermutationIsFast) {
  const auto perm = rng_.permutation(64);
  router_.route(patterns::from_permutation(perm, 8), clocks_, rng_);
  EXPECT_LT(clocks_.max(), 60.0);
}

TEST_F(FatTreeTest, HotspotConvergenceIsPenalised) {
  // 4 senders stream 64 messages each into ONE destination...
  CommPattern hot(64);
  for (int i = 0; i < 64; ++i) {
    for (int s = 1; s <= 4; ++s) hot.add(s, 0, 8);
  }
  router_.route(hot, clocks_, rng_);
  const double t_hot = clocks_.max();

  // ...vs the same volume spread over 4 distinct destinations, one sender
  // each (staggered style).
  router_.reset();
  clocks_.reset();
  CommPattern cool(64);
  for (int i = 0; i < 64; ++i) {
    for (int s = 1; s <= 4; ++s) cool.add(s, 8 + s, 8);
  }
  router_.route(cool, clocks_, rng_);
  const double t_cool = clocks_.max();
  EXPECT_GT(t_hot, 1.15 * t_cool);
}

TEST_F(FatTreeTest, BulkMessagesPayRendezvousOnce) {
  CommPattern small(64);
  small.add(0, 1, 8);
  router_.route(small, clocks_, rng_);
  const double t_small = clocks_.at(1);

  router_.reset();
  clocks_.reset();
  CommPattern bulk(64);
  bulk.add(0, 1, 8192);
  router_.route(bulk, clocks_, rng_);
  const double t_bulk = clocks_.at(1);
  const auto& p = router_.params();
  // Bulk cost ~ rendezvous + per-byte stream; far below 1024 small sends.
  EXPECT_GT(t_bulk, p.bulk_setup);
  EXPECT_LT(t_bulk, 1024 * t_small);
  // Per-byte slope near sigma = copy_send + eject_byte + copy_recv.
  const double sigma = p.copy_send + p.eject_byte + p.copy_recv;
  EXPECT_NEAR((t_bulk - t_small) / (8192 - 8), sigma, 0.5 * sigma);
}

TEST_F(FatTreeTest, FinishNeverBeforeStart) {
  const auto perm = rng_.permutation(64);
  std::vector<sim::Micros> start(64);
  for (int p = 0; p < 64; ++p) {
    start[p] = rng_.next_double() * 100.0;
    clocks_.set(p, start[p]);
  }
  router_.route(patterns::from_permutation(perm, 8), clocks_, rng_);
  for (int p = 0; p < 64; ++p) EXPECT_GE(clocks_.at(p), start[p]);
}

TEST_F(FatTreeTest, DrainResetsPortsAndQueues) {
  CommPattern pat(64);
  for (int i = 0; i < 100; ++i) pat.add(1, 0, 8);
  router_.route(pat, clocks_, rng_);
  router_.drain(10000.0);
  clocks_.reset();
  clocks_.set_all(10000.0);
  CommPattern one(64);
  one.add(2, 0, 8);
  router_.route(one, clocks_, rng_);
  EXPECT_LT(clocks_.at(0), 10000.0 + 60.0);
}

TEST_F(FatTreeTest, ThroughputScalesWithH) {
  // Doubling a balanced load roughly doubles the span (linear port model).
  auto run_h = [&](int h) {
    router_.reset();
    clocks_.reset();
    CommPattern pat(64);
    for (int i = 0; i < h; ++i) {
      const auto perm = rng_.permutation(64);
      for (int p = 0; p < 64; ++p) pat.add(p, perm[p], 8);
    }
    router_.route(pat, clocks_, rng_);
    return clocks_.max();
  };
  const double t8 = run_h(8);
  const double t16 = run_h(16);
  EXPECT_GT(t16, 1.6 * t8);
  EXPECT_LT(t16, 2.6 * t8);
}

TEST(FatTree, RejectsNegativeCosts) {
  // Every cost and factor must be >= 0 (NaN fails that too): a negative one
  // would move a sender's CPU backwards without the auditor on.
  using Field = double FatTreeParams::*;
  for (const Field f :
       {&FatTreeParams::o_send, &FatTreeParams::copy_send,
        &FatTreeParams::t_lat, &FatTreeParams::t_eject,
        &FatTreeParams::eject_byte, &FatTreeParams::o_recv,
        &FatTreeParams::copy_recv, &FatTreeParams::bulk_setup,
        &FatTreeParams::capacity_slack, &FatTreeParams::kappa_hotspot,
        &FatTreeParams::jitter}) {
    for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
      FatTreeParams params;
      params.*f = bad;
      EXPECT_THROW(FatTree(64, params), std::invalid_argument);
    }
    FatTreeParams zero;
    zero.*f = 0.0;
    EXPECT_NO_THROW(FatTree(64, zero));
  }
}

// The fat tree's exact output, pinned bit for bit so that a faster event
// loop or a different way of drawing the jitter must keep every service
// time, every draw and the order of the draws. Each case routes twice with
// a drain between; the digest covers all 64 node clocks, and the Rng's
// next word shows that the routes left it exactly where their draws end.

/// One word superstep of the Fig 16 matrix multiply on a q^3 grid, as
/// algos::run_matmul stages it: `replicate` sends A within <i,j,*> and B
/// to <*,i,j> (superstep 1), otherwise the reduce-scatter of C pieces
/// (superstep 3). Every word is one 8-byte message.
CommPattern matmul_word_superstep(bool replicate, bool staggered,
                                  int piece_words) {
  constexpr int q = 4;
  const auto rank = [](int i, int j, int k) { return (i * q + j) * q + k; };
  CommPattern pat(q * q * q);
  const auto send = [&](int src, int dst) {
    for (int w = 0; w < piece_words; ++w) pat.add(src, dst, 8);
  };
  for (int i = 0; i < q; ++i) {
    for (int j = 0; j < q; ++j) {
      for (int k = 0; k < q; ++k) {
        const int self = rank(i, j, k);
        if (!replicate) {
          for (int d = 0; d < q; ++d) {
            const int l = staggered ? (j + d) % q : d;
            if (rank(i, k, l) != self) send(self, rank(i, k, l));
          }
          continue;
        }
        for (int d = 1; d < q; ++d) {
          const int kk = staggered ? (k + d) % q : d - 1 + (d - 1 >= k ? 1 : 0);
          send(self, rank(i, j, kk));
        }
        for (int d = 0; d < q; ++d) {
          const int ii = staggered ? (k + d) % q : d;
          if (rank(ii, i, j) != self) send(self, rank(ii, i, j));
        }
      }
    }
  }
  return pat;
}

CommPattern pinned_fat_tree_pattern(std::string_view name, sim::Rng& rng) {
  constexpr int procs = 64;
  if (name == "reduce-stag-1") return matmul_word_superstep(false, true, 1);
  if (name == "reduce-unstag-1") return matmul_word_superstep(false, false, 1);
  if (name == "reduce-stag-160") return matmul_word_superstep(false, true, 160);
  if (name == "reduce-unstag-160") {
    return matmul_word_superstep(false, false, 160);
  }
  if (name == "replicate-stag-80") return matmul_word_superstep(true, true, 80);
  if (name == "replicate-unstag-80") {
    return matmul_word_superstep(true, false, 80);
  }
  if (name == "h-relation-64") {
    return calibrate::full_h_relation(rng, procs, 64, 8);
  }
  if (name == "gather-64") {
    CommPattern pat(procs);  // every other node streams 64 words at node 0
    for (int p = 1; p < procs; ++p) {
      for (int i = 0; i < 64; ++i) pat.add(p, 0, 8);
    }
    return pat;
  }
  CommPattern pat(procs);  // "bulk-16": h = 16, 64..8192 bytes
  for (int p = 0; p < procs; ++p) {
    for (int i = 0; i < 16; ++i) {
      pat.add(p, static_cast<int>(rng.next_below(procs)),
              64 << rng.next_below(8));
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

struct PinnedFatTree {
  const char* pattern;
  std::uint64_t digest;     ///< Node clocks after both routes.
  std::uint64_t next_word;  ///< The Rng's next next_u64() after them.
};

void expect_pinned(const PinnedFatTree& c) {
  FatTree router(64);
  sim::Rng rng(0xfa7ULL);
  const auto pat = pinned_fat_tree_pattern(c.pattern, rng);
  sim::ClockSet clocks(64);
  // Staggered starts; the second route follows a drain.
  for (int p = 0; p < 64; ++p) clocks.set(p, rng.next_double() * 1000.0);
  router.route(pat, clocks, rng);
  router.drain(clocks.max());
  clocks.barrier();
  router.route(pat, clocks, rng);
  const std::uint64_t digest = clock_digest(clocks);
  const std::uint64_t next_word = rng.next_u64();
  char actual[160];
  std::snprintf(actual, sizeof actual, "{\"%s\", 0x%016llxull, 0x%016llxull}",
                c.pattern, static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(next_word));
  EXPECT_EQ(digest, c.digest) << actual;
  EXPECT_EQ(next_word, c.next_word) << actual;
}

constexpr PinnedFatTree kPinnedFatTree[] = {
    // pattern, clock digest, next Rng word
    {"reduce-stag-1", 0x3730d3a756812b63ull, 0x7b54e125466ddbdaull},
    {"reduce-unstag-1", 0x97dae7ab1a9e12ddull, 0x7b54e125466ddbdaull},
    {"reduce-stag-160", 0x35cdc9c24c363b10ull, 0x8f5fe62453758a3aull},
    {"reduce-unstag-160", 0xf4b9e9f04b381fcdull, 0x8f5fe62453758a3aull},
    {"replicate-stag-80", 0xa238dbb393ad6bcaull, 0x255cba5f9ce27476ull},
    {"replicate-unstag-80", 0xadbaf30b718df0c0ull, 0x255cba5f9ce27476ull},
    {"h-relation-64", 0x04fcc7b986c6176eull, 0xd11e90774f2ae784ull},
    {"gather-64", 0xe54f06e5a13e7f28ull, 0x9d49d07dffd9766dull},
    {"bulk-16", 0x4b8d25fc8f3cefcbull, 0x440f22a8031cd392ull},
};

TEST(FatTreePinned, Fig16AndCalibrationPatternsKeepTheirExactClocks) {
  for (const auto& c : kPinnedFatTree) expect_pinned(c);
}

struct AuditOn {
  AuditOn() { audit::set_enabled(true); }
  ~AuditOn() { audit::set_enabled(false); }
  AuditOn(const AuditOn&) = delete;
  AuditOn& operator=(const AuditOn&) = delete;
};

// A route long enough to stream its jitter, whose one bulk message (sender
// 0's 401st of 801, about half-way through the 153,792 draws) has a
// negative injection cost: the auditor throws there, while helpers may be
// transforming chunks ahead. Destroying the router right after must leave
// no helper touching freed memory (the ASan and TSan builds check this),
// and later routes must still be exact.
TEST(FatTreeStream, AuditedRouteThatThrowsMidStreamLeavesNoHelperBehind) {
  CommPattern pat(64);
  for (int p = 0; p < 64; ++p) {
    for (int i = 0; i <= 800; ++i) {
      pat.add(p, (p + 1 + i) % 64, p == 0 && i == 400 ? 128 : 8);
    }
  }
  ASSERT_GE(3 * pat.size(), 50 * sim::GaussianStream::kChunkDraws);
  // The constructor rejects a negative cost; an infinite one passes and
  // makes the one 128-byte (bulk) message's injection cost non-finite.
  FatTreeParams params;
  params.bulk_setup = std::numeric_limits<double>::infinity();
  {
    const AuditOn audit_on;
    for (std::uint64_t rep = 0; rep < 20; ++rep) {
      FatTree router(64, params);
      sim::Rng rng(rep);
      sim::ClockSet clocks(64);
      try {
        router.route(pat, clocks, rng);
        ADD_FAILURE() << "the infinite bulk cost was not reported";
      } catch (const audit::AuditError& e) {
        EXPECT_EQ(e.invariant(), "clock-monotonicity");
        EXPECT_EQ(e.resource(), "fat-tree");
      }
    }
  }
  for (const auto& c : kPinnedFatTree) expect_pinned(c);
}

}  // namespace
}  // namespace pcm::net
