#include "net/pattern.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "sim/rng.hpp"

namespace pcm::net {
namespace {

TEST(CommPattern, EmptyPattern) {
  CommPattern p(8);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.h_degree(), 0);
  EXPECT_EQ(p.active_processors(), 0);
  EXPECT_TRUE(p.is_partial_permutation());
  EXPECT_FALSE(p.is_full_permutation());
}

TEST(CommPattern, PreservesSenderOrder) {
  CommPattern p(4);
  p.add(0, 1, 4);
  p.add(0, 3, 8);
  p.add(0, 2, 4);
  const auto sends = p.sends_of(0);
  ASSERT_EQ(sends.size(), 3u);
  EXPECT_EQ(sends[0].dst, 1);
  EXPECT_EQ(sends[1].dst, 3);
  EXPECT_EQ(sends[1].bytes, 8);
  EXPECT_EQ(sends[2].dst, 2);
}

TEST(CommPattern, CountsAndBytes) {
  CommPattern p(4);
  p.add(0, 1, 4);
  p.add(2, 1, 6);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.total_bytes(), 10);
  EXPECT_EQ(p.messages().size(), 2u);
}

TEST(CommPattern, HDegree) {
  CommPattern p(4);
  p.add(0, 1, 4);
  p.add(0, 2, 4);
  p.add(3, 1, 4);
  EXPECT_EQ(p.max_sent(), 2);
  EXPECT_EQ(p.max_received(), 2);
  EXPECT_EQ(p.h_degree(), 2);
}

TEST(CommPattern, ReceiveAndSendCounts) {
  CommPattern p(3);
  p.add(0, 2, 4);
  p.add(1, 2, 4);
  EXPECT_EQ(p.receive_count(2), 2);
  EXPECT_EQ(p.receive_count(0), 0);
  EXPECT_EQ(p.send_count(0), 1);
  EXPECT_EQ(p.send_count(2), 0);
}

TEST(CommPattern, SpanViewsCoverTheRemovedCopyingAccessors) {
  // flatten()/receive_counts()/send_counts() finished their deprecation
  // cycle; everything they reported is recoverable from the span views and
  // the O(1) per-processor counters.
  CommPattern p(3);
  p.add(1, 0, 4);
  p.add(0, 2, 8);
  const std::vector<Message> flat(p.messages().begin(), p.messages().end());
  ASSERT_EQ(flat.size(), 2u);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i], p.messages()[i]);
  }
  int total_sent = 0;
  int total_received = 0;
  for (const int s : p.senders()) total_sent += p.send_count(s);
  for (const int r : p.receivers()) total_received += p.receive_count(r);
  EXPECT_EQ(total_sent, 2);
  EXPECT_EQ(total_received, 2);
}

TEST(CommPattern, ActiveProcessors) {
  CommPattern p(8);
  p.add(0, 5, 4);
  EXPECT_EQ(p.active_processors(), 2);
  p.add(5, 0, 4);
  EXPECT_EQ(p.active_processors(), 2);
  p.add(1, 2, 4);
  EXPECT_EQ(p.active_processors(), 4);
}

TEST(CommPattern, PermutationChecks) {
  sim::Rng rng(1);
  const auto perm = rng.permutation(16);
  auto p = patterns::from_permutation(perm, 4);
  EXPECT_TRUE(p.is_full_permutation());
  EXPECT_TRUE(p.is_partial_permutation());
  p.add(0, 1, 4);  // now processor 0 sends twice
  EXPECT_FALSE(p.is_partial_permutation());
}

TEST(CommPattern, PartialPermutationFromSparsePerm) {
  std::vector<int> perm(8, -1);
  perm[2] = 5;
  const auto p = patterns::from_permutation(perm, 4);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_TRUE(p.is_partial_permutation());
  EXPECT_FALSE(p.is_full_permutation());
}

TEST(CommPattern, ClassifyEBspRelation) {
  CommPattern p(4);
  p.add(0, 1, 4);
  p.add(0, 2, 4);
  p.add(0, 3, 4);
  p.add(1, 3, 4);
  const auto r = p.classify();
  EXPECT_EQ(r.total, 4);
  EXPECT_EQ(r.h_send, 3);
  EXPECT_EQ(r.h_recv, 2);
}

TEST(CommPattern, HashIsOrderSensitive) {
  CommPattern a(4), b(4);
  a.add(0, 1, 4);
  a.add(0, 2, 4);
  b.add(0, 2, 4);
  b.add(0, 1, 4);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(CommPattern, HashIsContentSensitive) {
  CommPattern a(4), b(4);
  a.add(0, 1, 4);
  b.add(0, 1, 8);
  EXPECT_NE(a.hash(), b.hash());
  CommPattern c(4);
  c.add(0, 1, 4);
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(CommPattern, IdentityHoldsUntilTheContentsChange) {
  CommPattern p(4);
  p.add(0, 1, 4);
  const auto first = p.identity();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(p.identity(), first);
  (void)p.messages();  // canonicalising is not a change
  EXPECT_EQ(p.identity(), first);
  p.add(1, 2, 4);
  const auto added = p.identity();
  EXPECT_NE(added, first);
  EXPECT_EQ(p.identity(), added);
  p.clear();
  const auto cleared = p.identity();
  EXPECT_NE(cleared, added);
  EXPECT_NE(cleared, first);
}

TEST(CommPattern, IdentityDiffersBetweenPatternsWithEqualContents) {
  CommPattern a(4), b(4);
  a.add(0, 1, 4);
  b.add(0, 1, 4);
  ASSERT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.identity(), b.identity());
}

TEST(CommPattern, ClearResets) {
  CommPattern p(4);
  p.add(0, 1, 4);
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(p.sends_of(0).empty());
}

TEST(CommPattern, EmptyPatternViewsAreEmpty) {
  const CommPattern p(8);
  EXPECT_TRUE(p.messages().empty());
  EXPECT_TRUE(p.senders().empty());
  EXPECT_TRUE(p.receivers().empty());
  EXPECT_EQ(p.total_bytes(), 0);
  EXPECT_EQ(p.hash(), CommPattern(8).hash());
}

TEST(CommPattern, SingleActivePE) {
  CommPattern p(1024);
  p.add(7, 7, 4);  // self-message: exactly one active processor
  EXPECT_EQ(p.active_processors(), 1);
  ASSERT_EQ(p.senders().size(), 1u);
  EXPECT_EQ(p.senders()[0], 7);
  ASSERT_EQ(p.receivers().size(), 1u);
  EXPECT_EQ(p.receivers()[0], 7);
  EXPECT_EQ(p.send_count(7), 1);
  EXPECT_EQ(p.receive_count(7), 1);
  ASSERT_EQ(p.sends_of(7).size(), 1u);
  EXPECT_TRUE(p.sends_of(3).empty());
  EXPECT_TRUE(p.sends_of(1023).empty());
}

TEST(CommPattern, NonPowerOfTwoProcs) {
  const int procs = 1000;
  CommPattern p(procs);
  for (int q = procs - 1; q >= 0; q -= 7) p.add(q, (q * 13 + 5) % procs, 4);
  // Adds arrived in DESCENDING sender order: canonicalisation must sort.
  const auto msgs = p.messages();
  ASSERT_EQ(msgs.size(), p.size());
  for (std::size_t i = 1; i < msgs.size(); ++i) {
    EXPECT_LE(msgs[i - 1].src, msgs[i].src);
  }
  EXPECT_EQ(p.max_sent(), 1);
  EXPECT_EQ(static_cast<std::size_t>(p.senders().size()), p.size());
}

TEST(CommPattern, MillionProcessorSparsePattern) {
  const int procs = 1 << 20;
  CommPattern p(procs);
  p.add(0, procs - 1, 8);
  p.add(procs / 2, 3, 4);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.active_processors(), 4);
  const auto msgs = p.messages();
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].src, 0);
  EXPECT_EQ(msgs[1].src, procs / 2);
  EXPECT_EQ(p.h_degree(), 1);
  EXPECT_TRUE(p.is_partial_permutation());
  // clear() is O(active): the pattern is immediately reusable.
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.send_count(0), 0);
  EXPECT_EQ(p.receive_count(3), 0);
  p.add(5, 6, 4);
  ASSERT_EQ(p.senders().size(), 1u);
  EXPECT_EQ(p.senders()[0], 5);
}

TEST(CommPattern, CanonicalOrderIsStableWithinSender) {
  CommPattern p(8);
  p.add(3, 1, 4);
  p.add(0, 2, 4);
  p.add(3, 5, 8);
  p.add(0, 0, 4);
  const auto msgs = p.messages();
  ASSERT_EQ(msgs.size(), 4u);
  // Ascending sender, queue order preserved within each sender.
  EXPECT_EQ(msgs[0], (Message{0, 2, 4}));
  EXPECT_EQ(msgs[1], (Message{0, 0, 4}));
  EXPECT_EQ(msgs[2], (Message{3, 1, 4}));
  EXPECT_EQ(msgs[3], (Message{3, 5, 8}));
  ASSERT_EQ(p.sends_of(0).size(), 2u);
  EXPECT_EQ(p.sends_of(3)[1].dst, 5);
}

// Staging senders out of order must canonicalise to exactly what in-order
// staging gives, whether the senders are dense (every PE) or sparse (P/64).
// Each sender queues three messages, staged round by round, so queue order
// within a sender is part of what must survive.
void expect_shuffled_staging_matches_in_order(int procs, int senders) {
  sim::Rng rng(static_cast<std::uint64_t>(procs + senders));
  auto active = rng.sample_without_replacement(procs, senders);
  std::vector<std::vector<Message>> queues(static_cast<std::size_t>(procs));
  for (const int s : active) {
    for (int i = 0; i < 3; ++i) {
      queues[static_cast<std::size_t>(s)].push_back(Message{
          s, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(procs))),
          4 + 4 * i});
    }
  }
  CommPattern in_order(procs);
  for (const auto& q : queues) {
    for (const Message& m : q) in_order.add(m);
  }
  CommPattern shuffled(procs);
  for (int i = 0; i < 3; ++i) {
    rng.shuffle(std::span<int>(active));
    for (const int s : active) {
      shuffled.add(queues[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]);
    }
  }
  ASSERT_EQ(shuffled.size(), in_order.size());
  EXPECT_TRUE(std::ranges::equal(shuffled.messages(), in_order.messages()));
  EXPECT_TRUE(std::ranges::equal(shuffled.senders(), in_order.senders()));
  EXPECT_TRUE(std::ranges::is_sorted(shuffled.senders()));
  EXPECT_EQ(static_cast<int>(shuffled.senders().size()), senders);
  for (int p = 0; p < procs; ++p) {
    ASSERT_TRUE(std::ranges::equal(shuffled.sends_of(p), in_order.sends_of(p)))
        << "sender " << p;
  }
  EXPECT_EQ(shuffled.hash(), in_order.hash());
}

TEST(CommPattern, ShuffledDenseStagingMatchesInOrder) {
  expect_shuffled_staging_matches_in_order(1024, 1024);
  expect_shuffled_staging_matches_in_order(65536, 65536);
}

TEST(CommPattern, ShuffledSparseStagingMatchesInOrder) {
  expect_shuffled_staging_matches_in_order(1024, 1024 / 64);
  expect_shuffled_staging_matches_in_order(65536, 65536 / 64);
}

TEST(Patterns, BitFlipIsFullPermutationPerRound) {
  const auto p = patterns::bit_flip(16, 2, 1, 4);
  EXPECT_TRUE(p.is_full_permutation());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(p.sends_of(i).front().dst, i ^ 4);
  }
}

TEST(Patterns, BitFlipMultipleMessages) {
  const auto p = patterns::bit_flip(8, 0, 3, 4);
  EXPECT_EQ(p.size(), 24u);
  EXPECT_EQ(p.max_sent(), 3);
  EXPECT_EQ(p.max_received(), 3);
}

}  // namespace
}  // namespace pcm::net
