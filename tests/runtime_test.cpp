#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "runtime/dist.hpp"
#include "runtime/exchange.hpp"
#include "runtime/grid.hpp"
#include "test_util.hpp"

namespace pcm::runtime {
namespace {

// ---- BlockDist property sweep ----------------------------------------------

// gtest names each case after the raw bytes of its parameter, so DistCase
// has no padding: `pad` zeroes the four bytes after `parts`, which as
// uninitialised padding gave the cases a different name on every build.
struct DistCase {
  long n;
  int parts;
  int pad = 0;
};
static_assert(std::has_unique_object_representations_v<DistCase>);

class BlockDistP : public ::testing::TestWithParam<DistCase> {};

TEST_P(BlockDistP, PartitionIsExactAndOrdered) {
  const auto [n, parts, pad] = GetParam();
  BlockDist d{n, parts};
  long total = 0;
  long prev_hi = 0;
  for (int i = 0; i < parts; ++i) {
    const auto [lo, hi] = d.range_of(i);
    EXPECT_EQ(lo, prev_hi);
    EXPECT_EQ(hi - lo, d.size_of(i));
    EXPECT_LE(d.size_of(i), d.max_size());
    total += hi - lo;
    prev_hi = hi;
  }
  EXPECT_EQ(total, n);
}

TEST_P(BlockDistP, OwnerAndLocalAreConsistent) {
  const auto [n, parts, pad] = GetParam();
  BlockDist d{n, parts};
  for (long g = 0; g < n; ++g) {
    const int o = d.owner_of(g);
    const auto [lo, hi] = d.range_of(o);
    EXPECT_GE(g, lo);
    EXPECT_LT(g, hi);
    EXPECT_EQ(d.local_of(g), g - lo);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockDistP,
                         ::testing::Values(DistCase{0, 4}, DistCase{1, 4},
                                           DistCase{4, 4}, DistCase{5, 4},
                                           DistCase{7, 3}, DistCase{100, 7},
                                           DistCase{64, 64}, DistCase{65, 64},
                                           DistCase{1000, 13}));

TEST(BlockScatterGather, RoundTrip) {
  std::vector<int> v(103);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  const auto blocks = block_scatter(v, 7);
  EXPECT_EQ(blocks.size(), 7u);
  EXPECT_EQ(block_gather(blocks), v);
}

// ---- grids ------------------------------------------------------------------

TEST(Grid3, RankRoundTrip) {
  Grid3 g{4};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 4; ++k) {
        const int r = g.rank(i, j, k);
        EXPECT_EQ(g.i_of(r), i);
        EXPECT_EQ(g.j_of(r), j);
        EXPECT_EQ(g.k_of(r), k);
      }
    }
  }
}

TEST(Grid3, Fit) {
  EXPECT_EQ(Grid3::fit(64).q, 4);
  EXPECT_EQ(Grid3::fit(1024).q, 10);
  EXPECT_EQ(Grid3::fit(1000).q, 10);
  EXPECT_EQ(Grid3::fit(63).q, 3);
  EXPECT_EQ(Grid3::fit(1).q, 1);
}

TEST(Grid2, FitAndMembers) {
  EXPECT_EQ(Grid2::fit(64).side, 8);
  EXPECT_EQ(Grid2::fit(1024).side, 32);
  EXPECT_EQ(Grid2::fit(17).side, 4);
  Grid2 g{4};
  const auto row = g.row_members(2);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], 8);
  EXPECT_EQ(row[3], 11);
  const auto col = g.col_members(1);
  EXPECT_EQ(col[0], 1);
  EXPECT_EQ(col[3], 13);
  EXPECT_EQ(g.row_of(9), 2);
  EXPECT_EQ(g.col_of(9), 1);
}

// ---- exchange / mailbox ------------------------------------------------------

TEST(Exchange, WordModeStagesOneMessagePerElement) {
  auto m = test::small_cm5();
  Exchange<double> ex(*m, TransferMode::Word);
  ex.send(0, 1, std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(ex.staged_messages(), 3u);
  EXPECT_EQ(ex.pattern().sends_of(0).size(), 3u);
  EXPECT_EQ(ex.pattern().sends_of(0)[0].bytes, 8);
}

TEST(Exchange, BlockModeStagesOneMessagePerParcel) {
  auto m = test::small_cm5();
  Exchange<double> ex(*m, TransferMode::Block);
  ex.send(0, 1, std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(ex.staged_messages(), 1u);
  EXPECT_EQ(ex.pattern().sends_of(0)[0].bytes, 24);
}

TEST(Exchange, EmptySendIsIgnored) {
  auto m = test::small_cm5();
  Exchange<double> ex(*m, TransferMode::Block);
  ex.send(0, 1, std::vector<double>{});
  EXPECT_EQ(ex.staged_messages(), 0u);
}

TEST(Exchange, DeliversPayloadsWithTags) {
  auto m = test::small_cm5();
  Exchange<int> ex(*m, TransferMode::Block);
  ex.send(0, 2, std::vector<int>{7, 8}, /*tag=*/5);
  ex.send(1, 2, std::vector<int>{9}, /*tag=*/6);
  auto& box = ex.run();
  ASSERT_EQ(box.at(2).size(), 2u);
  EXPECT_EQ(box.count_at(2), 3u);
  const auto tagged = box.with_tag(2, 6);
  ASSERT_EQ(tagged.size(), 1u);
  EXPECT_EQ(tagged[0]->src, 1);
  EXPECT_EQ(tagged[0]->data.front(), 9);
  EXPECT_GT(m->now(2), 0.0);
}

TEST(Exchange, ReusableAfterRun) {
  auto m = test::small_cm5();
  Exchange<int> ex(*m, TransferMode::Block);
  ex.send(0, 1, std::vector<int>{1});
  (void)ex.run();
  EXPECT_EQ(ex.staged_messages(), 0u);
  ex.send(1, 0, std::vector<int>{2});
  auto& box = ex.run();
  EXPECT_EQ(box.count_at(0), 1u);
}

TEST(Exchange, OutOfOrderSendersKeepStagingOrderPerDestination) {
  for (const auto mode : {TransferMode::Word, TransferMode::Block}) {
    auto m = test::small_cm5();
    Exchange<int> ex(*m, mode);
    ex.send(5, 2, std::vector<int>{50, 51}, 1);
    ex.send(1, 2, std::vector<int>{10}, 2);
    ex.send(3, 0, std::vector<int>{30, 31, 32}, 3);
    ex.send(1, 0, std::vector<int>{11}, 4);
    ex.send(5, 2, std::vector<int>{52}, 5);
    ex.send(0, 2, std::vector<int>{1, 2}, 6);
    ex.send(3, 7, std::vector<int>{33}, 7);
    const auto& box = ex.run();
    EXPECT_EQ(test::transcript(box),
              "0<3#3[30,31,32,] 0<1#4[11,] 2<5#1[50,51,] 2<1#2[10,] "
              "2<5#5[52,] 2<0#6[1,2,] 7<3#7[33,] ");
  }
}

TEST(Exchange, OneExchangeServesThreeDifferentPatterns) {
  auto m = test::small_cm5();
  Exchange<int> ex(*m, TransferMode::Word);
  std::vector<std::string> seen;
  for (int p = 0; p < 4; ++p) ex.send_value(p, (p + 1) % 4, 10 + p, p);
  {
    const auto& box = ex.run();
    seen.push_back(test::transcript(box));
  }
  for (int p = 15; p >= 12; --p) {
    ex.send(p, 3, std::vector<int>{p, -p}, 100 + p);
  }
  {
    const auto& box = ex.run();
    seen.push_back(test::transcript(box));
  }
  ex.send(9, 4, std::vector<int>{7, 8, 9}, 9);
  ex.send_value(2, 4, 4);
  {
    const auto& box = ex.run();
    seen.push_back(test::transcript(box));
  }
  EXPECT_EQ(seen[0], "0<3#3[13,] 1<0#0[10,] 2<1#1[11,] 3<2#2[12,] ");
  EXPECT_EQ(seen[1],
            "3<15#115[15,-15,] 3<14#114[14,-14,] 3<13#113[13,-13,] "
            "3<12#112[12,-12,] ");
  EXPECT_EQ(seen[2], "4<9#9[7,8,9,] 4<2#0[4,] ");
  EXPECT_EQ(ex.staged_messages(), 0u);
}

TEST(Exchange, RunRefillsOneNonCopyableMailbox) {
  static_assert(!std::is_copy_constructible_v<Mailbox<int>>);
  static_assert(!std::is_copy_assignable_v<Mailbox<int>>);
  auto m = test::small_cm5();
  Exchange<int> ex(*m, TransferMode::Word);
  ex.send_value(0, 1, 5);
  const Mailbox<int>* first = &ex.run();
  ex.send_value(2, 1, 6);
  const auto& box = ex.run();
  EXPECT_EQ(&box, first);
  ASSERT_EQ(box.at(1).size(), 1u);
  EXPECT_EQ(box.at(1).front().src, 2);
  EXPECT_EQ(box.at(1).front().data.front(), 6);
}

TEST(ExchangeDeathTest, MailboxReadAfterStagingAgainTripsTheCheck) {
  auto m = test::small_cm5();
  Exchange<int> ex(*m, TransferMode::Word);
  ex.send_value(0, 1, 42);
  const auto& box = ex.run();
  EXPECT_EQ(box.at(1).size(), 1u);
  ex.send_value(1, 0, 7);  // recycles the arena box's spans point into
  EXPECT_DEATH((void)box.at(1),
               "mailbox read after its Exchange staged again");
}

TEST(Exchange, SendValueHelper) {
  auto m = test::small_cm5();
  Exchange<float> ex(*m, TransferMode::Word);
  ex.send_value(3, 4, 2.5f);
  auto& box = ex.run();
  ASSERT_EQ(box.at(4).size(), 1u);
  EXPECT_FLOAT_EQ(box.at(4).front().data.front(), 2.5f);
}

// ---- repeated steps ----------------------------------------------------------

/// One parcel of a scripted step.
struct ScriptedSend {
  int src;
  int dst;
  int len;
};

/// The steps a reused Exchange is driven through: a shape repeated three
/// times, a step that diverges at parcel k, one with fewer parcels, one
/// with more, one whose parcel k changes length only, an empty step, and
/// the shape again after it, twice. `repeats[i]` says whether step i
/// repeats step i - 1's shape (src, dst and length of every parcel).
struct Script {
  std::vector<std::vector<ScriptedSend>> steps;
  std::vector<bool> repeats;
};

Script repeat_script(int procs) {
  std::vector<ScriptedSend> shape;
  for (int p = 0; p < procs; ++p) shape.push_back({p, (p + 3) % procs, 2});
  for (int p = 0; p < procs; p += 4) shape.push_back({p, (p + 1) % procs, 1});
  const std::size_t k = shape.size() / 2;
  auto diverged = shape;
  diverged[k].dst = (diverged[k].dst + 1) % procs;
  auto fewer = shape;
  fewer.resize(shape.size() - 3);
  auto more = shape;
  more.push_back({procs - 1, 0, 3});
  auto longer = shape;
  longer[k].len = 3;
  Script s;
  s.steps = {shape,  shape, shape, diverged, shape, fewer, shape,
             more,   shape, longer, {},      shape, shape};
  s.repeats = {false, true, true, false, false, false, false,
               false, false, false, false, false, true};
  return s;
}

/// Drive a reused Exchange through repeat_script() on one machine and a
/// fresh Exchange per step on a twin built from the same spec: every step
/// must deliver the same transcript and leave the same clocks. Payloads and
/// tags change every step, so a stale parcel would show.
void expect_reused_matches_fresh(const machines::MachineSpec& spec,
                                 TransferMode mode) {
  SCOPED_TRACE(machines::to_string(spec) +
               (mode == TransferMode::Word ? " word" : " block"));
  auto reused_m = machines::make_machine(spec);
  auto fresh_m = machines::make_machine(spec);
  const Script script = repeat_script(reused_m->procs());
  Exchange<int> reused(*reused_m, mode);
  const auto stage = [](Exchange<int>& ex, const std::vector<ScriptedSend>& sends,
                        int step) {
    for (std::size_t i = 0; i < sends.size(); ++i) {
      const auto& s = sends[i];
      const std::vector<int> data(static_cast<std::size_t>(s.len),
                                  1000 * step + static_cast<int>(i));
      ex.send(s.src, s.dst, data, step * 7 + s.src);
    }
  };
  for (std::size_t step = 0; step < script.steps.size(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto& sends = script.steps[step];
    const int n = static_cast<int>(step);
    std::string want;
    {
      Exchange<int> fresh(*fresh_m, mode);
      stage(fresh, sends, n);
      want = test::transcript(fresh.run());
    }
    const std::uint64_t last_identity = reused.pattern().identity();
    stage(reused, sends, n);
    EXPECT_EQ(test::transcript(reused.run()), want);
    // An unchanged pattern is the repeated path's mark.
    EXPECT_EQ(reused.pattern().identity() == last_identity,
              static_cast<bool>(script.repeats[step]));
    for (int p = 0; p < reused_m->procs(); ++p) {
      ASSERT_EQ(reused_m->now(p), fresh_m->now(p)) << "PE " << p;
    }
    reused_m->barrier();
    fresh_m->barrier();
  }
}

TEST(ExchangeRepeat, ReusedExchangeDeliversWhatAFreshOneDoes) {
  for (const auto& spec : {machines::MachineSpec{.platform = machines::Platform::MasPar,
                                                 .procs = 256, .seed = 11},
                           machines::MachineSpec{.platform = machines::Platform::GCel,
                                                 .procs = 16, .seed = 12},
                           machines::MachineSpec{.platform = machines::Platform::CM5,
                                                 .procs = 16, .seed = 13}}) {
    for (const auto mode : {TransferMode::Word, TransferMode::Block}) {
      expect_reused_matches_fresh(spec, mode);
    }
  }
}

TEST(ExchangeRepeat, StagedMessagesCountsOnlyThisStep) {
  auto m = test::small_cm5();
  Exchange<int> ex(*m, TransferMode::Word);
  ex.send(0, 1, std::vector<int>{1, 2});
  ex.send(2, 3, std::vector<int>{3, 4, 5});
  (void)ex.run();
  EXPECT_EQ(ex.staged_messages(), 0u);
  ex.send(0, 1, std::vector<int>{6, 7});  // repeats the first parcel
  EXPECT_EQ(ex.staged_messages(), 2u);
  EXPECT_EQ(ex.pattern().size(), 5u);  // still the whole last step
  ex.send(2, 3, std::vector<int>{8, 9, 10});
  EXPECT_EQ(ex.staged_messages(), 5u);
  (void)ex.run();
  ex.send(0, 1, std::vector<int>{6, 7});
  ex.send(4, 5, std::vector<int>{1});  // differs: the prefix is re-staged
  EXPECT_EQ(ex.staged_messages(), 3u);
  EXPECT_EQ(ex.pattern().size(), 3u);
}

}  // namespace
}  // namespace pcm::runtime
