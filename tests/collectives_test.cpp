#include "runtime/collectives.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace pcm::runtime {
namespace {

TEST(Collectives, BpramTransposeIsCorrect) {
  auto m = test::small_cm5();  // P = 16, perfect square
  m->reset();
  const int P = m->procs();
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    rows[static_cast<std::size_t>(p)].resize(static_cast<std::size_t>(P));
    for (int c = 0; c < P; ++c) {
      rows[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)] = p * 100 + c;
    }
  }
  const auto cols = bpram_transpose<int>(*m, rows);
  for (int c = 0; c < P; ++c) {
    for (int p = 0; p < P; ++p) {
      EXPECT_EQ(cols[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)], p * 100 + c);
    }
  }
}

TEST(Collectives, BpramTransposeIsInvolution) {
  auto m = test::small_cm5();
  m->reset();
  const int P = m->procs();
  sim::Rng rng(5);
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(P));
  for (auto& r : rows) {
    r.resize(static_cast<std::size_t>(P));
    for (auto& v : r) v = static_cast<int>(rng.next_below(1000));
  }
  EXPECT_EQ(bpram_transpose<int>(*m, bpram_transpose<int>(*m, rows)), rows);
}

TEST(Collectives, BpramMultiscanMatchesSerialPrefix) {
  auto m = test::small_cm5();  // P = 16, perfect square
  m->reset();
  const int P = m->procs();
  sim::Rng rng(7);
  std::vector<std::vector<long>> counts(static_cast<std::size_t>(P));
  for (auto& row : counts) {
    row.resize(static_cast<std::size_t>(P));
    for (auto& v : row) v = static_cast<long>(rng.next_below(9));
  }
  const auto offsets = bpram_multiscan<long>(*m, counts);
  ASSERT_EQ(offsets.size(), static_cast<std::size_t>(P));
  for (int b = 0; b < P; ++b) {
    long acc = 0;
    for (int p = 0; p < P; ++p) {
      EXPECT_EQ(offsets[static_cast<std::size_t>(p)][static_cast<std::size_t>(b)], acc)
          << "p=" << p << " b=" << b;
      acc += counts[static_cast<std::size_t>(p)][static_cast<std::size_t>(b)];
    }
  }
  EXPECT_GT(m->now(), 0.0);
}

TEST(Collectives, BpramAllgatherOneGathersEverything) {
  auto m = test::small_cm5();
  m->reset();
  const int P = m->procs();
  std::vector<int> value(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) value[static_cast<std::size_t>(p)] = 1000 + p;
  const auto gathered = bpram_allgather_one<int>(*m, value);
  for (int p = 0; p < P; ++p) {
    ASSERT_EQ(gathered[static_cast<std::size_t>(p)].size(), static_cast<std::size_t>(P));
    for (int c = 0; c < P; ++c) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)], 1000 + c);
    }
  }
}

TEST(Collectives, BpramAllgatherUsesSinglePortSteps) {
  // Every step of the transpose-based all-gather must respect the MP-BPRAM
  // single-port restriction. We verify indirectly: the schedule completes
  // and the cost scales like 2*sqrt(P) block steps (not P steps).
  auto m = test::small_cm5();
  const int P = m->procs();
  std::vector<int> value(static_cast<std::size_t>(P), 1);

  m->reset();
  (void)bpram_allgather_one<int>(*m, value);
  const double transpose_cost = m->now();

  // A naive all-gather: each root in turn sends its value to every other
  // processor, one Block-mode step per root (~P steps).
  m->reset();
  Exchange<int> ex(*m, TransferMode::Block);
  for (int root = 0; root < P; ++root) {
    for (int p = 0; p < P; ++p) {
      if (p != root) ex.send(root, p, std::vector<int>{1});
    }
    (void)ex.run();
  }
  const double naive_cost = m->now();
  EXPECT_LT(transpose_cost, naive_cost);
}

}  // namespace
}  // namespace pcm::runtime
