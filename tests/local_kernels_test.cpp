#include <gtest/gtest.h>

#include <algorithm>

#include "algos/local/matmul_kernel.hpp"
#include "algos/local/merge.hpp"
#include "algos/local/radix_sort.hpp"
#include "algos/reference.hpp"
#include "machines/local_compute.hpp"
#include "test_util.hpp"

namespace pcm::algos {
namespace {

TEST(RadixSort, SortsRandomKeys) {
  auto keys = test::random_keys(10000, 1);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  radix_sort(keys);
  EXPECT_EQ(keys, expect);
}

TEST(RadixSort, HandlesEdgeCases) {
  std::vector<std::uint32_t> empty;
  radix_sort(empty);
  EXPECT_TRUE(empty.empty());

  std::vector<std::uint32_t> one{42};
  radix_sort(one);
  EXPECT_EQ(one.front(), 42u);

  std::vector<std::uint32_t> dup(100, 7);
  radix_sort(dup);
  EXPECT_TRUE(ref::is_sorted_keys(dup));

  std::vector<std::uint32_t> extremes{0xFFFFFFFFu, 0u, 0x80000000u, 1u};
  radix_sort(extremes);
  EXPECT_EQ(extremes.front(), 0u);
  EXPECT_EQ(extremes.back(), 0xFFFFFFFFu);
}

TEST(RadixSort, WorksWithOtherRadixBits) {
  for (int bits : {4, 8, 16}) {
    auto keys = test::random_keys(1000, static_cast<std::uint64_t>(bits));
    radix_sort(keys, bits);
    EXPECT_TRUE(ref::is_sorted_keys(keys)) << bits;
  }
}

TEST(RadixSort, ChargedCostMatchesFormula) {
  const auto lc = machines::cm5_compute();
  std::vector<std::uint32_t> keys = test::random_keys(512, 3);
  const auto cost = radix_sort_charged(keys, lc);
  EXPECT_TRUE(ref::is_sorted_keys(keys));
  EXPECT_DOUBLE_EQ(cost, lc.radix_sort_time(512));
}

TEST(Merge, KeepLowTakesSmallest) {
  std::vector<std::uint32_t> a{1, 4, 9};
  std::vector<std::uint32_t> b{2, 3, 10};
  std::vector<std::uint32_t> out;
  merge_keep_low(a, b, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(Merge, KeepHighTakesLargestAscending) {
  std::vector<std::uint32_t> a{1, 4, 9};
  std::vector<std::uint32_t> b{2, 3, 10};
  std::vector<std::uint32_t> out;
  merge_keep_high(a, b, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{4, 9, 10}));
}

TEST(Merge, LowAndHighPartitionTheMultiset) {
  sim::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint32_t> a(64), b(64);
    for (auto& v : a) v = static_cast<std::uint32_t>(rng.next_below(100));
    for (auto& v : b) v = static_cast<std::uint32_t>(rng.next_below(100));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<std::uint32_t> low, high;
    merge_keep_low(a, b, low);
    merge_keep_high(a, b, high);
    EXPECT_TRUE(ref::is_sorted_keys(low));
    EXPECT_TRUE(ref::is_sorted_keys(high));
    EXPECT_LE(low.back(), high.front());
    std::vector<std::uint32_t> all;
    all.insert(all.end(), a.begin(), a.end());
    all.insert(all.end(), b.begin(), b.end());
    std::sort(all.begin(), all.end());
    std::vector<std::uint32_t> recomposed = low;
    recomposed.insert(recomposed.end(), high.begin(), high.end());
    EXPECT_EQ(recomposed, all);
  }
}

TEST(MatmulKernel, AccumulatesCorrectly) {
  const int r = 5, k = 7, c = 3;
  sim::Rng rng(9);
  std::vector<double> a(r * k), b(k * c), out(r * c, 1.0);
  for (auto& v : a) v = rng.next_double();
  for (auto& v : b) v = rng.next_double();
  matmul_accumulate<double>(a, b, out, r, k, c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) {
      double want = 1.0;
      for (int kk = 0; kk < k; ++kk) want += a[i * k + kk] * b[kk * c + j];
      EXPECT_NEAR(out[i * c + j], want, 1e-12);
    }
  }
}

TEST(MatmulKernel, ChargedCostUsesLocalComputeModel) {
  const auto lc = machines::cm5_compute();
  std::vector<double> a(16 * 16), b(16 * 16), c(16 * 16, 0.0);
  const auto cost = matmul_charged<double>(a, b, c, 16, 16, 16, lc);
  EXPECT_DOUBLE_EQ(cost, lc.matmul_time(16, 16, 16));
}

TEST(Reference, FloydMatchesDijkstra) {
  const int n = 48;
  const auto d0 = ref::random_digraph(n, 0.15, 4);
  const auto f = ref::floyd(d0, n);
  const auto dj = ref::dijkstra_apsp(d0, n);
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (f[i] >= ref::kApspInf && dj[i] >= ref::kApspInf) continue;
    EXPECT_NEAR(f[i], dj[i], 1e-3) << i;
  }
}

TEST(Reference, MatmulIdentity) {
  const int n = 8;
  std::vector<double> I(n * n, 0.0);
  for (int i = 0; i < n; ++i) I[i * n + i] = 1.0;
  const auto a = test::random_matrix<double>(n, 3);
  EXPECT_EQ(ref::matmul(a, I, n), a);
}

TEST(Reference, RandomDigraphDiagonalZero) {
  const auto d = ref::random_digraph(16, 0.3, 5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(d[i * 16 + i], 0.0f);
}

}  // namespace
}  // namespace pcm::algos
