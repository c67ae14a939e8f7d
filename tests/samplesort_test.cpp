#include "algos/samplesort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "test_util.hpp"

namespace pcm::algos {
namespace {

struct SampleCase {
  SampleSortVariant variant;
  long m_keys;
  int oversampling;
  std::uint64_t seed;
};

void PrintTo(const SampleCase& c, std::ostream* os) {
  *os << to_string(c.variant) << "/M=" << c.m_keys << "/S=" << c.oversampling;
}

class SampleSortP : public ::testing::TestWithParam<SampleCase> {};

TEST_P(SampleSortP, SortsCorrectly) {
  const auto& c = GetParam();
  auto m = test::small_cm5();  // P = 16, perfect square & power of two
  auto keys = test::random_keys(static_cast<std::size_t>(c.m_keys) * 16, c.seed);
  auto want = keys;
  std::sort(want.begin(), want.end());
  const auto r = run_samplesort(*m, keys, c.oversampling, c.variant);
  EXPECT_EQ(r.keys, want);
  EXPECT_GT(r.time, 0.0);
  EXPECT_GE(r.max_bucket, c.m_keys);  // max >= mean
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SampleSortP,
    ::testing::Values(SampleCase{SampleSortVariant::Bpram, 64, 8, 1},
                      SampleCase{SampleSortVariant::Bpram, 256, 16, 2},
                      SampleCase{SampleSortVariant::Bpram, 1024, 32, 3},
                      SampleCase{SampleSortVariant::StaggeredPacked, 64, 8, 4},
                      SampleCase{SampleSortVariant::StaggeredPacked, 512, 16, 5}));

TEST(SampleSort, WorksOnTheGcel) {
  auto m = machines::make_machine({.platform = machines::Platform::GCel, .seed = 21});
  auto keys = test::random_keys(64 * 128, 21);
  auto want = keys;
  std::sort(want.begin(), want.end());
  const auto r = run_samplesort(*m, keys, 32, SampleSortVariant::Bpram);
  EXPECT_EQ(r.keys, want);
}

TEST(SampleSort, HandlesDuplicateHeavyInput) {
  auto m = test::small_cm5();
  std::vector<std::uint32_t> keys(16 * 128);
  sim::Rng rng(22);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_below(3));
  auto want = keys;
  std::sort(want.begin(), want.end());
  const auto r = run_samplesort(*m, keys, 16, SampleSortVariant::Bpram);
  EXPECT_EQ(r.keys, want);
}

TEST(SampleSort, HandlesConstantInput) {
  auto m = test::small_cm5();
  std::vector<std::uint32_t> keys(16 * 64, 5);
  const auto r = run_samplesort(*m, keys, 8, SampleSortVariant::StaggeredPacked);
  EXPECT_EQ(r.keys, keys);
}

TEST(SampleSort, OversamplingBoundsBucketImbalance) {
  auto m = machines::make_machine({.platform = machines::Platform::GCel, .seed = 23});
  auto keys = test::random_keys(64 * 512, 23);
  const auto low = run_samplesort(*m, keys, 4, SampleSortVariant::StaggeredPacked);
  const auto high = run_samplesort(*m, keys, 64, SampleSortVariant::StaggeredPacked);
  // Higher oversampling should not make the imbalance dramatically worse;
  // typically it improves it.
  EXPECT_LE(high.max_bucket, low.max_bucket * 2);
  // With S = 64 the largest bucket stays within ~2.5x of the mean.
  EXPECT_LT(high.max_bucket, 512 * 5 / 2);
}

TEST(SampleSort, StaggeredPackedBeatsSinglePortRouting) {
  // Fig 18: packing all keys for a bucket into one message (violating the
  // single-port restriction) is about twice as fast on the GCel.
  auto m = machines::make_machine({.platform = machines::Platform::GCel, .seed = 24});
  auto keys = test::random_keys(64 * 1024, 24);
  const auto bpram = run_samplesort(*m, keys, 64, SampleSortVariant::Bpram);
  const auto packed =
      run_samplesort(*m, keys, 64, SampleSortVariant::StaggeredPacked);
  EXPECT_GT(bpram.time, 1.2 * packed.time);
  EXPECT_LT(bpram.time, 4.0 * packed.time);
}

TEST(SampleSort, ProcsMustBeAPowerOfFour) {
  for (const int p : {1, 4, 16, 64, 256, 1024}) {
    EXPECT_NO_THROW(check_samplesort_procs(p)) << p;
  }
  for (const int p : {0, -16, 2, 8, 32, 48, 128, 36}) {
    EXPECT_THROW(check_samplesort_procs(p), std::invalid_argument) << p;
  }
  // Rejected at sample sort's entry, before any step runs.
  auto m = machines::make_machine(
      {.platform = machines::Platform::GCel, .procs = 32, .seed = 1});
  const auto keys = test::random_keys(32 * 64, 5);
  EXPECT_THROW(run_samplesort(*m, keys, 8, SampleSortVariant::Bpram),
               std::invalid_argument);
}

TEST(SampleSort, VariantNames) {
  EXPECT_EQ(to_string(SampleSortVariant::Bpram), "mp-bpram");
  EXPECT_EQ(to_string(SampleSortVariant::StaggeredPacked), "staggered-packed");
}

}  // namespace
}  // namespace pcm::algos
