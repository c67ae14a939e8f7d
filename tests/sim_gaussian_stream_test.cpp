#include "sim/gaussian_stream.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/rng.hpp"

namespace pcm::sim {
namespace {

constexpr std::size_t kChunk = GaussianStream::kChunkDraws;

/// Busy work between reads, so that helpers are sometimes ahead of the
/// reader and sometimes behind it.
void stall(std::size_t spins) {
  volatile std::size_t sink = 0;
  for (std::size_t i = 0; i < spins; ++i) sink = sink + i;
}

/// Streams `count` draws from Rng(seed) and checks each one, bit for bit,
/// against next_gaussian() on a second Rng(seed), then checks that both
/// Rngs are left in the same state. `pace` > 0 stalls the reader now and
/// then to vary the interleaving with the helpers.
void expect_stream_matches(GaussianStream& stream, std::uint64_t seed,
                           std::size_t count, std::size_t pace) {
  Rng streamed(seed);
  Rng reference(seed);
  stream.begin_stream(streamed, count);
  for (std::size_t i = 0; i < count; ++i) {
    const double got = stream.next_streamed();
    const double want = reference.next_gaussian();
    if (std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want)) {
      ADD_FAILURE() << "draw " << i << " of " << count << ": " << got
                    << " != " << want;
      break;
    }
    if (pace != 0 && i % 97 == 0) stall(pace * (i % 7));
  }
  stream.end_stream();
  EXPECT_EQ(streamed.next_u64(), reference.next_u64()) << count << " draws";
}

TEST(GaussianStream, YieldsTheBitsOfNextGaussianAndLeavesTheRngAligned) {
  GaussianStream stream;
  const std::size_t counts[] = {0, 1, kChunk - 1, kChunk, kChunk + 1, 50 * kChunk};
  for (std::uint64_t rep = 0; rep < 24; ++rep) {
    for (const std::size_t count : counts) {
      expect_stream_matches(stream, 0x5eed + rep, count, (rep % 4) * 200);
    }
  }
}

TEST(GaussianStream, FreshAndGrowingStreamsAgree) {
  // A new stream per count, and one stream whose buffers grow with each.
  GaussianStream growing;
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    for (const std::size_t count : {kChunk + 1, 2 * kChunk, 7 * kChunk + 3}) {
      GaussianStream fresh;
      expect_stream_matches(fresh, 0xf00d + rep, count, rep % 2 * 300);
      expect_stream_matches(growing, 0xbeef + rep, count, 0);
    }
  }
}

TEST(GaussianStream, EndingEarlyThenRestartingStaysExact) {
  GaussianStream stream;
  for (std::uint64_t rep = 0; rep < 16; ++rep) {
    Rng abandoned(rep);
    stream.begin_stream(abandoned, 50 * kChunk);
    const std::size_t read = (rep + 1) * kChunk / 3;
    for (std::size_t i = 0; i < read; ++i) (void)stream.next_streamed();
    stream.end_stream();  // chunks drawn ahead and claimed by helpers dropped
    expect_stream_matches(stream, 0xabc + rep, 3 * kChunk + 5, 0);
  }
}

TEST(GaussianStream, ConcurrentStreamsShareTheHelpersAndStayExact) {
  std::vector<std::thread> routers;
  for (std::uint64_t t = 0; t < 4; ++t) {
    routers.emplace_back([t] {
      GaussianStream stream;
      for (std::uint64_t rep = 0; rep < 4; ++rep) {
        expect_stream_matches(stream, 100 * t + rep, 20 * kChunk + 17, rep * 150);
      }
    });
  }
  for (auto& r : routers) r.join();
}

TEST(GaussianStream, HelperBudgetFollowsTheAffinityMask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  const int usable = CPU_COUNT(&set);
  EXPECT_EQ(GaussianStream::helper_threads(), std::min(2, usable - 1));
  EXPECT_FALSE(GaussianStream::worth_streaming(kChunk - 1));
  EXPECT_EQ(GaussianStream::worth_streaming(kChunk),
            GaussianStream::helper_threads() > 0);
}

}  // namespace
}  // namespace pcm::sim
