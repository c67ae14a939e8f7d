#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "machines/machine.hpp"
#include "obs/obs.hpp"
#include "runtime/exchange.hpp"
#include "test_util.hpp"

// Steady-state allocation count of a communication step. A reused
// runtime::Exchange keeps every buffer's capacity across steps, and the
// routers and the fat tree's Gaussian stream recycle their scratch, so once
// the first steps have grown everything a step allocates nothing. This
// binary replaces every replaceable global operator new (plain, array,
// aligned, nothrow) with one that counts, which is why it is a test binary
// of its own.

namespace {

std::atomic<long> g_news{0};

void* counted(std::size_t n) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted(std::size_t n, std::align_val_t al) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a) / a * a);  // a multiple of a, never 0
}

template <typename... Align>
void* counted_or_throw(std::size_t n, Align... al) {
  if (void* p = counted(n, al...)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n); }
void* operator new[](std::size_t n) { return counted_or_throw(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_or_throw(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_or_throw(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pcm {
namespace {

constexpr int kWarmupSteps = 3;
constexpr int kCountedSteps = 10;
constexpr std::size_t kElems = 64;

/// Allocations made by `kCountedSteps` steps after `kWarmupSteps` warm-up
/// steps on `platform` at its Table 1 size: every PE sends kElems doubles
/// through one reused Exchange, with a barrier after each step. With
/// `shapes` = 2 it sends to p + 1 and to p + 2 on alternate steps, so no
/// step repeats the last; with 1 every step goes to p + 1. Audit allocates
/// by design and obs's span recorder grows with the timeline, so both are
/// off; race stays as the environment sets it.
long steady_state_allocations(machines::Platform platform,
                              runtime::TransferMode mode, int shapes = 2) {
  const test::FlagGuard audit_off(&audit::set_enabled, &audit::enabled,
                                  false);
  const test::FlagGuard obs_off(&obs::set_enabled, &obs::enabled, false);
  auto m = machines::make_machine({.platform = platform, .seed = 2026});
  const int procs = m->procs();
  runtime::Exchange<double> ex(*m, mode);
  const std::vector<double> payload(kElems, 1.5);
  double sink = 0.0;
  long before = 0;
  for (int step = 0; step < kWarmupSteps + kCountedSteps; ++step) {
    if (step == kWarmupSteps) before = g_news.load();
    for (int p = 0; p < procs; ++p) {
      ex.send(p, (p + 1 + step % shapes) % procs, payload, step);
    }
    const auto& box = ex.run();
    for (int p = 0; p < procs; ++p) {
      for (const auto& parcel : box.at(p)) sink += parcel.data.front();
    }
    m->barrier();
  }
  const long after = g_news.load();
  EXPECT_GT(sink, 0.0);
  return after - before;
}

constexpr machines::Platform kPlatforms[] = {
    machines::Platform::MasPar, machines::Platform::GCel,
    machines::Platform::CM5};

TEST(SteadyStateAllocations, WordModeStepsAllocateNothing) {
  for (const auto platform : kPlatforms) {
    EXPECT_EQ(steady_state_allocations(platform, runtime::TransferMode::Word),
              0)
        << machines::to_string(platform);
  }
}

TEST(SteadyStateAllocations, BlockModeStepsAllocateNothing) {
  for (const auto platform : kPlatforms) {
    EXPECT_EQ(steady_state_allocations(platform, runtime::TransferMode::Block),
              0)
        << machines::to_string(platform);
  }
}

TEST(SteadyStateAllocations, RepeatedStepsAllocateNothing) {
  for (const auto platform : kPlatforms) {
    for (const auto mode :
         {runtime::TransferMode::Word, runtime::TransferMode::Block}) {
      EXPECT_EQ(steady_state_allocations(platform, mode, /*shapes=*/1), 0)
          << machines::to_string(platform);
    }
  }
}

TEST(SteadyStateAllocations, TheCounterSeesEveryOperatorNewForm) {
  // A counter that missed a form would let that form's allocations through
  // the two tests above unseen. The allocation functions are called
  // directly, since a new-expression whose result is unused may be elided.
  constexpr std::align_val_t wide{64};
  const long before = g_news.load();
  ::operator delete(::operator new(8));
  ::operator delete[](::operator new[](8));
  ::operator delete(::operator new(8, wide), wide);
  ::operator delete[](::operator new[](8, wide), wide);
  ::operator delete(::operator new(8, std::nothrow), std::nothrow);
  ::operator delete[](::operator new[](8, std::nothrow), std::nothrow);
  ::operator delete(::operator new(8, wide, std::nothrow), wide, std::nothrow);
  ::operator delete[](::operator new[](8, wide, std::nothrow), wide,
                      std::nothrow);
  EXPECT_EQ(g_news.load() - before, 8);
}

}  // namespace
}  // namespace pcm
