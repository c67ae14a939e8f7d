// Engine micro-benchmarks (google-benchmark): throughput of the three
// router simulators and the local kernels. These track the performance of
// the simulation engine itself, not the simulated machines.

#include <benchmark/benchmark.h>

#include "algos/local/matmul_kernel.hpp"
#include "algos/local/merge.hpp"
#include "algos/local/radix_sort.hpp"
#include "calibrate/microbench.hpp"
#include "machines/machine.hpp"
#include "net/delta_router.hpp"
#include "net/fat_tree.hpp"
#include "net/mesh_router.hpp"
#include "runtime/exchange.hpp"

namespace {

using namespace pcm;

void BM_DeltaRouterRandomPermutation(benchmark::State& state) {
  net::DeltaRouter router(1024);
  sim::Rng rng(1);
  const auto perm = rng.permutation(1024);
  const auto pat = net::patterns::from_permutation(perm, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.wave_count(pat));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DeltaRouterRandomPermutation);

/// A memo hit: the pattern's hash and the compare of its messages with the
/// memo entry's. Two patterns alternate, so the identity check in front of
/// the memo (which returns an unchanged pattern's cost at once) misses on
/// every call.
void BM_DeltaRouterMemoisedStep(benchmark::State& state) {
  net::DeltaRouter router(1024);
  const net::CommPattern pats[] = {net::patterns::bit_flip(1024, 3, 1, 4),
                                   net::patterns::bit_flip(1024, 4, 1, 4)};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.step_duration(pats[i]));
    i ^= 1;
  }
}
BENCHMARK(BM_DeltaRouterMemoisedStep);

/// The destination-conflict-heavy miss path: a fresh 1-64 relation (1,024
/// senders, 16 destinations) through the wave allocator, no memo.
void BM_DeltaRouterOneHRelation(benchmark::State& state) {
  net::DeltaRouter router(1024);
  sim::Rng rng(7);
  const auto pat = calibrate::one_h_relation(rng, 1024, 64, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.wave_count(pat));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DeltaRouterOneHRelation);

void BM_MeshRouterHRelation(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  net::MeshRouter router(64);
  sim::Rng rng(3);
  const auto pat = calibrate::full_h_relation(rng, 64, h, 4);
  sim::ClockSet clocks(64);
  for (auto _ : state) {
    router.reset();
    clocks.reset();
    router.route(pat, clocks, rng);
    benchmark::DoNotOptimize(clocks.at(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pat.size()));
}
BENCHMARK(BM_MeshRouterHRelation)->Arg(8)->Arg(64);

/// The hot receiver: 63 senders stream 512 messages each at node 0.
void BM_MeshRouterGather(benchmark::State& state) {
  net::MeshRouter router(64);
  sim::Rng rng(8);
  net::CommPattern pat(64);
  for (int p = 1; p < 64; ++p) {
    for (int i = 0; i < 512; ++i) pat.add(p, 0, 4);
  }
  sim::ClockSet clocks(64);
  for (auto _ : state) {
    router.reset();
    clocks.reset();
    router.route(pat, clocks, rng);
    benchmark::DoNotOptimize(clocks.at(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pat.size()));
}
BENCHMARK(BM_MeshRouterGather);

void BM_FatTreeHRelation(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  net::FatTree router(64);
  sim::Rng rng(4);
  const auto pat = calibrate::full_h_relation(rng, 64, h, 8);
  sim::ClockSet clocks(64);
  for (auto _ : state) {
    router.reset();
    clocks.reset();
    router.route(pat, clocks, rng);
    benchmark::DoNotOptimize(clocks.at(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pat.size()));
}
BENCHMARK(BM_FatTreeHRelation)->Arg(8)->Arg(64);

/// Fig 16's replicate superstep in word mode (algos::run_matmul, BSP
/// staggered): on the 64-node CM-5 grid q = 4, every node sends its A piece
/// to the 3 other nodes of <i,j,*> and its B piece to <*,i,j>, one 8-byte
/// message per word. With 64-word pieces that is 28,416 messages, or 85,248
/// jitter draws in 84 stream chunks per route, so the draws run ahead on
/// helper threads.
void BM_FatTreeWordStream(benchmark::State& state) {
  constexpr int q = 4;
  constexpr int piece_words = 64;
  const auto rank = [](int i, int j, int k) { return (i * q + j) * q + k; };
  net::CommPattern pat(q * q * q);
  for (int i = 0; i < q; ++i) {
    for (int j = 0; j < q; ++j) {
      for (int k = 0; k < q; ++k) {
        const int self = rank(i, j, k);
        for (int d = 1; d < q; ++d) {
          for (int w = 0; w < piece_words; ++w) pat.add(self, rank(i, j, (k + d) % q), 8);
        }
        for (int d = 0; d < q; ++d) {
          const int dst = rank((k + d) % q, i, j);
          if (dst == self) continue;
          for (int w = 0; w < piece_words; ++w) pat.add(self, dst, 8);
        }
      }
    }
  }
  net::FatTree router(q * q * q);
  sim::Rng rng(16);
  sim::ClockSet clocks(q * q * q);
  for (auto _ : state) {
    router.reset();
    clocks.reset();
    router.route(pat, clocks, rng);
    benchmark::DoNotOptimize(clocks.at(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pat.size()));
}
BENCHMARK(BM_FatTreeWordStream);

/// A full machine superstep loop (charge / exchange / barrier). Run with
/// --benchmark_filter=Superstep and PCM_OBS unset vs PCM_OBS=1 to measure
/// the observability plane's overhead: unset, the plane costs one branch
/// per hook; PCM_OBS=1 adds the metric and span recording.
void BM_MachineSuperstepLoop(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  auto m = machines::make_machine(
      {.platform = machines::Platform::CM5, .procs = procs, .seed = 9});
  const auto pat = net::patterns::bit_flip(procs, 2, 1, 8);
  for (auto _ : state) {
    m->reset();
    for (int step = 0; step < 8; ++step) {
      m->charge_all(5.0);
      m->exchange(pat);
      m->barrier();
    }
    benchmark::DoNotOptimize(m->now());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MachineSuperstepLoop)->Arg(64)->Arg(1024)->Arg(4096);

/// The sparse counterpart: two active PEs out of p. Cost should track the
/// active-message count, not the machine size.
void BM_MachineSuperstepSparse(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  auto m = machines::make_machine(
      {.platform = machines::Platform::CM5, .procs = procs, .seed = 9});
  net::CommPattern pat(procs);
  pat.add(0, procs / 2, 8);
  pat.add(procs / 2, 0, 8);
  for (auto _ : state) {
    m->reset();
    for (int step = 0; step < 8; ++step) {
      m->charge(0, 5.0);
      m->exchange(pat);
      m->barrier();
    }
    benchmark::DoNotOptimize(m->now());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MachineSuperstepSparse)->Arg(1024)->Arg(65536);

/// SIMD machine superstep loop at scale: the MasPar delta router with a
/// conflict-free bit-flip exchange per superstep.
void BM_MasParSuperstepLoop(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  auto m = machines::make_machine(
      {.platform = machines::Platform::MasPar, .procs = procs, .seed = 9});
  const auto pat = net::patterns::bit_flip(procs, 3, 1, 4);
  for (auto _ : state) {
    m->reset();
    for (int step = 0; step < 8; ++step) {
      m->charge_all(5.0);
      m->exchange(pat);
      m->barrier();
    }
    benchmark::DoNotOptimize(m->now());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MasParSuperstepLoop)->Arg(1024)->Arg(16384);

/// One MP-BSP word step of bitonic sort through the runtime layer: every PE
/// sends one key to its bit-flip partner through one reused Exchange, and
/// every mailbox is consumed. Every step repeats the last one's shape, so
/// the time is the repeated path: payload copies, the route of an unchanged
/// pattern and the mailbox refill.
void BM_RuntimeExchangeWord(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  auto m = machines::make_machine(
      {.platform = machines::Platform::MasPar, .procs = procs, .seed = 9});
  runtime::Exchange<std::uint32_t> ex(*m, runtime::TransferMode::Word);
  std::uint32_t sum = 0;
  for (auto _ : state) {
    for (int p = 0; p < procs; ++p) {
      ex.send_value(p, p ^ 8, static_cast<std::uint32_t>(p));
    }
    const auto& box = ex.run();
    for (int p = 0; p < procs; ++p) {
      for (const auto& parcel : box.at(p)) sum += parcel.data.front();
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_RuntimeExchangeWord)->Arg(1024)->Arg(65536);

/// BM_RuntimeExchangeWord with partner p^8 and p^16 on alternate steps, so
/// no step repeats the last: the fresh path (pattern staging, the
/// DeltaRouter memo's hash and compare, the mailbox's counting sort).
void BM_RuntimeExchangeWordAlternating(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  auto m = machines::make_machine(
      {.platform = machines::Platform::MasPar, .procs = procs, .seed = 9});
  runtime::Exchange<std::uint32_t> ex(*m, runtime::TransferMode::Word);
  std::uint32_t sum = 0;
  int partner_bit = 8;
  for (auto _ : state) {
    for (int p = 0; p < procs; ++p) {
      ex.send_value(p, p ^ partner_bit, static_cast<std::uint32_t>(p));
    }
    const auto& box = ex.run();
    for (int p = 0; p < procs; ++p) {
      for (const auto& parcel : box.at(p)) sum += parcel.data.front();
    }
    partner_bit ^= 8 ^ 16;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_RuntimeExchangeWordAlternating)->Arg(1024)->Arg(65536);

/// CommPattern construction throughput (the per-superstep staging cost of
/// the runtime Exchange).
void BM_PatternBuildPermutation(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  sim::Rng rng(11);
  const auto perm = rng.permutation(procs);
  for (auto _ : state) {
    auto pat = net::patterns::from_permutation(perm, 4);
    benchmark::DoNotOptimize(pat.size());
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_PatternBuildPermutation)->Arg(1024)->Arg(65536);

/// Canonicalisation of a pattern whose every sender was staged in shuffled
/// order (the calibration generators' 1-h relations): stage, then
/// messages().
void BM_PatternCanonicalShuffled(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  sim::Rng rng(12);
  const auto order = rng.permutation(procs);
  const auto perm = rng.permutation(procs);
  net::CommPattern pat(procs);
  for (auto _ : state) {
    pat.clear();
    for (const int p : order) pat.add(p, perm[static_cast<std::size_t>(p)], 4);
    benchmark::DoNotOptimize(pat.messages().data());
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_PatternCanonicalShuffled)->Arg(1024)->Arg(65536);

void BM_RadixSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(5);
  std::vector<std::uint32_t> base(n);
  for (auto& k : base) k = static_cast<std::uint32_t>(rng.next_u64());
  for (auto _ : state) {
    auto keys = base;
    algos::radix_sort(keys);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_RadixSort)->Arg(1 << 12)->Arg(1 << 16);

void BM_MergeKeepLow(benchmark::State& state) {
  const std::size_t n = 4096;
  sim::Rng rng(6);
  std::vector<std::uint32_t> a(n), b(n);
  for (auto& k : a) k = static_cast<std::uint32_t>(rng.next_u64());
  for (auto& k : b) k = static_cast<std::uint32_t>(rng.next_u64());
  algos::radix_sort(a);
  algos::radix_sort(b);
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    algos::merge_keep_low(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_MergeKeepLow);

void BM_MatmulKernel(benchmark::State& state) {
  const long n = state.range(0);
  std::vector<double> a(static_cast<std::size_t>(n) * n, 1.0);
  std::vector<double> b(static_cast<std::size_t>(n) * n, 2.0);
  std::vector<double> c(static_cast<std::size_t>(n) * n, 0.0);
  for (auto _ : state) {
    algos::matmul_accumulate<double>(a, b, c, n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulKernel)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
