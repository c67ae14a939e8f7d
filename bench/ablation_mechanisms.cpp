// Ablation study: each of the paper's headline mispredictions is produced by
// one concrete contention mechanism in the simulators (DESIGN.md, Section 4
// "emergent, not scripted"). Turning the mechanisms off one at a time shows
// the corresponding figure's effect vanish:
//
//   A. delta-network stage conflicts  -> Fig 5 (bitonic ~2x cheaper than model)
//   B. fat-tree hotspot backpressure  -> Fig 4 (+21% unstaggered matmul)
//   C. mesh receiver-backlog penalty  -> Fig 6 (unsynchronized bitonic blow-up)
//   D. mesh receive-overhead dominance-> Fig 14 (scatter ~8x cheaper)

#include <iostream>

#include "algos/bitonic.hpp"
#include "bench_common.hpp"
#include "calibrate/h_relation.hpp"
#include "calibrate/mscat.hpp"
#include "machines/custom.hpp"
#include "matmul_bench.hpp"
#include "report/table.hpp"
#include "sim/rng.hpp"

namespace {

using namespace pcm;

std::vector<std::uint32_t> keys_for(machines::Machine& m, long per_node,
                                    std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(per_node) *
                                  static_cast<std::size_t>(m.procs()));
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
  return keys;
}

void ablate_delta_conflicts() {
  report::banner(std::cout, "A. MasPar delta-network stage conflicts",
                 "mechanism behind Fig 5: random permutations ~2.5x a bit-flip "
                 "exchange; with an ideal crossbar the gap collapses");
  report::Table t({"router", "random perm (µs)", "bit-flip (µs)", "ratio"});
  for (const bool crossbar : {false, true}) {
    net::DeltaRouterParams p;
    p.ideal_crossbar = crossbar;
    net::DeltaRouter router(1024, p);
    sim::Rng rng(5);
    double rnd = 0.0;
    for (int i = 0; i < 10; ++i) {
      rnd += router.step_duration(
          net::patterns::from_permutation(rng.permutation(1024), 4));
    }
    rnd /= 10.0;
    const double flip =
        router.step_duration(net::patterns::bit_flip(1024, 4, 1, 4));
    t.add_row({crossbar ? "ideal crossbar (ablated)" : "delta network",
               report::Table::num(rnd, 0), report::Table::num(flip, 0),
               report::Table::num(rnd / flip, 2)});
  }
  t.print(std::cout);
}

void ablate_hotspot() {
  report::banner(std::cout, "B. CM-5 ejection-port backpressure",
                 "mechanism behind Fig 4: without it the unstaggered schedule "
                 "costs the same as the staggered one");
  report::Table t({"fat tree", "unstaggered (ms)", "staggered (ms)", "penalty"});
  for (const bool ablated : {false, true}) {
    net::FatTreeParams p;
    if (ablated) {
      p.kappa_hotspot = 0.0;
      p.capacity_slack = 1e9;  // never stall senders
    }
    auto m = machines::make_cm5_custom(p, 77);
    const int n = 256;
    const auto un =
        bench::time_matmul<double>(*m, n, algos::MatmulVariant::BspUnstaggered);
    const auto st =
        bench::time_matmul<double>(*m, n, algos::MatmulVariant::BspStaggered);
    t.add_row({ablated ? "no backpressure (ablated)" : "with backpressure",
               report::Table::num(un.time / 1e3, 1),
               report::Table::num(st.time / 1e3, 1),
               report::Table::num(100.0 * (un.time / st.time - 1.0), 1) + "%"});
  }
  t.print(std::cout);
}

void ablate_backlog() {
  report::banner(std::cout, "C. GCel receiver-backlog penalty",
                 "mechanism behind Fig 6: without it the unsynchronized "
                 "word-by-word bitonic stops blowing up");
  report::Table t({"mesh", "unsync t/key (ms)", "sync t/key (ms)", "ratio"});
  for (const bool ablated : {false, true}) {
    net::MeshRouterParams p;
    if (ablated) {
      p.backlog_penalty = 0.0;
      p.desync_penalty = 0.0;
    }
    auto m = machines::make_gcel_custom(p, 78);
    const auto keys = keys_for(*m, 1024, 78);
    const auto un = algos::run_bitonic(*m, keys, algos::BitonicVariant::Bsp);
    const auto sy =
        algos::run_bitonic(*m, keys, algos::BitonicVariant::BspSynchronized);
    t.add_row({ablated ? "no backlog penalty (ablated)" : "with backlog penalty",
               report::Table::num(un.time_per_key / 1e3, 1),
               report::Table::num(sy.time_per_key / 1e3, 1),
               report::Table::num(un.time_per_key / sy.time_per_key, 2)});
  }
  t.print(std::cout);
}

void ablate_recv_dominance() {
  report::banner(std::cout, "D. GCel receive-overhead dominance",
                 "mechanism behind Fig 14: with symmetric overheads the "
                 "multinode scatter stops being ~8x cheaper");
  report::Table t({"mesh", "g (µs)", "g_mscat (µs)", "factor"});
  for (const bool ablated : {false, true}) {
    net::MeshRouterParams p;
    if (ablated) {
      // Same total per-message software cost, split evenly.
      const double total = p.o_send + p.o_recv;
      p.o_send = total / 2.0;
      p.o_recv = total / 2.0;
    }
    auto m = machines::make_gcel_custom(p, 79);
    std::vector<int> hs{32, 128, 512};
    const auto full = calibrate::run_full_h_relations(*m, hs, 4, 4);
    const auto sc = calibrate::run_multinode_scatter(*m, hs, 4, 4);
    const double g = calibrate::fit_g_and_l(full).slope;
    const double gm = calibrate::fit_g_mscat(sc).slope;
    t.add_row({ablated ? "symmetric overheads (ablated)" : "recv-dominated",
               report::Table::num(g, 0), report::Table::num(gm, 0),
               report::Table::num(g / gm, 1)});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_env(argc, argv, "");
  ablate_delta_conflicts();
  ablate_hotspot();
  ablate_backlog();
  ablate_recv_dominance();
  return 0;
}
