// EXTENSION (beyond the paper): Cannon's matrix multiplication on the
// MasPar xnet versus the paper's router-based model-derived versions and the
// vendor intrinsic. The paper used the global router exclusively; the xnet's
// nearest-neighbour hops are ~two orders of magnitude cheaper, and Cannon's
// algorithm is pure nearest-neighbour — locality that neither BSP nor the
// MP-BPRAM rewards (the gap that motivates E-BSP's "general locality").

#include <cmath>
#include <iostream>

#include "algos/cannon.hpp"
#include "bench_common.hpp"
#include "machines/maspar_xnet.hpp"
#include "matmul_bench.hpp"
#include "report/ascii_plot.hpp"
#include "report/table.hpp"
#include "vendor/maspar_matmul.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "seed");
  const std::uint64_t seed = env.seed != 0 ? env.seed : 1301;
  auto mx = machines::make_maspar_xnet(seed);
  auto mr = machines::make_machine(
      {.platform = machines::Platform::MasPar, .seed = seed});

  // Cannon wants N % 32 == 0; the router algorithm wants N % 100 == 0.
  // Use nearby sizes and compare in Mflops.
  struct SizePair {
    int cannon_n;
    int router_n;
  };
  const std::vector<SizePair> sizes =
      env.quick ? std::vector<SizePair>{{320, 300}}
                : std::vector<SizePair>{{96, 100}, {320, 300}, {512, 500}, {704, 700}};

  report::banner(std::cout,
                 "EXT: Cannon on the xnet vs router-based matmuls [maspar]",
                 "extension beyond the paper (it used the router only); "
                 "nearest-neighbour locality is invisible to BSP/MP-BPRAM");
  report::Table t({"N (cannon/router)", "Cannon+xnet (Mflops)",
                   "Cannon predicted (Mflops)", "MP-BPRAM router (Mflops)",
                   "matmul intrinsic (Mflops)"});
  std::vector<double> xs, cy, ry, vy;
  for (const auto& sp : sizes) {
    std::cerr << "N=" << sp.cannon_n << "...\n";
    const auto a = bench::random_square<float>(sp.cannon_n, 31);
    const auto b = bench::random_square<float>(sp.cannon_n, 32);
    const auto cannon = algos::run_cannon<float>(*mx, a, b, sp.cannon_n);
    const double cannon_pred_mflops =
        2.0 * std::pow(static_cast<double>(sp.cannon_n), 3) /
        algos::predict_cannon(*mx, sp.cannon_n, 4);
    const auto bpram = bench::time_matmul<float>(*mr, sp.router_n,
                                                 algos::MatmulVariant::Bpram);
    t.add_row({report::Table::num(sp.cannon_n, 0) + "/" +
                   report::Table::num(sp.router_n, 0),
               report::Table::num(cannon.mflops, 1),
               report::Table::num(cannon_pred_mflops, 1),
               report::Table::num(bpram.mflops, 1),
               report::Table::num(vendor::maspar_matmul_mflops(sp.router_n), 1)});
    xs.push_back(sp.cannon_n);
    cy.push_back(cannon.mflops);
    ry.push_back(bpram.mflops);
    vy.push_back(vendor::maspar_matmul_mflops(sp.router_n));
  }
  t.print(std::cout);

  std::vector<report::PlotSeries> ps(3);
  ps[0] = {"Cannon + xnet", '*', xs, cy};
  ps[1] = {"MP-BPRAM + router", 'o', xs, ry};
  ps[2] = {"vendor intrinsic", '#', xs, vy};
  report::PlotOptions opts;
  opts.x_label = "N";
  opts.y_label = "Mflops";
  report::ascii_plot(std::cout, ps, opts);

  std::cout << "\nReading: Cannon narrows (or closes) the gap to the vendor\n"
               "intrinsic that Fig 19 reports for the portable router-based\n"
               "versions — but no BSP/MP-BPRAM cost formula predicts it,\n"
               "because those models have no notion of neighbour locality.\n";
  return 0;
}
