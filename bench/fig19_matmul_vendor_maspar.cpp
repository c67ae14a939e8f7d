// Fig 19: the model-derived matrix multiplications versus the vendor
// `matmul` intrinsic on the MasPar, in Mflops. The intrinsic wins everywhere
// (61.7 vs 39.9 Mflops at N = 700 — a ~35% penalty the paper calls
// acceptable for portable, model-derived code).

#include <iostream>

#include "bench_common.hpp"
#include "machines/machine.hpp"
#include "matmul_bench.hpp"
#include "report/ascii_plot.hpp"
#include "report/table.hpp"
#include "vendor/maspar_matmul.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed");
  auto m = bench::make_machine(env, {.platform = machines::Platform::MasPar,
                                     .procs = env.procs,
                                     .seed = env.seed != 0 ? env.seed : 1119});

  const std::vector<int> ns = env.quick ? std::vector<int>{300}
                                        : std::vector<int>{100, 300, 500, 700};

  report::banner(std::cout,
                 "fig19: model matmuls vs `matmul` intrinsic [maspar]",
                 "paper: intrinsic 61.7 Mflops at N=700, MP-BPRAM version "
                 "39.9 (penalty ~35%); peak 75 Mflops");
  report::Table table({"N", "MP-BSP (Mflops)", "MP-BPRAM (Mflops)",
                       "matmul intrinsic (Mflops)", "penalty vs intrinsic"});
  std::vector<double> xs, mpbsp_y, bpram_y, vendor_y;
  for (const int n : ns) {
    std::cerr << "N=" << n << "...\n";
    const auto word = bench::time_matmul<float>(*m, n, algos::MatmulVariant::MpBsp);
    const auto block = bench::time_matmul<float>(*m, n, algos::MatmulVariant::Bpram);
    const double vend = vendor::maspar_matmul_mflops(n);
    table.add_row({report::Table::num(n, 0),
                   report::Table::num(word.mflops, 1),
                   report::Table::num(block.mflops, 1),
                   report::Table::num(vend, 1),
                   report::Table::num(100.0 * (1.0 - block.mflops / vend), 0) + "%"});
    xs.push_back(n);
    mpbsp_y.push_back(word.mflops);
    bpram_y.push_back(block.mflops);
    vendor_y.push_back(vend);
  }
  table.print(std::cout);

  std::vector<report::PlotSeries> ps(3);
  ps[0] = {"MP-BSP", '*', xs, mpbsp_y};
  ps[1] = {"MP-BPRAM", 'o', xs, bpram_y};
  ps[2] = {"matmul intrinsic", '#', xs, vendor_y};
  report::PlotOptions opts;
  opts.x_label = "N";
  opts.y_label = "Mflops";
  report::ascii_plot(std::cout, ps, opts);
  return 0;
}
