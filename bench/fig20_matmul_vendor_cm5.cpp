// Fig 20: the model-derived matrix multiplications versus the CMSSL
// `gen_matrix_mult` routine on the CM-5, in Mflops. Surprisingly, the
// model-derived MP-BPRAM version (up to ~372 Mflops, 65% of the 576 Mflops
// non-vector peak) crushes the library routine (never above 151 Mflops).

#include <iostream>

#include "bench_common.hpp"
#include "machines/machine.hpp"
#include "matmul_bench.hpp"
#include "report/ascii_plot.hpp"
#include "report/table.hpp"
#include "vendor/cmssl.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed");
  auto m = bench::make_machine(env, {.platform = machines::Platform::CM5,
                                     .procs = env.procs,
                                     .seed = env.seed != 0 ? env.seed : 1120});

  const std::vector<int> ns = env.quick ? std::vector<int>{256}
                                        : std::vector<int>{64, 128, 256, 512, 1024};

  report::banner(std::cout,
                 "fig20: model matmuls vs CMSSL gen_matrix_mult [cm5]",
                 "paper: MP-BPRAM peaks at 372 Mflops; gen_matrix_mult never "
                 "above 151 (1016 with vector units at N=512)");
  report::Table table({"N", "BSP staggered (Mflops)", "MP-BPRAM (Mflops)",
                       "gen_matrix_mult (Mflops)", "gen_matrix_mult+VU (Mflops)"});
  std::vector<double> xs, bsp_y, bpram_y, vend_y;
  for (const int n : ns) {
    std::cerr << "N=" << n << "...\n";
    const auto word =
        bench::time_matmul<double>(*m, n, algos::MatmulVariant::BspStaggered);
    const auto block =
        bench::time_matmul<double>(*m, n, algos::MatmulVariant::Bpram);
    table.add_row({report::Table::num(n, 0),
                   report::Table::num(word.mflops, 0),
                   report::Table::num(block.mflops, 0),
                   report::Table::num(vendor::cmssl_mflops(n), 0),
                   report::Table::num(vendor::cmssl_vector_mflops(n), 0)});
    xs.push_back(n);
    bsp_y.push_back(word.mflops);
    bpram_y.push_back(block.mflops);
    vend_y.push_back(vendor::cmssl_mflops(n));
  }
  table.print(std::cout);

  std::vector<report::PlotSeries> ps(3);
  ps[0] = {"BSP staggered", '*', xs, bsp_y};
  ps[1] = {"MP-BPRAM", 'o', xs, bpram_y};
  ps[2] = {"CMSSL gen_matrix_mult", '#', xs, vend_y};
  report::PlotOptions opts;
  opts.x_label = "N";
  opts.y_label = "Mflops";
  report::ascii_plot(std::cout, ps, opts);
  return 0;
}
