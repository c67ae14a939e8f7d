// Fig 16: comparison between the (staggered) BSP and MP-BPRAM versions of
// the matrix multiply on the CM-5, in Mflops. The long-message version wins
// by ~43% at N = 512 even though g/(w*sigma) is only ~4.2, because the
// communication term shrinks relative to the arithmetic.

#include <iostream>

#include "bench_common.hpp"
#include "machines/machine.hpp"
#include "matmul_bench.hpp"
#include "report/ascii_plot.hpp"
#include "report/table.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed");
  auto m = bench::make_machine(env, {.platform = machines::Platform::CM5,
                                     .procs = env.procs,
                                     .seed = env.seed != 0 ? env.seed : 1116});

  const std::vector<int> ns = env.quick ? std::vector<int>{128, 256}
                                        : std::vector<int>{64, 128, 256, 512, 1024};

  report::banner(std::cout, "fig16: BSP vs MP-BPRAM matrix multiply [cm5]",
                 "paper: 366 vs 256 Mflops at N=512 (+43%); max gain "
                 "g/(w*sigma) ~ 4.2");
  report::Table table({"N", "BSP staggered (Mflops)", "MP-BPRAM (Mflops)",
                       "improvement"});
  std::vector<double> xs, bsp_y, bpram_y;
  for (const int n : ns) {
    std::cerr << "N=" << n << "...\n";
    const auto word =
        bench::time_matmul<double>(*m, n, algos::MatmulVariant::BspStaggered);
    const auto block =
        bench::time_matmul<double>(*m, n, algos::MatmulVariant::Bpram);
    table.add_row({report::Table::num(n, 0),
                   report::Table::num(word.mflops, 0),
                   report::Table::num(block.mflops, 0),
                   report::Table::num(100.0 * (word.time / block.time - 1.0), 0) + "%"});
    xs.push_back(n);
    bsp_y.push_back(word.mflops);
    bpram_y.push_back(block.mflops);
  }
  table.print(std::cout);

  std::vector<report::PlotSeries> ps(2);
  ps[0] = {"BSP staggered", '*', xs, bsp_y};
  ps[1] = {"MP-BPRAM", 'o', xs, bpram_y};
  report::PlotOptions opts;
  opts.x_label = "N";
  opts.y_label = "Mflops";
  report::ascii_plot(std::cout, ps, opts);
  return 0;
}
