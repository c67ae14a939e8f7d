// Fig 14: comparison of the total times taken by full h-relations and by
// multinode scatter operations on the GCel — the scatter is up to ~9x
// cheaper per message (g_mscat vs g).

#include <iostream>

#include "bench_common.hpp"
#include "calibrate/h_relation.hpp"
#include "calibrate/mscat.hpp"
#include "machines/machine.hpp"
#include "report/ascii_plot.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed trials");
  auto m = bench::make_machine(env, {.platform = machines::Platform::GCel,
                                     .procs = env.procs,
                                     .seed = env.seed != 0 ? env.seed : 1114});
  const int trials = env.trials > 0 ? env.trials : (env.quick ? 3 : 10);

  const std::vector<int> hs = env.quick
                                  ? std::vector<int>{32, 128, 512}
                                  : std::vector<int>{16, 32, 64, 128, 256, 512, 1024};

  std::cerr << "full h-relations...\n";
  const auto full = calibrate::run_full_h_relations(*m, hs, trials, 4);
  std::cerr << "multinode scatter...\n";
  const auto sc = calibrate::run_multinode_scatter(*m, hs, trials, 4);

  const auto g_fit = calibrate::fit_g_and_l(full);
  const auto mscat_fit = calibrate::fit_g_mscat(sc);

  report::banner(std::cout, "fig14: full h-relations vs multinode scatter [gcel]",
                 "paper: g ~ 4480 µs, g_mscat ~ 492 µs (factor up to 9.1)");
  report::Table table({"h", "full h-relation (µs)", "multinode scatter (µs)",
                       "ratio"});
  for (std::size_t i = 0; i < hs.size(); ++i) {
    table.add_row({report::Table::num(hs[i], 0),
                   report::Table::num(full.points[i].stats.mean, 0),
                   report::Table::num(sc.points[i].stats.mean, 0),
                   report::Table::num(full.points[i].stats.mean /
                                          sc.points[i].stats.mean,
                                      2)});
  }
  table.print(std::cout);
  std::cout << "fitted g = " << report::Table::num(g_fit.slope, 0)
            << " µs (paper 4480), g_mscat = "
            << report::Table::num(mscat_fit.slope, 0)
            << " µs (paper 492), factor = "
            << report::Table::num(g_fit.slope / mscat_fit.slope, 1)
            << " (paper up to 9.1)\n";

  std::vector<report::PlotSeries> ps(2);
  ps[0] = {"full h-relations", '*', full.xs(), full.means()};
  ps[1] = {"multinode scatter", 'o', sc.xs(), sc.means()};
  report::PlotOptions opts;
  opts.x_label = "h";
  opts.y_label = "total time (µs)";
  report::ascii_plot(std::cout, ps, opts);
  return 0;
}
