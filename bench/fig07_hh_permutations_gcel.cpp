// Fig 7: time required for performing h-h permutations (the same random
// permutation h times, chained) versus randomly generated h-relations on the
// GCel under PVM. Without resynchronisation the h-h timings become noisy
// and keep elevating beyond a few hundred steps; a barrier after every 256
// messages eliminates the drop.

#include <iostream>

#include "bench_common.hpp"
#include "calibrate/h_relation.hpp"
#include "calibrate/hh_perm.hpp"
#include "machines/machine.hpp"
#include "report/ascii_plot.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed trials");
  auto m = bench::make_machine(env, {.platform = machines::Platform::GCel,
                                     .procs = env.procs,
                                     .seed = env.seed != 0 ? env.seed : 1107});
  const int trials = env.trials > 0 ? env.trials : (env.quick ? 3 : 8);

  const std::vector<int> hs = env.quick
                                  ? std::vector<int>{50, 200, 600}
                                  : std::vector<int>{50, 100, 200, 300, 400, 500,
                                                     600, 800, 1000};

  std::cerr << "unsynchronized h-h permutations...\n";
  const auto unsync = calibrate::run_hh_permutations(*m, hs, trials, 0);
  std::cerr << "synchronized (barrier every 256)...\n";
  const auto sync = calibrate::run_hh_permutations(*m, hs, trials, 256);
  std::cerr << "random h-relations...\n";
  const auto rnd = calibrate::run_random_relations(*m, hs, std::max(2, trials / 2), 4);

  report::banner(std::cout,
                 "fig07: h-h permutations vs random h-relations [gcel]",
                 "paper: h-h ~25% cheaper; unsynchronized drifts beyond ~300 "
                 "steps; barrier every 256 messages fixes it");

  report::Table table({"h", "h-h unsync (µs)", "min", "max", "h-h sync (µs)",
                       "random h-rel (µs)", "unsync per step", "sync per step"});
  for (std::size_t i = 0; i < hs.size(); ++i) {
    table.add_row({report::Table::num(hs[i], 0),
                   report::Table::num(unsync.points[i].stats.mean, 0),
                   report::Table::num(unsync.points[i].stats.min, 0),
                   report::Table::num(unsync.points[i].stats.max, 0),
                   report::Table::num(sync.points[i].stats.mean, 0),
                   report::Table::num(rnd.points[i].stats.mean, 0),
                   report::Table::num(unsync.points[i].stats.mean / hs[i], 0),
                   report::Table::num(sync.points[i].stats.mean / hs[i], 0)});
  }
  table.print(std::cout);

  std::vector<report::PlotSeries> ps(3);
  ps[0] = {"h-h unsynchronized", '*', unsync.xs(), unsync.means()};
  ps[1] = {"h-h synchronized (256)", 'o', sync.xs(), sync.means()};
  ps[2] = {"random h-relations", '+', rnd.xs(), rnd.means()};
  report::PlotOptions opts;
  opts.x_label = "h";
  opts.y_label = "total time (µs)";
  report::ascii_plot(std::cout, ps, opts);
  return 0;
}
