// Fig 1: time required for routing 1-h relations on the MasPar MP-1.
// 100-trial averages with min/max spread, plus the fitted line (g, L).

#include <iostream>

#include "bench_common.hpp"
#include "calibrate/one_h_relation.hpp"
#include "machines/machine.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed trials");
  auto m = bench::make_machine(env, {.platform = machines::Platform::MasPar,
                                     .procs = env.procs,
                                     .seed = env.seed != 0 ? env.seed : 1101});
  const int trials = env.trials > 0 ? env.trials : (env.quick ? 20 : 100);

  std::vector<int> hs{1, 2, 4, 8, 12, 16, 24, 32, 48, 64};
  const auto sweep = calibrate::run_one_h_relations(*m, hs, trials);
  const auto fit = calibrate::fit_g_and_l(sweep);

  core::ValidationSeries s;
  s.experiment = "fig01";
  s.x_label = "h";
  s.y_label = "time (µs)";
  for (const auto& p : sweep.points) s.points.push_back({p.x, p.stats});
  core::PredictedSeries line{"g*h+L fit", {}};
  for (const auto& p : sweep.points) line.ys.push_back(fit(p.x));
  s.predictions.push_back(std::move(line));

  bench::report(s, 1.0, false, false, 0);
  std::cout << "\nfitted g = " << report::Table::num(fit.slope, 1)
            << " µs (paper 32.2), L = " << report::Table::num(fit.intercept, 0)
            << " µs (paper 1400), r^2 = " << report::Table::num(fit.r2, 3) << "\n";
  return 0;
}
