// Fig 12: predicted and measured execution times of the all pairs shortest
// path algorithm on the MasPar. The MP-BSP model overestimates grossly
// (+78% at N = 512 in the paper) because the broadcast's first phase is an
// unbalanced (N, N/sqrt(P), N/P)-relation; the E-BSP prediction built on the
// fitted T_unb is far closer.

#include <iostream>

#include "apsp_bench.hpp"
#include "bench_common.hpp"
#include "calibrate/calibrate.hpp"
#include "machines/machine.hpp"
#include "predict/apsp_predict.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, bench::kSweepFlags);
  const machines::MachineSpec mspec{.platform = machines::Platform::MasPar,
                                    .procs = env.procs,
                                    .seed = env.seed != 0 ? env.seed : 1112};
  auto m = bench::make_machine(env, mspec);

  calibrate::CalibrationOptions copts;
  copts.trials = env.quick ? 5 : 20;
  copts.fit_t_unb = true;  // the E-BSP prediction needs the fitted T_unb
  copts.fit_mscat = false;
  const auto params = calibrate::calibrate(*m, copts);

  bench::SweepSpec spec;
  spec.experiment = "fig12";
  spec.x_label = "N";
  spec.y_label = "time (s)";
  spec.xs = env.quick ? std::vector<double>{128, 256}
                      : std::vector<double>{64, 128, 256, 512};
  spec.trials = 1;
  bench::apply_env(spec, env, mspec);
  spec.measure = [](bench::TrialContext& ctx) {
    return bench::time_apsp(ctx.machine, static_cast<int>(ctx.x),
                            algos::ApspVariant::MpBsp);
  };
  spec.predictors = {
      {"MP-BSP", [&](double n) {
         return predict::apsp_mp_bsp(params.bsp, m->compute(),
                                     static_cast<long>(n));
       }},
      {"E-BSP", [&](double n) {
         return predict::apsp_ebsp(params.ebsp, m->compute(),
                                   static_cast<long>(n));
       }},
      // Extension: E-BSP with the locality half of [17] fitted too — the
      // row-local all-gather charged with T_unb_local.
      {"E-BSP+locality", [&](double n) {
         return predict::apsp_ebsp_local(params.ebsp, m->compute(),
                                         static_cast<long>(n));
       }}};

  const auto s = exec::run_sweep(spec);
  bench::report(s, 1e-6, false, false, 2);
  return 0;
}
