// Fig 13: predicted and measured execution times of APSP on the GCel. The
// plain BSP prediction is far above the measurement; charging the first
// broadcast superstep with the multinode-scatter bandwidth g_mscat
// (Section 5.3) yields a close match.

#include <iostream>

#include "apsp_bench.hpp"
#include "bench_common.hpp"
#include "calibrate/calibrate.hpp"
#include "machines/machine.hpp"
#include "predict/apsp_predict.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, bench::kSweepFlags);
  const machines::MachineSpec mspec{.platform = machines::Platform::GCel,
                                    .procs = env.procs,
                                    .seed = env.seed != 0 ? env.seed : 1113};
  auto m = bench::make_machine(env, mspec);

  calibrate::CalibrationOptions copts;
  copts.trials = env.quick ? 3 : 10;
  copts.fit_t_unb = false;
  copts.fit_mscat = true;  // the corrected prediction needs g_mscat
  const auto params = calibrate::calibrate(*m, copts);

  bench::SweepSpec spec;
  spec.experiment = "fig13";
  spec.x_label = "N";
  spec.y_label = "time (s)";
  spec.xs = env.quick ? std::vector<double>{64, 128}
                      : std::vector<double>{64, 128, 256, 512};
  spec.trials = 1;
  bench::apply_env(spec, env, mspec);
  spec.measure = [](bench::TrialContext& ctx) {
    return bench::time_apsp(ctx.machine, static_cast<int>(ctx.x),
                            algos::ApspVariant::Bsp);
  };
  spec.predictors = {
      {"BSP", [&](double n) {
         return predict::apsp_bsp(params.bsp, m->compute(), static_cast<long>(n));
       }},
      {"BSP+mscat", [&](double n) {
         return predict::apsp_mscat(params.ebsp, m->compute(),
                                    static_cast<long>(n));
       }}};

  const auto s = exec::run_sweep(spec);
  bench::report(s, 1e-6, false, false, 2);
  return 0;
}
