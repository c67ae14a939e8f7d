// Fig 3: measured vs. predicted performance of the MP-BSP matrix
// multiplication on the MasPar (q = 10, 1000 PEs). The prediction uses the
// parameters fitted by the Fig 1 calibration, exactly as the paper did; the
// residual error is the 1-1 relation overcharge (g+L vs the ~1300 µs a full
// permutation actually takes).

#include <iostream>

#include "bench_common.hpp"
#include "calibrate/calibrate.hpp"
#include "machines/machine.hpp"
#include "matmul_bench.hpp"
#include "predict/matmul_predict.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, bench::kSweepFlags);
  const machines::MachineSpec mspec{.platform = machines::Platform::MasPar,
                                    .procs = env.procs,
                                    .seed = env.seed != 0 ? env.seed : 1103};
  auto m = bench::make_machine(env, mspec);
  const int q = algos::matmul_q(*m);

  calibrate::CalibrationOptions copts;
  copts.trials = env.quick ? 5 : 20;
  copts.fit_t_unb = false;
  copts.fit_mscat = false;
  const auto params = calibrate::calibrate(*m, copts);

  bench::SweepSpec spec;
  spec.experiment = "fig03";
  spec.x_label = "N";
  spec.y_label = "time (s)";
  spec.xs = env.quick ? std::vector<double>{100, 200, 300}
                      : std::vector<double>{100, 200, 300, 400, 500};
  spec.trials = 1;
  bench::apply_env(spec, env, mspec);
  spec.measure = [](bench::TrialContext& ctx) {
    return bench::time_matmul<float>(ctx.machine, static_cast<int>(ctx.x),
                                     algos::MatmulVariant::MpBsp)
        .time;
  };
  spec.predictors = {
      {"MP-BSP", [&](double n) {
         return predict::matmul_mp_bsp(params.bsp, m->compute(),
                                       static_cast<long>(n), q);
       }}};

  const auto s = exec::run_sweep(spec);
  bench::report(s, 1e-6, false, false, 2);
  return 0;
}
