// Fig 4: measured vs. predicted performance of the BSP matrix multiply on
// the CM-5. The initial (unstaggered) implementation converges on single
// destinations and runs ~21% above the prediction at N = 256; staggering the
// communication restores the close match. At small and large N the residual
// error is local computation (cache effects not captured by the flat alpha).

#include <iostream>

#include "bench_common.hpp"
#include "calibrate/calibrate.hpp"
#include "machines/machine.hpp"
#include "matmul_bench.hpp"
#include "predict/matmul_predict.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, bench::kSweepFlags);
  const machines::MachineSpec mspec{.platform = machines::Platform::CM5,
                                    .procs = env.procs,
                                    .seed = env.seed != 0 ? env.seed : 1104};
  auto m = bench::make_machine(env, mspec);
  const int q = algos::matmul_q(*m);

  calibrate::CalibrationOptions copts;
  copts.trials = env.quick ? 3 : 10;
  copts.fit_t_unb = false;
  copts.fit_mscat = false;
  const auto params = calibrate::calibrate(*m, copts);

  std::vector<double> xs = env.quick ? std::vector<double>{64, 128, 256}
                                     : std::vector<double>{64, 128, 256, 512, 1024};

  // Measure both schedules; report as two "experiments" sharing the BSP
  // prediction so the staggering effect is explicit.
  for (const bool staggered : {false, true}) {
    bench::SweepSpec spec;
    spec.experiment = "fig04";
    spec.x_label = "N";
    spec.y_label = staggered ? "time (ms, staggered)" : "time (ms, unstaggered)";
    spec.xs = xs;
    spec.trials = 1;
    bench::apply_env(spec, env, mspec);
    spec.measure = [staggered](bench::TrialContext& ctx) {
      return bench::time_matmul<double>(ctx.machine, static_cast<int>(ctx.x),
                                        staggered
                                            ? algos::MatmulVariant::BspStaggered
                                            : algos::MatmulVariant::BspUnstaggered)
          .time;
    };
    spec.predictors = {
        {"BSP", [&](double n) {
           return predict::matmul_bsp(params.bsp, m->compute(),
                                      static_cast<long>(n), q);
         }},
        {"BSP+cache", [&](double n) {
           return predict::with_cache_aware_compute(
               predict::matmul_bsp(params.bsp, m->compute(),
                                   static_cast<long>(n), q),
               m->compute(), static_cast<long>(n), q);
         }}};
    const auto s = exec::run_sweep(spec);
    bench::report(s, 1e-3, false, false, 1);
  }
  return 0;
}
