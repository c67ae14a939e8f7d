// Fig 9: measured and predicted performance of the MP-BPRAM matrix
// multiplication on the CM-5. The prediction is accurate provided the local
// computation is modelled cache-consciously (the "+cache" series).

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
                                    .seed = env.seed != 0 ? env.seed : 1109};
  auto m = bench::make_machine(env, mspec);
  const int q = algos::matmul_q(*m);

  calibrate::CalibrationOptions copts;
  copts.trials = env.quick ? 3 : 10;
  copts.fit_t_unb = false;
  copts.fit_mscat = false;
  const auto params = calibrate::calibrate(*m, copts);

  bench::SweepSpec spec;
  spec.experiment = "fig09";
  spec.x_label = "N";
  spec.y_label = "time (ms)";
  spec.xs = env.quick ? std::vector<double>{64, 256}
                      : std::vector<double>{64, 128, 256, 512, 1024};
  spec.trials = 1;
  bench::apply_env(spec, env, mspec);
  spec.measure = [](bench::TrialContext& ctx) {
    return bench::time_matmul<double>(ctx.machine, static_cast<int>(ctx.x),
                                      algos::MatmulVariant::Bpram)
        .time;
  };
  spec.predictors = {
      {"MP-BPRAM", [&](double n) {
         return predict::matmul_bpram(params.bpram, m->compute(),
                                      static_cast<long>(n), q, m->word_bytes());
       }},
      {"MP-BPRAM+cache", [&](double n) {
         return predict::with_cache_aware_compute(
             predict::matmul_bpram(params.bpram, m->compute(),
                                   static_cast<long>(n), q, m->word_bytes()),
             m->compute(), static_cast<long>(n), q);
       }}};

  const auto s = exec::run_sweep(spec);
  bench::report(s, 1e-3, false, false, 1);
  return 0;
}
