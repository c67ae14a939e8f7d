// Fig 10: measured and predicted times per key of the MP-BPRAM bitonic sort
// on the MasPar. The model still overestimates (the router is less
// pattern-sensitive for long messages, so less than MP-BSP does in Fig 5).

#include <iostream>

#include "algos/bitonic.hpp"
#include "bench_common.hpp"
#include "calibrate/calibrate.hpp"
#include "machines/machine.hpp"
#include "predict/bitonic_predict.hpp"
#include "sim/rng.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, bench::kSweepFlags);
  const machines::MachineSpec mspec{.platform = machines::Platform::MasPar,
                                    .procs = env.procs,
                                    .seed = env.seed != 0 ? env.seed : 1110};
  auto m = bench::make_machine(env, mspec);

  calibrate::CalibrationOptions copts;
  copts.trials = env.quick ? 5 : 20;
  copts.fit_t_unb = false;
  copts.fit_mscat = false;
  const auto params = calibrate::calibrate(*m, copts);

  bench::SweepSpec spec;
  spec.experiment = "fig10";
  spec.x_label = "keys per PE (M)";
  spec.y_label = "time/key (ms)";
  spec.xs = env.quick ? std::vector<double>{64, 512}
                      : std::vector<double>{16, 64, 256, 1024, 4096};
  spec.trials = 1;
  bench::apply_env(spec, env, mspec);
  spec.measure = [](bench::TrialContext& ctx) {
    sim::Rng rng(ctx.cell_seed);
    std::vector<std::uint32_t> keys(static_cast<std::size_t>(ctx.x) *
                                    static_cast<std::size_t>(ctx.machine.procs()));
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
    return algos::run_bitonic(ctx.machine, keys, algos::BitonicVariant::Bpram)
        .time_per_key;
  };
  spec.predictors = {{"MP-BPRAM", [&](double mk) {
    return predict::bitonic_bpram(params.bpram, m->compute(),
                                  static_cast<long>(mk), m->word_bytes(),
                                  m->procs()) /
           mk;
  }}};

  const auto s = exec::run_sweep(spec);
  bench::report(s, 1e-3, false, false, 2);
  return 0;
}
