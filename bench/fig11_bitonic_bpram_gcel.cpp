// Fig 11: measured and estimated times per key of the MP-BPRAM bitonic sort
// on the GCel — the series nearly coincide.

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
  const machines::MachineSpec mspec{.platform = machines::Platform::GCel,
                                    .procs = env.procs,
                                    .seed = env.seed != 0 ? env.seed : 1111};
  auto m = bench::make_machine(env, mspec);
  bench::require_procs(env, algos::check_bitonic_procs, m->procs());

  calibrate::CalibrationOptions copts;
  copts.trials = env.quick ? 3 : 10;
  copts.fit_t_unb = false;
  copts.fit_mscat = false;
  const auto params = calibrate::calibrate(*m, copts);

  bench::SweepSpec spec;
  spec.experiment = "fig11";
  spec.x_label = "keys per node (M)";
  spec.y_label = "time/key (ms)";
  spec.xs = env.quick ? std::vector<double>{512, 4096}
                      : std::vector<double>{256, 512, 1024, 2048, 4096};
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
