// Fig 6: measured and predicted times per key of bitonic sort on the GCel.
// The unsynchronised word-by-word version drifts far above the prediction
// (receiver buffers fill, processors drift out of sync); adding a barrier
// after every 256 messages — the paper's fix — restores the close match.

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
                                    .seed = env.seed != 0 ? env.seed : 1106};
  auto m = bench::make_machine(env, mspec);
  bench::require_procs(env, algos::check_bitonic_procs, m->procs());

  calibrate::CalibrationOptions copts;
  copts.trials = env.quick ? 3 : 10;
  copts.fit_t_unb = false;
  copts.fit_mscat = false;
  const auto params = calibrate::calibrate(*m, copts);

  const std::vector<double> xs =
      env.quick ? std::vector<double>{256, 1024} : std::vector<double>{256, 1024, 4096};

  for (const bool synchronized : {false, true}) {
    bench::SweepSpec spec;
    spec.experiment = "fig06";
    spec.x_label = "keys per node (M)";
    spec.y_label = synchronized ? "time/key (ms, synchronized)"
                                : "time/key (ms, unsynchronized)";
    spec.xs = xs;
    spec.trials = 1;
    bench::apply_env(spec, env, mspec);
    spec.measure = [synchronized](bench::TrialContext& ctx) {
      sim::Rng rng(ctx.cell_seed);
      std::vector<std::uint32_t> keys(
          static_cast<std::size_t>(ctx.x) *
          static_cast<std::size_t>(ctx.machine.procs()));
      for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
      return algos::run_bitonic(ctx.machine, keys,
                                synchronized
                                    ? algos::BitonicVariant::BspSynchronized
                                    : algos::BitonicVariant::Bsp)
          .time_per_key;
    };
    spec.predictors = {{"BSP", [&](double mk) {
      return predict::bitonic_bsp(params.bsp, m->compute(),
                                  static_cast<long>(mk)) /
             mk;
    }}};
    const auto s = exec::run_sweep(spec);
    bench::report(s, 1e-3, false, false, 1);
  }
  return 0;
}
