// Fig 5: measured and predicted times per key of bitonic sort (MP-BSP
// version) on the MasPar. The model overestimates by roughly a factor of
// two because the bit-flip exchange pattern routes conflict-free through the
// delta network (~590 µs) while the model charges a general 1-relation
// (g + L ~ 1430 µs).

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
                                    .seed = env.seed != 0 ? env.seed : 1105};
  auto m = bench::make_machine(env, mspec);

  calibrate::CalibrationOptions copts;
  copts.trials = env.quick ? 5 : 20;
  copts.fit_t_unb = false;
  copts.fit_mscat = false;
  const auto params = calibrate::calibrate(*m, copts);

  bench::SweepSpec spec;
  spec.experiment = "fig05";
  spec.x_label = "keys per PE (M)";
  spec.y_label = "time/key (ms)";
  spec.xs = env.quick ? std::vector<double>{16, 64} : std::vector<double>{16, 64, 256, 1024};
  spec.trials = 1;
  bench::apply_env(spec, env, mspec);
  spec.measure = [](bench::TrialContext& ctx) {
    sim::Rng rng(ctx.cell_seed);
    std::vector<std::uint32_t> keys(static_cast<std::size_t>(ctx.x) *
                                    static_cast<std::size_t>(ctx.machine.procs()));
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
    return algos::run_bitonic(ctx.machine, keys, algos::BitonicVariant::MpBsp)
        .time_per_key;
  };
  spec.predictors = {{"MP-BSP", [&](double mk) {
    return predict::bitonic_mp_bsp(params.bsp, m->compute(),
                                   static_cast<long>(mk)) /
           mk;
  }}};

  const auto r = exec::run_sweep(spec);
  const auto& s = r.series;
  bench::report(r, 1e-3, false, false, 1);
  const auto err = core::evaluate(s, "MP-BSP");
  std::cout << "\nmodel/measured factor at the largest M: "
            << report::Table::num(
                   1.0 + err.signed_at_worst >= 1.0
                       ? s.predictions[0].ys.back() / s.points.back().measured.mean
                       : 0.0,
                   2)
            << " (paper: ~2.0)\n";
  return 0;
}
