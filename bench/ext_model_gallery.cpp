// EXTENSION: five-model gallery. One workload (bitonic sort with block
// transfers) on every platform, predicted by PRAM, BSP, MP-BSP, MP-BPRAM and
// LogGP. PRAM's communication-blindness — the opening argument of the paper
// — is quantified, and the MP-BPRAM/LogGP correspondence (footnote 2) is
// shown numerically.

#include <iostream>

#include "algos/bitonic.hpp"
#include "bench_common.hpp"
#include "calibrate/calibrate.hpp"
#include "machines/machine.hpp"
#include "models/logp.hpp"
#include "models/pram.hpp"
#include "predict/bitonic_predict.hpp"
#include "report/table.hpp"
#include "sim/rng.hpp"

namespace {

using namespace pcm;

void gallery(machines::Machine& m, long keys_per_node) {
  sim::Rng rng(99);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(keys_per_node) *
                                  static_cast<std::size_t>(m.procs()));
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());

  calibrate::CalibrationOptions opts;
  opts.trials = 6;
  opts.fit_t_unb = false;
  opts.fit_mscat = false;
  const auto params = calibrate::calibrate(m, opts);

  const auto run = algos::run_bitonic(m, keys, algos::BitonicVariant::Bpram);
  const double steps = predict::bitonic_steps(m.procs());
  const int w = static_cast<int>(sizeof(std::uint32_t));
  const auto& lc = m.compute();

  // PRAM: local sort + merges, all communication free.
  models::PramModel pram(models::PramParams{m.procs()});
  const double pram_pred =
      pram.bitonic(lc.radix_sort_time(keys_per_node), lc.merge_per_key,
                   keys_per_node, steps);
  // BSP / MP-BSP (word-message formulations applied to this block workload —
  // demonstrating how wrong the short-message models are for it).
  const double bsp_pred = predict::bitonic_bsp(params.bsp, lc, keys_per_node);
  const double mp_bsp_pred = predict::bitonic_mp_bsp(params.bsp, lc, keys_per_node);
  // MP-BPRAM: the right model for this variant.
  const double bpram_pred = predict::bitonic_bpram(params.bpram, lc,
                                                   keys_per_node, w, m.procs());
  // LogGP mapped from the fitted parameters (footnote 2 correspondence).
  const models::LogGPModel loggp(models::loggp_from(params.bsp, params.bpram));
  const double loggp_pred =
      lc.radix_sort_time(keys_per_node) +
      steps * (lc.merge_per_key * static_cast<double>(keys_per_node) +
               loggp.block_step(w * keys_per_node));

  report::banner(std::cout,
                 std::string(m.name()) + " — bitonic (block transfers), " +
                     report::Table::num(static_cast<double>(keys_per_node), 0) +
                     " keys/node",
                 "");
  report::Table t({"model", "predicted (ms)", "measured (ms)", "rel err"});
  auto row = [&](const char* name, double pred) {
    t.add_row({name, report::Table::num(pred / 1e3, 1),
               report::Table::num(run.time / 1e3, 1),
               report::Table::num(100.0 * (pred - run.time) / run.time, 0) + "%"});
  };
  row("PRAM (communication free)", pram_pred);
  row("BSP (word messages)", bsp_pred);
  row("MP-BSP (word messages)", mp_bsp_pred);
  row("MP-BPRAM (blocks)", bpram_pred);
  row("LogGP (blocks, mapped)", loggp_pred);
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed");
  report::banner(std::cout, "EXT: five-model prediction gallery",
                 "PRAM underestimates grossly; word-message models "
                 "overestimate block workloads; MP-BPRAM ~ LogGP (footnote 2)");
  auto maspar = bench::make_machine(env, {.platform = machines::Platform::MasPar,
                                          .procs = env.procs,
                                          .seed = env.seed != 0 ? env.seed : 1401});
  gallery(*maspar, 256);
  auto gcel = bench::make_machine(env, {.platform = machines::Platform::GCel,
                                        .procs = env.procs,
                                        .seed = env.seed != 0 ? env.seed : 1402});
  gallery(*gcel, 1024);
  auto cm5 = bench::make_machine(env, {.platform = machines::Platform::CM5,
                                       .procs = env.procs,
                                       .seed = env.seed != 0 ? env.seed : 1403});
  gallery(*cm5, 1024);
  return 0;
}
