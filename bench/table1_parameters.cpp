// Table 1: the (MP-)BSP and MP-BPRAM parameters of the three platforms,
// recovered by running the paper's Section 3 calibration campaign against
// the machine simulators, next to the published values.

#include <iostream>

#include "bench_common.hpp"
#include "calibrate/calibrate.hpp"
#include "machines/machine.hpp"
#include "models/params.hpp"
#include "report/table.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed trials");

  report::banner(std::cout, "Table 1: model parameters (µs)",
                 "fitted from the simulators vs. the published values");

  report::Table table({"machine", "P", "g fit", "g paper", "L fit", "L paper",
                       "sigma fit", "sigma paper", "ell fit", "ell paper"});

  struct Row {
    std::unique_ptr<machines::Machine> m;
    models::MachineModelParams paper;
  };
  Row rows[3] = {
      {bench::make_machine(env, {.platform = machines::Platform::MasPar,
                                 .procs = env.procs,
                                 .seed = env.seed != 0 ? env.seed : 1001}),
       models::table1::maspar()},
      {bench::make_machine(env, {.platform = machines::Platform::GCel,
                                 .procs = env.procs,
                                 .seed = env.seed != 0 ? env.seed : 1002}),
       models::table1::gcel()},
      {bench::make_machine(env, {.platform = machines::Platform::CM5,
                                 .procs = env.procs,
                                 .seed = env.seed != 0 ? env.seed : 1003}),
       models::table1::cm5()},
  };

  for (auto& row : rows) {
    calibrate::CalibrationOptions opts;
    opts.trials = env.quick ? 5 : (env.trials > 0 ? env.trials : 20);
    opts.fit_t_unb = false;
    opts.fit_mscat = false;
    std::cerr << "calibrating " << row.m->name() << "...\n";
    const auto fit = calibrate::calibrate(*row.m, opts);
    table.add_row({std::string(row.m->name()),
                   report::Table::num(row.m->procs(), 0),
                   report::Table::num(fit.bsp.g, 1),
                   report::Table::num(row.paper.bsp.g, 1),
                   report::Table::num(fit.bsp.L, 0),
                   report::Table::num(row.paper.bsp.L, 0),
                   report::Table::num(fit.bpram.sigma, 2),
                   report::Table::num(row.paper.bpram.sigma, 2),
                   report::Table::num(fit.bpram.ell, 0),
                   report::Table::num(row.paper.bpram.ell, 0)});
  }
  table.print(std::cout);

  // The block-transfer gain indicators the paper quotes (Sections 3.2/3.3).
  report::Table gains({"machine", "g/(w*sigma) paper", "note"});
  gains.add_row({"GCel", report::Table::num(models::block_gain(
                             models::table1::gcel().bsp,
                             models::table1::gcel().bpram), 0),
                 "large messages essential"});
  gains.add_row({"CM-5", report::Table::num(models::block_gain(
                             models::table1::cm5().bsp,
                             models::table1::cm5().bpram), 1),
                 "block transfers much less critical"});
  gains.print(std::cout);
  return 0;
}
