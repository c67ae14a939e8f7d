// Fig 17: comparison between the MP-BSP and MP-BPRAM versions of bitonic
// sort on the MasPar. The paper measures a factor ~2.1 improvement against
// a theoretical maximum (g+L)/(w*sigma) of ~3.3.

#include <iostream>

#include "algos/bitonic.hpp"
#include "models/params.hpp"
#include "bench_common.hpp"
#include "machines/machine.hpp"
#include "report/ascii_plot.hpp"
#include "report/table.hpp"
#include "sim/rng.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed");
  auto m = bench::make_machine(env, {.platform = machines::Platform::MasPar,
                                     .procs = env.procs,
                                     .seed = env.seed != 0 ? env.seed : 1117});

  const std::vector<long> ms = env.quick ? std::vector<long>{64, 256}
                                         : std::vector<long>{16, 64, 256, 1024};

  report::banner(std::cout, "fig17: MP-BSP vs MP-BPRAM bitonic sort [maspar]",
                 "paper: block transfers ~2.1x faster (max (g+L)/(w*sigma) ~ 3.3)");
  report::Table table({"keys/PE (M)", "MP-BSP t/key (ms)", "MP-BPRAM t/key (ms)",
                       "factor"});
  std::vector<double> xs, word_y, block_y;
  for (const long mk : ms) {
    std::cerr << "M=" << mk << "...\n";
    sim::Rng rng(800 + mk);
    std::vector<std::uint32_t> keys(static_cast<std::size_t>(mk) *
                                    static_cast<std::size_t>(m->procs()));
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
    const auto word = algos::run_bitonic(*m, keys, algos::BitonicVariant::MpBsp);
    const auto block = algos::run_bitonic(*m, keys, algos::BitonicVariant::Bpram);
    table.add_row({report::Table::num(static_cast<double>(mk), 0),
                   report::Table::num(word.time_per_key / 1e3, 2),
                   report::Table::num(block.time_per_key / 1e3, 2),
                   report::Table::num(word.time / block.time, 2)});
    xs.push_back(static_cast<double>(mk));
    word_y.push_back(word.time_per_key / 1e3);
    block_y.push_back(block.time_per_key / 1e3);
  }
  table.print(std::cout);

  const auto t1 = models::table1::maspar();
  std::cout << "theoretical max improvement (g+L)/(w*sigma) = "
            << report::Table::num((t1.bsp.g + t1.bsp.L) /
                                      (t1.bsp.word_bytes * t1.bpram.sigma),
                                  1)
            << "\n";

  std::vector<report::PlotSeries> ps(2);
  ps[0] = {"MP-BSP", '*', xs, word_y};
  ps[1] = {"MP-BPRAM", 'o', xs, block_y};
  report::PlotOptions opts;
  opts.x_label = "keys per PE";
  opts.y_label = "time/key (ms)";
  report::ascii_plot(std::cout, ps, opts);
  return 0;
}
