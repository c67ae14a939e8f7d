// Fig 18: measured times per key for the MP-BPRAM versions of bitonic sort
// and sample sort on the GCel, plus the "staggered packed" sample sort. The
// paper's point: despite being the best algorithm in theory, sample sort
// does not beat bitonic sort — the single-port send phase is too expensive;
// packing per-bucket messages (violating the single-port restriction) buys
// about a factor of two.

#include <iostream>

#include "algos/bitonic.hpp"
#include "algos/samplesort.hpp"
#include "bench_common.hpp"
#include "machines/machine.hpp"
#include "report/ascii_plot.hpp"
#include "report/table.hpp"
#include "sim/rng.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "procs seed");
  auto m = bench::make_machine(env, {.platform = machines::Platform::GCel,
                                     .procs = env.procs,
                                     .seed = env.seed != 0 ? env.seed : 1118});
  bench::require_procs(env, algos::check_bitonic_procs, m->procs());
  bench::require_procs(env, algos::check_samplesort_procs, m->procs());
  const int S = 64;  // oversampling ratio

  const std::vector<long> ms = env.quick
                                   ? std::vector<long>{1024}
                                   : std::vector<long>{256, 512, 1024, 2048, 4096};

  report::banner(std::cout,
                 "fig18: bitonic vs sample sort (MP-BPRAM) [gcel]",
                 "paper: sample sort does not outperform bitonic; staggered "
                 "packed variant ~2x faster");
  report::Table table({"keys/node (M)", "bitonic t/key (ms)",
                       "sample sort t/key (ms)", "staggered packed t/key (ms)"});
  std::vector<double> xs, b_y, s_y, p_y;
  for (const long mk : ms) {
    std::cerr << "M=" << mk << "...\n";
    sim::Rng rng(900 + mk);
    std::vector<std::uint32_t> keys(static_cast<std::size_t>(mk) *
                                    static_cast<std::size_t>(m->procs()));
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
    const auto bit = algos::run_bitonic(*m, keys, algos::BitonicVariant::Bpram);
    const auto ss =
        algos::run_samplesort(*m, keys, S, algos::SampleSortVariant::Bpram);
    const auto packed = algos::run_samplesort(
        *m, keys, S, algos::SampleSortVariant::StaggeredPacked);
    table.add_row({report::Table::num(static_cast<double>(mk), 0),
                   report::Table::num(bit.time_per_key / 1e3, 2),
                   report::Table::num(ss.time_per_key / 1e3, 2),
                   report::Table::num(packed.time_per_key / 1e3, 2)});
    xs.push_back(static_cast<double>(mk));
    b_y.push_back(bit.time_per_key / 1e3);
    s_y.push_back(ss.time_per_key / 1e3);
    p_y.push_back(packed.time_per_key / 1e3);
  }
  table.print(std::cout);

  std::vector<report::PlotSeries> ps(3);
  ps[0] = {"bitonic (MP-BPRAM)", '*', xs, b_y};
  ps[1] = {"sample sort (MP-BPRAM)", 'o', xs, s_y};
  ps[2] = {"sample sort (staggered packed)", '+', xs, p_y};
  report::PlotOptions opts;
  opts.x_label = "keys per node";
  opts.y_label = "time/key (ms)";
  report::ascii_plot(std::cout, ps, opts);
  return 0;
}
