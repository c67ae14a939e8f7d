// Model shoot-out: one workload (bitonic sort), all three platforms, every
// applicable cost model — which model would have told you the truth on
// which machine? A compact rendition of the paper's overall message.

#include <cstdio>

#include "algos/bitonic.hpp"
#include "calibrate/calibrate.hpp"
#include "machines/machine.hpp"
#include "predict/bitonic_predict.hpp"
#include "sim/rng.hpp"

namespace {

void shootout(pcm::machines::Machine& m, pcm::algos::BitonicVariant word_variant,
              long keys_per_node) {
  using namespace pcm;
  sim::Rng rng(31);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(keys_per_node) *
                                  static_cast<std::size_t>(m.procs()));
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());

  calibrate::CalibrationOptions opts;
  opts.trials = 8;
  opts.fit_t_unb = false;
  opts.fit_mscat = false;
  const auto params = calibrate::calibrate(m, opts);

  const auto word = algos::run_bitonic(m, keys, word_variant);
  const auto block = algos::run_bitonic(m, keys, algos::BitonicVariant::Bpram);

  const double word_pred =
      (word_variant == algos::BitonicVariant::MpBsp)
          ? predict::bitonic_mp_bsp(params.bsp, m.compute(), keys_per_node)
          : predict::bitonic_bsp(params.bsp, m.compute(), keys_per_node);
  // Keys are 32-bit; the block-transfer prediction charges sigma per byte.
  const double block_pred = predict::bitonic_bpram(
      params.bpram, m.compute(), keys_per_node, static_cast<int>(sizeof(std::uint32_t)),
      m.procs());

  std::printf("\n== %.*s (g=%.1f, L=%.0f, sigma=%.2f, ell=%.0f) ==\n",
              static_cast<int>(m.name().size()), m.name().data(), params.bsp.g,
              params.bsp.L, params.bpram.sigma, params.bpram.ell);
  std::printf("  %-26s measured %10.0f us/key   predicted %10.0f us/key (%+.0f%%)\n",
              (word_variant == algos::BitonicVariant::MpBsp)
                  ? "words (MP-BSP model)"
                  : "words, barriers (BSP)",
              word.time_per_key,
              word_pred / static_cast<double>(keys_per_node),
              100.0 *
                  (word_pred / static_cast<double>(keys_per_node) -
                   word.time_per_key) /
                  word.time_per_key);
  std::printf("  %-26s measured %10.0f us/key   predicted %10.0f us/key (%+.0f%%)\n",
              "blocks (MP-BPRAM model)", block.time_per_key,
              block_pred / static_cast<double>(keys_per_node),
              100.0 *
                  (block_pred / static_cast<double>(keys_per_node) -
                   block.time_per_key) /
                  block.time_per_key);
  std::printf("  -> both models agree blocks win; gain x%.1f\n",
              word.time / block.time);
}

}  // namespace

int main() {
  using namespace pcm;
  std::printf("Bitonic sort model shoot-out across the Table 1 platforms\n");

  auto maspar = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 21});
  shootout(*maspar, algos::BitonicVariant::MpBsp, 256);

  auto gcel = machines::make_machine({.platform = machines::Platform::GCel, .seed = 22});
  shootout(*gcel, algos::BitonicVariant::BspSynchronized, 1024);

  auto cm5 = machines::make_machine({.platform = machines::Platform::CM5, .seed = 23});
  shootout(*cm5, algos::BitonicVariant::BspSynchronized, 1024);

  std::printf(
      "\nTakeaways (the paper's Section 8): models are usable, but watch for\n"
      "(1) contention-free patterns the model overcharges (MasPar bitonic),\n"
      "(2) unbalanced communication (E-BSP), and (3) the huge word/block gap\n"
      "on machines with expensive per-message software (GCel).\n");
  return 0;
}
