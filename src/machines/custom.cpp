#include "machines/custom.hpp"

namespace pcm::machines {

std::unique_ptr<Machine> make_maspar_custom(const net::DeltaRouterParams& params,
                                            std::uint64_t seed, int procs) {
  return std::make_unique<Machine>(
      "MasPar MP-1 (custom)", procs, maspar_compute(),
      std::make_unique<net::DeltaRouter>(procs, params), 0.0, seed);
}

std::unique_ptr<Machine> make_gcel_custom(const net::MeshRouterParams& params,
                                          std::uint64_t seed) {
  const int procs = params.width * params.height;
  return std::make_unique<Machine>(
      "Parsytec GCel (custom)", procs, gcel_compute(),
      std::make_unique<net::MeshRouter>(procs, params, seed ^ 0x5bd1e995u),
      3800.0, seed);
}

std::unique_ptr<Machine> make_cm5_custom(const net::FatTreeParams& params,
                                         std::uint64_t seed, int procs) {
  return std::make_unique<Machine>(
      "TMC CM-5 (custom)", procs, cm5_compute(),
      std::make_unique<net::FatTree>(procs, params), 40.0, seed);
}

}  // namespace pcm::machines
