#include <memory>

#include "machines/machine.hpp"
#include "net/mesh_router.hpp"

// Parsytec GCel (paper Section 3.2): 64 T805 transputers on an 8x8 mesh,
// programmed through HPVM. The barrier cost reflects the software tree
// barrier over the mesh; the fitted BSP L ~ 5100 µs of Table 1 emerges from
// this plus the tail of the store-and-forward delivery.

namespace pcm::machines {

std::unique_ptr<Machine> detail::build_gcel(std::uint64_t seed, int procs) {
  return std::make_unique<Machine>(
      "Parsytec GCel", procs, gcel_compute(),
      std::make_unique<net::MeshRouter>(procs, net::squarest_mesh(procs),
                                        seed ^ 0x5bd1e995u),
      /*barrier_cost=*/3800.0, seed);
}

}  // namespace pcm::machines
