#include <memory>

#include "machines/machine.hpp"
#include "net/fat_tree.hpp"

// TMC CM-5 (paper Section 3.3): 64 SPARC nodes, fat-tree data network plus
// a dedicated control network for broadcast/scan/barrier — hence the very
// small barrier cost.

namespace pcm::machines {

std::unique_ptr<Machine> detail::build_cm5(std::uint64_t seed, int procs) {
  return std::make_unique<Machine>("TMC CM-5", procs, cm5_compute(),
                                   std::make_unique<net::FatTree>(procs),
                                   /*barrier_cost=*/40.0, seed);
}

}  // namespace pcm::machines
