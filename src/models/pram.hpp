#pragma once

#include "models/params.hpp"

// The PRAM model (Fortune & Wyllie [12]) — the baseline the paper's
// introduction argues against: shared memory, synchronous, *communication is
// free*. Including it lets the validation framework show quantitatively how
// badly a communication-blind model mispredicts on real (simulated)
// machines: a PRAM prediction is just the local-computation term.

namespace pcm::models {

struct PramParams {
  int P = 1;
};

class PramModel {
 public:
  explicit PramModel(PramParams p) : p_(p) {}

  [[nodiscard]] const PramParams& params() const { return p_; }

  /// A PRAM superstep costs only its computation; any number of shared
  /// memory accesses are free.
  [[nodiscard]] sim::Micros superstep(sim::Micros compute, long /*h_send*/,
                                      long /*h_recv*/) const {
    return compute;
  }

  /// PRAM running-time predictions for the paper's algorithms: the
  /// computation terms of Section 4 with every communication term dropped.
  [[nodiscard]] sim::Micros matmul(double alpha, long n) const {
    return alpha * static_cast<double>(n) * static_cast<double>(n) *
           static_cast<double>(n) / p_.P;
  }
  [[nodiscard]] sim::Micros bitonic(sim::Micros local_sort,
                                    sim::Micros merge_per_key, long m_keys,
                                    double steps) const {
    return local_sort + steps * merge_per_key * static_cast<double>(m_keys);
  }
  [[nodiscard]] sim::Micros apsp(double alpha, long n) const {
    return alpha * static_cast<double>(n) * static_cast<double>(n) *
           static_cast<double>(n) / p_.P;
  }

 private:
  PramParams p_;
};

}  // namespace pcm::models
