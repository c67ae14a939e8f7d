#include "predict/matmul_predict.hpp"

namespace pcm::predict {

namespace {

double n2q2(long n, int q) {
  return static_cast<double>(n) * static_cast<double>(n) /
         (static_cast<double>(q) * q);
}

}  // namespace

sim::Micros matmul_compute_term(const machines::LocalCompute& lc, long n,
                                int q, bool cache_aware) {
  const double p = static_cast<double>(q) * q * q;
  if (!cache_aware) {
    return lc.alpha * static_cast<double>(n) * static_cast<double>(n) *
           static_cast<double>(n) / p;
  }
  return lc.matmul_time(n / q, n / q, n / q);
}

sim::Micros matmul_bsp(const models::BspParams& bsp,
                       const machines::LocalCompute& lc, long n, int q) {
  return matmul_compute_term(lc, n, q, false) + lc.beta_sum * n2q2(n, q) +
         3.0 * bsp.g * n2q2(n, q) + 2.0 * bsp.L;
}

sim::Micros matmul_mp_bsp(const models::BspParams& bsp,
                          const machines::LocalCompute& lc, long n, int q) {
  return matmul_compute_term(lc, n, q, false) + lc.beta_sum * n2q2(n, q) +
         3.0 * (bsp.g + bsp.L) * n2q2(n, q);
}

sim::Micros matmul_bpram(const models::BpramParams& bpram,
                         const machines::LocalCompute& lc, long n, int q,
                         int word_bytes) {
  const double p = static_cast<double>(q) * q * q;
  return matmul_compute_term(lc, n, q, false) + lc.beta_sum * n2q2(n, q) +
         3.0 * q *
             (bpram.sigma * word_bytes * static_cast<double>(n) *
                  static_cast<double>(n) / p +
              bpram.ell);
}

sim::Micros with_cache_aware_compute(sim::Micros prediction,
                                     const machines::LocalCompute& lc, long n,
                                     int q) {
  return prediction - matmul_compute_term(lc, n, q, false) +
         matmul_compute_term(lc, n, q, true);
}

}  // namespace pcm::predict
