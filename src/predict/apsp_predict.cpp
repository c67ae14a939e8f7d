#include "predict/apsp_predict.hpp"

#include <cmath>

namespace pcm::predict {

namespace {

double grid_side(int procs) {
  return std::floor(std::sqrt(static_cast<double>(procs)));
}

}  // namespace

sim::Micros apsp_bcast_bsp(const models::BspParams& bsp, long n) {
  const double s = grid_side(bsp.P);
  const double m = static_cast<double>(n) / s;
  sim::Micros t = 2.0 * (bsp.g * m + bsp.L);
  if (m < s) t += (bsp.g + bsp.L) * std::log2(s / m);
  return t;
}

sim::Micros apsp_bcast_mp_bsp(const models::BspParams& bsp, long n) {
  const double s = grid_side(bsp.P);
  const double m = static_cast<double>(n) / s;
  if (m >= s) return 2.0 * (bsp.g + bsp.L) * m;
  return (bsp.g + bsp.L) * (2.0 * m + std::log2(s / m));
}

sim::Micros apsp_bcast_ebsp(const models::EBspParams& ebsp, long n) {
  const double P = static_cast<double>(ebsp.bsp.P);
  const double s = grid_side(ebsp.bsp.P);
  const double m = static_cast<double>(n) / s;
  sim::Micros t = m * ebsp.t_unb(s) + m * ebsp.t_unb(P);
  if (m < s) {
    const int rounds = static_cast<int>(std::log2(s / m));
    for (int i = 0; i < rounds; ++i) {
      t += ebsp.t_unb(std::min(P, std::pow(2.0, i) * static_cast<double>(n)));
    }
  }
  return t;
}

sim::Micros apsp_bcast_mscat(const models::EBspParams& ebsp, long n) {
  const double s = grid_side(ebsp.bsp.P);
  const double m = static_cast<double>(n) / s;
  sim::Micros t = (ebsp.g_mscat * m + ebsp.bsp.L) + (ebsp.bsp.g * m + ebsp.bsp.L);
  if (m < s) t += (ebsp.bsp.g + ebsp.bsp.L) * std::log2(s / m);
  return t;
}

sim::Micros apsp_bcast_ebsp_local(const models::EBspParams& ebsp, long n) {
  const double P = static_cast<double>(ebsp.bsp.P);
  const double s = grid_side(ebsp.bsp.P);
  const double m = static_cast<double>(n) / s;
  // Scatter phase: sqrt(P) spread-out senders per step — random-pattern
  // T_unb applies. All-gather (and doubling) phases: every message stays
  // within its grid row, a block of sqrt(P) consecutive PEs — the fitted
  // locality curve applies, evaluated at full machine activity.
  sim::Micros t = m * ebsp.t_unb(s) + m * ebsp.t_unb_local(P);
  if (m < s) {
    const int rounds = static_cast<int>(std::log2(s / m));
    for (int i = 0; i < rounds; ++i) {
      t += ebsp.t_unb_local(std::min(P, std::pow(2.0, i) * static_cast<double>(n)));
    }
  }
  return t;
}

sim::Micros apsp_total(const machines::LocalCompute& lc, long n, int procs,
                       sim::Micros t_bcast) {
  const double s = grid_side(procs);
  const double used = s * s;
  return lc.alpha * static_cast<double>(n) * static_cast<double>(n) *
             static_cast<double>(n) / used +
         2.0 * static_cast<double>(n) * t_bcast;
}

sim::Micros apsp_bsp(const models::BspParams& bsp,
                     const machines::LocalCompute& lc, long n) {
  return apsp_total(lc, n, bsp.P, apsp_bcast_bsp(bsp, n));
}

sim::Micros apsp_mp_bsp(const models::BspParams& bsp,
                        const machines::LocalCompute& lc, long n) {
  return apsp_total(lc, n, bsp.P, apsp_bcast_mp_bsp(bsp, n));
}

sim::Micros apsp_ebsp(const models::EBspParams& ebsp,
                      const machines::LocalCompute& lc, long n) {
  return apsp_total(lc, n, ebsp.bsp.P, apsp_bcast_ebsp(ebsp, n));
}

sim::Micros apsp_mscat(const models::EBspParams& ebsp,
                       const machines::LocalCompute& lc, long n) {
  return apsp_total(lc, n, ebsp.bsp.P, apsp_bcast_mscat(ebsp, n));
}

sim::Micros apsp_ebsp_local(const models::EBspParams& ebsp,
                            const machines::LocalCompute& lc, long n) {
  return apsp_total(lc, n, ebsp.bsp.P, apsp_bcast_ebsp_local(ebsp, n));
}

}  // namespace pcm::predict
