#include <gtest/gtest.h>

#include <vector>

#include "learn/fit.hpp"
#include "machines/machine.hpp"
#include "predict/apsp_predict.hpp"
#include "predict/bitonic_predict.hpp"
#include "predict/matmul_predict.hpp"
#include "predict/samplesort_predict.hpp"

namespace pcm::predict {
namespace {

using models::BpramParams;
using models::BspParams;

const machines::LocalCompute kCm5 = machines::cm5_compute();
const machines::LocalCompute kMasPar = machines::maspar_compute();
const machines::LocalCompute kGcel = machines::gcel_compute();

TEST(MatmulPredict, BspFormula) {
  // Hand-computed: alpha*N^3/P + beta*N^2/q^2 + 3g N^2/q^2 + 2L.
  BspParams bsp{64, 9.1, 45.0, 8};
  const long n = 256;
  const int q = 4;
  const double n2q2 = 256.0 * 256.0 / 16.0;
  const double expect = kCm5.alpha * 256.0 * 256.0 * 256.0 / 64.0 +
                        kCm5.beta_sum * n2q2 + 3.0 * 9.1 * n2q2 + 2.0 * 45.0;
  EXPECT_NEAR(matmul_bsp(bsp, kCm5, n, q), expect, 1e-6);
}

TEST(MatmulPredict, MpBspChargesLPerStep) {
  BspParams bsp{1000, 32.2, 1400.0, 4};
  const long n = 100;
  const int q = 10;
  const double n2q2 = 100.0;
  const double expect = kMasPar.alpha * 1e6 / 1000.0 + kMasPar.beta_sum * n2q2 +
                        3.0 * (32.2 + 1400.0) * n2q2;
  EXPECT_NEAR(matmul_mp_bsp(bsp, kMasPar, n, q), expect, 1e-6);
}

TEST(MatmulPredict, BpramFormula) {
  BpramParams bpram{64, 0.27, 75.0};
  const long n = 256;
  const int q = 4;
  const double expect = kCm5.alpha * 256.0 * 256.0 * 256.0 / 64.0 +
                        kCm5.beta_sum * 4096.0 +
                        3.0 * 4 * (0.27 * 8 * 256.0 * 256.0 / 64.0 + 75.0);
  EXPECT_NEAR(matmul_bpram(bpram, kCm5, n, q, 8), expect, 1e-6);
}

TEST(MatmulPredict, CacheAwareSubstitution) {
  BspParams bsp{64, 9.1, 45.0, 8};
  const long n = 2048;  // large: cache penalty matters
  const int q = 4;
  const double flat = matmul_bsp(bsp, kCm5, n, q);
  const double aware = with_cache_aware_compute(flat, kCm5, n, q);
  EXPECT_GT(aware, flat);  // cache-aware local time exceeds alpha*N^3/P
  const double mid = matmul_bsp(bsp, kCm5, 256, q);
  const double mid_aware = with_cache_aware_compute(mid, kCm5, 256, q);
  EXPECT_NEAR(mid_aware / mid, 1.0, 0.1);  // no penalty in the sweet spot
}

TEST(BitonicPredict, StepCount) {
  EXPECT_DOUBLE_EQ(bitonic_steps(64), 21.0);    // 0.5*6*7
  EXPECT_DOUBLE_EQ(bitonic_steps(1024), 55.0);  // 0.5*10*11
}

TEST(BitonicPredict, BspAndMpBspFormulas) {
  BspParams bsp{1024, 32.2, 1400.0, 4};
  const long m = 512;
  const double ls = kMasPar.radix_sort_time(m);
  EXPECT_NEAR(bitonic_bsp(bsp, kMasPar, m),
              ls + 55.0 * (kMasPar.merge_per_key * 512.0 + 32.2 * 512.0 + 1400.0),
              1e-6);
  EXPECT_NEAR(bitonic_mp_bsp(bsp, kMasPar, m),
              ls + 55.0 * (kMasPar.merge_per_key * 512.0 + 1432.2 * 512.0),
              1e-6);
}

TEST(BitonicPredict, BpramFormula) {
  BpramParams bpram{64, 9.3, 6900.0};
  const long m = 4096;
  const double expect =
      kGcel.radix_sort_time(m) +
      21.0 * (kGcel.merge_per_key * 4096.0 + 9.3 * 4.0 * 4096.0 + 6900.0);
  EXPECT_NEAR(bitonic_bpram(bpram, kGcel, m, 4, 64), expect, 1e-6);
}

TEST(BitonicPredict, GcelWordVsBlockGapIsHuge) {
  // Section 6: ~2 orders of magnitude at 4K keys per processor.
  BspParams bsp{64, 4480.0, 5100.0, 4};
  BpramParams bpram{64, 9.3, 6900.0};
  const long m = 4096;
  const double word = bitonic_bsp(bsp, kGcel, m);
  const double block = bitonic_bpram(bpram, kGcel, m, 4, 64);
  EXPECT_GT(word / block, 25.0);
}

TEST(SampleSortPredict, ComponentsArePositiveAndOrdered) {
  BpramParams bpram{64, 9.3, 6900.0};
  const auto t = samplesort_bpram(bpram, kGcel, 4096, 64, 5000, 4);
  EXPECT_GT(t.splitter, 0.0);
  EXPECT_GT(t.send, t.sort_buckets);
  EXPECT_NEAR(t.total(), t.splitter + t.send + t.sort_buckets, 1e-9);
}

TEST(SampleSortPredict, SendPhaseDominatedByFixedSizeRouting) {
  // The paper: the send substep alone ~ 16 sigma w N/P µs; bitonic's whole
  // communication ~ 21 sigma w N/P — sample sort cannot win (Fig 18).
  BpramParams bpram{64, 9.3, 6900.0};
  const long m = 8192;
  const auto ss = samplesort_bpram(bpram, kGcel, m, 64, m + m / 4, 4);
  const double bitonic = bitonic_bpram(bpram, kGcel, m, 4, 64);
  EXPECT_GT(ss.total(), 0.75 * bitonic);
}

TEST(ApspPredict, BcastFormulas) {
  BspParams bsp{1024, 32.2, 1400.0, 4};
  // M = 512/32 = 16 < 32: doubling term appears.
  EXPECT_NEAR(apsp_bcast_bsp(bsp, 512),
              2.0 * (32.2 * 16 + 1400.0) + (32.2 + 1400.0) * 1.0, 1e-9);
  EXPECT_NEAR(apsp_bcast_mp_bsp(bsp, 512), 1432.2 * (2.0 * 16 + 1.0), 1e-9);
  // M = 2048/32 = 64 >= 32: no extra term.
  EXPECT_NEAR(apsp_bcast_bsp(bsp, 2048), 2.0 * (32.2 * 64 + 1400.0), 1e-9);
  EXPECT_NEAR(apsp_bcast_mp_bsp(bsp, 2048), 2.0 * 1432.2 * 64, 1e-9);
}

TEST(ApspPredict, EBspUsesTUnb) {
  const auto ebsp = models::table1::maspar().ebsp;
  const long n = 2048;  // M = 64 >= 32
  const double m = 64.0;
  EXPECT_NEAR(apsp_bcast_ebsp(ebsp, n),
              m * ebsp.t_unb(32.0) + m * ebsp.t_unb(1024.0), 1e-6);
  // E-BSP charges less than MP-BSP for the same broadcast (the Fig 12 gap).
  EXPECT_LT(apsp_bcast_ebsp(ebsp, 512),
            apsp_bcast_mp_bsp(ebsp.bsp, 512));
}

TEST(ApspPredict, EBspLocalityUsesTheLocalCurve) {
  auto ebsp = models::table1::maspar().ebsp;
  ebsp.t_unb_local = models::UnbalancedCost{0.3, 5.0, 40.0};
  ebsp.locality = 32;
  const long n = 2048;  // M = 64 >= 32: no doubling term
  const double m = 64.0;
  EXPECT_NEAR(apsp_bcast_ebsp_local(ebsp, n),
              m * ebsp.t_unb(32.0) + m * ebsp.t_unb_local(1024.0), 1e-6);
  // The locality curve sits below the random-pattern curve, so the
  // prediction must be tighter than plain E-BSP.
  EXPECT_LT(apsp_bcast_ebsp_local(ebsp, n), apsp_bcast_ebsp(ebsp, n));
}

TEST(ApspPredict, EBspLocalityDoublingUsesLocalCurveToo) {
  auto ebsp = models::table1::maspar().ebsp;
  ebsp.t_unb_local = models::UnbalancedCost{0.3, 5.0, 40.0};
  ebsp.locality = 32;
  const long n = 512;  // M = 16 < 32: one doubling round at 512 active
  const double m = 16.0;
  EXPECT_NEAR(apsp_bcast_ebsp_local(ebsp, n),
              m * ebsp.t_unb(32.0) + m * ebsp.t_unb_local(1024.0) +
                  ebsp.t_unb_local(512.0),
              1e-6);
}

TEST(ApspPredict, MscatCorrectionShrinksGcelPrediction) {
  const auto ebsp = models::table1::gcel().ebsp;
  for (long n : {128L, 256L, 512L}) {
    EXPECT_LT(apsp_bcast_mscat(ebsp, n), apsp_bcast_bsp(ebsp.bsp, n));
  }
}

TEST(ApspPredict, TotalCombinesComputeAndBcast) {
  BspParams bsp{64, 9.1, 45.0, 8};
  const long n = 256;
  const double bcast = apsp_bcast_bsp(bsp, n);
  EXPECT_NEAR(apsp_bsp(bsp, kCm5, n),
              kCm5.alpha * 256.0 * 256.0 * 256.0 / 64.0 + 2.0 * 256.0 * bcast,
              1e-6);
}

// ----------------------------------------------------------- monotonicity
//
// Property checks: every closed form must grow with the problem size. These
// complement the hand-computed point checks above — a transcription slip in
// a formula (a dropped term, an inverted quotient) usually breaks growth
// before it breaks any single pinned value.

TEST(MatmulPredict, MonotonicInN) {
  BspParams bsp{64, 9.1, 45.0, 8};
  BpramParams bpram{64, 0.27, 75.0};
  const int q = 4;
  for (long n = 64; n <= 2048; n *= 2) {
    EXPECT_LT(matmul_bsp(bsp, kCm5, n, q), matmul_bsp(bsp, kCm5, 2 * n, q))
        << n;
    EXPECT_LT(matmul_mp_bsp(bsp, kCm5, n, q),
              matmul_mp_bsp(bsp, kCm5, 2 * n, q))
        << n;
    EXPECT_LT(matmul_bpram(bpram, kCm5, n, q, 8),
              matmul_bpram(bpram, kCm5, 2 * n, q, 8))
        << n;
  }
}

TEST(BitonicPredict, MonotonicInKeysPerProcessor) {
  BspParams bsp{1024, 32.2, 1400.0, 4};
  BpramParams bpram{64, 9.3, 6900.0};
  for (long m = 64; m <= 8192; m *= 2) {
    EXPECT_LT(bitonic_bsp(bsp, kMasPar, m), bitonic_bsp(bsp, kMasPar, 2 * m))
        << m;
    EXPECT_LT(bitonic_mp_bsp(bsp, kMasPar, m),
              bitonic_mp_bsp(bsp, kMasPar, 2 * m))
        << m;
    EXPECT_LT(bitonic_bpram(bpram, kGcel, m, 4, 64),
              bitonic_bpram(bpram, kGcel, 2 * m, 4, 64))
        << m;
  }
}

TEST(SampleSortPredict, MonotonicInKeysPerProcessor) {
  BpramParams bpram{64, 9.3, 6900.0};
  for (long m = 512; m <= 8192; m *= 2) {
    const double small = samplesort_bpram(bpram, kGcel, m, 64, m + m / 4, 4).total();
    const double big =
        samplesort_bpram(bpram, kGcel, 2 * m, 64, 2 * m + m / 2, 4).total();
    EXPECT_LT(small, big) << m;
  }
}

TEST(ApspPredict, MonotonicInN) {
  // The broadcast formulas switch regimes at M = n/32 = 32 (the doubling
  // term disappears), so growth is only guaranteed within a regime; the
  // *total* prediction is dominated by the n^3 compute term and the n-fold
  // broadcast repetition, and stays monotone across the boundary.
  BspParams bsp{1024, 32.2, 1400.0, 4};
  for (long n = 1024; n <= 8192; n *= 2) {  // M >= 32 throughout
    EXPECT_LT(apsp_bcast_bsp(bsp, n), apsp_bcast_bsp(bsp, 2 * n)) << n;
    EXPECT_LT(apsp_bcast_mp_bsp(bsp, n), apsp_bcast_mp_bsp(bsp, 2 * n)) << n;
  }
  for (long n = 256; n <= 4096; n *= 2) {
    EXPECT_LT(apsp_bsp(bsp, kMasPar, n), apsp_bsp(bsp, kMasPar, 2 * n)) << n;
  }
  const auto ebsp = models::table1::maspar().ebsp;
  for (long n = 1024; n <= 8192; n *= 2) {
    EXPECT_LT(apsp_bcast_ebsp(ebsp, n), apsp_bcast_ebsp(ebsp, 2 * n)) << n;
  }
}

// Asymptotic cross-check via the empirical learner: sample each closed form
// on a geometric grid and confirm learn::fit recovers the dominant exponent
// the formula was derived to have. This is the analytic half of the
// model-drift gate (tools/model_drift) inlined into the predictor tests.

std::vector<double> geometric(double first, int count) {
  std::vector<double> xs;
  for (int i = 0; i < count; ++i, first *= 2.0) xs.push_back(first);
  return xs;
}

template <typename F>
learn::ScalingModel fit_curve(const std::vector<double>& xs, F&& f) {
  std::vector<double> ys;
  ys.reserve(xs.size());
  for (const double x : xs) ys.push_back(f(x));
  return learn::fit(xs, ys);
}

TEST(PredictAsymptotics, MatmulBspIsCubic) {
  BspParams bsp{64, 9.1, 45.0, 8};
  const auto m = fit_curve(geometric(64, 8), [&](double n) {
    return matmul_bsp(bsp, kCm5, static_cast<long>(n), 4);
  });
  ASSERT_TRUE(m.ok);
  EXPECT_DOUBLE_EQ(m.dominant().a, 3.0);
  EXPECT_EQ(m.dominant().b, 0);
}

TEST(PredictAsymptotics, BitonicIsLinearTimesLogSquaredOfP) {
  BspParams bsp{1024, 32.2, 1400.0, 4};
  // In m (keys per processor) at fixed P, the paper's formula is linear...
  const auto in_m = fit_curve(geometric(16, 9), [&](double m) {
    return bitonic_bsp(bsp, kMasPar, static_cast<long>(m));
  });
  ASSERT_TRUE(in_m.ok);
  EXPECT_DOUBLE_EQ(in_m.dominant().a, 1.0);
  EXPECT_EQ(in_m.dominant().b, 0);
  // ...while the step count in P (at fixed m) carries the log^2 signature
  // of the bitonic merge network.
  const auto in_p = fit_curve(geometric(16, 10), [&](double p) {
    BspParams b = bsp;
    b.P = static_cast<int>(p);
    return bitonic_bsp(b, kMasPar, 64);
  });
  ASSERT_TRUE(in_p.ok);
  EXPECT_DOUBLE_EQ(in_p.dominant().a, 0.0);
  EXPECT_EQ(in_p.dominant().b, 2);
}

TEST(PredictAsymptotics, SampleSortIsLinearInKeysPerProcessor) {
  BpramParams bpram{64, 9.3, 6900.0};
  const auto m = fit_curve(geometric(256, 7), [&](double keys) {
    const long k = static_cast<long>(keys);
    return samplesort_bpram(bpram, kGcel, k, 64, k + k / 4, 4).total();
  });
  ASSERT_TRUE(m.ok);
  EXPECT_DOUBLE_EQ(m.dominant().a, 1.0);
  EXPECT_EQ(m.dominant().b, 0);
}

TEST(PredictAsymptotics, ApspIsCubic) {
  BspParams bsp{1024, 32.2, 1400.0, 4};
  const auto m = fit_curve(geometric(1024, 6), [&](double n) {
    return apsp_bsp(bsp, kMasPar, static_cast<long>(n));
  });
  ASSERT_TRUE(m.ok);
  EXPECT_DOUBLE_EQ(m.dominant().a, 3.0);
  EXPECT_EQ(m.dominant().b, 0);
}

}  // namespace
}  // namespace pcm::predict
