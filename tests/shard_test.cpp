#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>

#include "exec/sweep.hpp"
#include "fault/process_chaos.hpp"
#include "obs/obs.hpp"
#include "shard/shard.hpp"

// The shard layer's merge invariant: run_sharded_sweep(spec) is
// byte-identical to exec::run_sweep(spec) — same series, same failure
// ledger, same metrics — at any worker count, under any seeded schedule of
// worker kills and stalls, and across supervisor resumption. These tests
// drive every supervision path (clean run, chaos kills, heartbeat-stall
// detection, spawn-budget exhaustion into the in-process fallback) and
// assert the invariant each time.

namespace pcm {
namespace {

void expect_bit_identical(const core::ValidationSeries& a,
                          const core::ValidationSeries& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].measured.n, b.points[i].measured.n);
    EXPECT_EQ(a.points[i].measured.min, b.points[i].measured.min);
    EXPECT_EQ(a.points[i].measured.max, b.points[i].measured.max);
    EXPECT_EQ(a.points[i].measured.mean, b.points[i].measured.mean);
    EXPECT_EQ(a.points[i].measured.stddev, b.points[i].measured.stddev);
    EXPECT_EQ(a.points[i].measured.median, b.points[i].measured.median);
  }
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i].model, b.predictions[i].model);
    EXPECT_EQ(a.predictions[i].ys, b.predictions[i].ys);
  }
}

void expect_same_result(const exec::SweepResult& ref,
                        const exec::SweepResult& got) {
  expect_bit_identical(ref.series, got.series);
  ASSERT_EQ(ref.failures.size(), got.failures.size());
  for (std::size_t i = 0; i < ref.failures.size(); ++i) {
    EXPECT_EQ(ref.failures[i].cell, got.failures[i].cell);
    EXPECT_EQ(ref.failures[i].x, got.failures[i].x);
    EXPECT_EQ(ref.failures[i].trial, got.failures[i].trial);
    EXPECT_EQ(ref.failures[i].attempts, got.failures[i].attempts);
    EXPECT_EQ(ref.failures[i].kind, got.failures[i].kind);
    EXPECT_EQ(ref.failures[i].message, got.failures[i].message);
  }
  EXPECT_EQ(ref.metrics, got.metrics);
}

/// A cheap 12-cell grid with one deterministically poisoned cell, so every
/// comparison covers the failure ledger too. Runs real machine supersteps
/// (a barrier) so metric snapshots are non-trivial when obs is on.
exec::SweepSpec grid_spec() {
  exec::SweepSpec spec;
  spec.experiment = "shard-test-grid";
  spec.x_label = "x";
  spec.machine = {.platform = machines::Platform::GCel, .procs = 4,
                  .seed = 99};
  spec.xs = {1, 2, 3, 4};
  spec.trials = 3;
  spec.jobs = 1;
  spec.measure = [](exec::TrialContext& ctx) {
    ctx.machine.barrier();
    if (ctx.x == 2.0 && ctx.trial == 1) {
      throw std::runtime_error("poisoned cell");
    }
    return ctx.x * 10.0 + ctx.trial;
  };
  return spec;
}

/// Small supervision budgets so even the unhappy paths finish in
/// milliseconds, with a liveness deadline generous enough that a healthy
/// worker is never mistaken for a hung one on a loaded CI box.
shard::ShardOptions quick_opts(int workers) {
  shard::ShardOptions opts;
  opts.workers = workers;
  opts.heartbeat_timeout_ms = 5000.0;
  opts.backoff_initial_ms = 5.0;
  opts.backoff_max_ms = 20.0;
  return opts;
}

struct ChaosGuard {
  ~ChaosGuard() { fault::set_process_chaos(std::nullopt); }
};

TEST(ShardedSweep, ByteIdenticalAcrossWorkerCounts) {
  ChaosGuard off;  // make sure no ambient PCM_PROCESS_CHAOS leaks in
  fault::set_process_chaos(std::nullopt);
  const auto ref = exec::run_sweep(grid_spec());
  for (const int workers : {1, 2, 4}) {
    shard::ShardReport report;
    const auto sharded =
        shard::run_sharded_sweep(grid_spec(), quick_opts(workers), &report);
    expect_same_result(ref, sharded);
    if (workers > 1) {
      EXPECT_EQ(report.workers_spawned, report.workers_requested);
      EXPECT_EQ(report.workers_lost, 0);
      EXPECT_EQ(report.cells_fallback, 0u);
      EXPECT_FALSE(report.degraded());
    }
  }
}

TEST(ShardedSweep, ByteIdenticalUnderSeededKillSchedule) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  const auto ref = exec::run_sweep(grid_spec());

  // The first three spawns are certain kills: each incarnation journals
  // exactly one cell, then dies mid-run. Completion must come from
  // restarts picking up where the dead worker's journal left off.
  fault::ProcessChaos chaos;
  chaos.seed = 7;
  chaos.kill_rate = 1.0;
  chaos.max_events = 3;
  fault::set_process_chaos(chaos);

  shard::ShardReport report;
  const auto sharded =
      shard::run_sharded_sweep(grid_spec(), quick_opts(2), &report);
  expect_same_result(ref, sharded);
  EXPECT_GE(report.workers_lost, 3);
  EXPECT_GE(report.workers_restarted, 3);
  EXPECT_GE(report.cells_reassigned, 1u);
  EXPECT_EQ(report.cells_fallback, 0u);
  EXPECT_TRUE(report.degraded());
  // The supervisor heartbeat-gap histogram saw every beat.
  const auto* gap = report.metrics.find("shard.heartbeat_gap_ms");
  ASSERT_NE(gap, nullptr);
  EXPECT_GT(gap->hist.count, 0u);
}

TEST(ShardedSweep, StalledWorkerIsKilledAndReplaced) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  const auto ref = exec::run_sweep(grid_spec());

  // The first spawn goes silent for 10x the liveness deadline; the
  // supervisor must SIGKILL it and finish through the replacement.
  fault::ProcessChaos chaos;
  chaos.seed = 3;
  chaos.stall_rate = 1.0;
  chaos.stall_ms = 1500.0;
  chaos.max_events = 1;
  fault::set_process_chaos(chaos);

  auto opts = quick_opts(2);
  opts.heartbeat_timeout_ms = 150.0;
  shard::ShardReport report;
  const auto sharded = shard::run_sharded_sweep(grid_spec(), opts, &report);
  expect_same_result(ref, sharded);
  EXPECT_GE(report.workers_lost, 1);
  EXPECT_GE(report.workers_restarted, 1);
}

TEST(ShardedSweep, SpawnBudgetExhaustionFallsBackInProcess) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  const auto ref = exec::run_sweep(grid_spec());

  auto opts = quick_opts(4);
  opts.max_total_spawns = 0;  // no forks allowed at all
  shard::ShardReport report;
  const auto sharded = shard::run_sharded_sweep(grid_spec(), opts, &report);
  expect_same_result(ref, sharded);
  EXPECT_EQ(report.workers_spawned, 0);
  EXPECT_EQ(report.cells_fallback, grid_spec().cell_count());
  EXPECT_TRUE(report.degraded());
}

TEST(ShardedSweep, MergedJournalIsResumableByBothEngines) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  const std::string dir = testing::TempDir() + "pcm-shard-test-journal";

  auto spec = grid_spec();
  spec.checkpoint_dir = dir;
  const auto first = shard::run_sharded_sweep(spec, quick_opts(2), nullptr);

  // The supervisor folded all shard journals into the base journal, so a
  // plain in-process --resume (and a sharded one) must skip every cell and
  // reassemble identical output without recomputing anything.
  spec.resume = true;
  spec.measure = [](exec::TrialContext&) -> double {
    throw std::logic_error("resume should not re-run any cell");
  };
  const auto resumed_inproc = exec::run_sweep(spec);
  EXPECT_EQ(resumed_inproc.cells_resumed, spec.cell_count());
  expect_same_result(first, resumed_inproc);

  const auto resumed_sharded =
      shard::run_sharded_sweep(spec, quick_opts(2), nullptr);
  EXPECT_EQ(resumed_sharded.cells_resumed, spec.cell_count());
  expect_same_result(first, resumed_sharded);
}

TEST(ShardedSweep, MetricsSurviveTheProcessBoundary) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  obs::set_enabled(true);
  const auto ref = exec::run_sweep(grid_spec());
  const auto sharded =
      shard::run_sharded_sweep(grid_spec(), quick_opts(4), nullptr);
  obs::set_enabled(false);
  ASSERT_FALSE(ref.metrics.empty());
  // Snapshots crossed the worker->supervisor boundary encoded in the shard
  // journals; the merged totals must still compare exactly.
  EXPECT_EQ(ref.metrics, sharded.metrics);
}

TEST(ProcessChaos, RoundTripsAndDecidesDeterministically) {
  const auto chaos = fault::parse_process_chaos(
      "seed=7:kill=0.5:stall=0.25:stall-ms=300:max=4");
  EXPECT_EQ(chaos.seed, 7u);
  EXPECT_EQ(chaos.kill_rate, 0.5);
  EXPECT_EQ(chaos.stall_rate, 0.25);
  EXPECT_EQ(chaos.stall_ms, 300.0);
  EXPECT_EQ(chaos.max_events, 4);
  EXPECT_EQ(fault::parse_process_chaos(fault::to_string(chaos)), chaos);

  // Decisions are a pure function of (plan, spawn ordinal).
  for (int ord = 0; ord < 16; ++ord) {
    const auto a = chaos.decide(ord);
    const auto b = chaos.decide(ord);
    EXPECT_EQ(a.kill, b.kill) << ord;
    EXPECT_EQ(a.stall, b.stall) << ord;
  }
  // Ordinals at or past max are always quiet.
  EXPECT_TRUE(chaos.decide(4).quiet());
  EXPECT_TRUE(chaos.decide(100).quiet());

  // kill=1 means every eligible ordinal is a kill, never a stall.
  fault::ProcessChaos certain;
  certain.kill_rate = 1.0;
  for (int ord = 0; ord < 8; ++ord) {
    EXPECT_TRUE(certain.decide(ord).kill);
    EXPECT_FALSE(certain.decide(ord).stall);
  }
}

TEST(ProcessChaos, RejectsMalformedSpecs) {
  const char* bad[] = {"seed=", "kill=1.5", "stall=-1", "frobs=3",
                       "kill=0.8:stall=0.9", "seed"};
  for (const char* text : bad) {
    EXPECT_THROW((void)fault::parse_process_chaos(text), std::invalid_argument)
        << text;
  }
}

}  // namespace
}  // namespace pcm
