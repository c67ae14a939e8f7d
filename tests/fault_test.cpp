#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.hpp"
#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "machines/machine.hpp"
#include "runtime/exchange.hpp"
#include "sim/rng.hpp"

// pcm::fault: the deterministic fault-injection plane and the resilient
// sweep machinery built on top of it. The tests pin (a) the FaultPlan spec
// grammar, (b) every fault kind's observable effect on each of the paper's
// three machines, (c) that injected events are a pure function of
// (plan, machine seed, trial) — so faulted sweeps stay bit-identical across
// --jobs — and (d) the watchdog/retry/checkpoint round-trip.

namespace pcm {
namespace {

/// RAII: install a fault plan for one test and clear the process-global
/// plan on exit, whatever happens. Machines read the plan at construction,
/// so every test builds its machines *after* the ScopedPlan.
struct ScopedPlan {
  explicit ScopedPlan(const std::string& spec) {
    fault::set_plan(fault::parse_fault_plan(spec));
  }
  ~ScopedPlan() { fault::set_plan(std::nullopt); }
};

constexpr machines::Platform kPlatforms[] = {
    machines::Platform::MasPar, machines::Platform::GCel,
    machines::Platform::CM5};

std::unique_ptr<machines::Machine> small_machine(machines::Platform p) {
  const int procs = p == machines::Platform::MasPar ? 64 : 16;
  return machines::make_machine({.platform = p, .procs = procs, .seed = 7});
}

/// One neighbour exchange (every PE sends 4 words to its successor),
/// followed by a barrier. Returns the total elements delivered.
std::size_t ring_exchange(machines::Machine& m,
                          runtime::TransferMode mode =
                              runtime::TransferMode::Word) {
  runtime::Exchange<std::uint32_t> ex(m, mode);
  for (int p = 0; p < m.procs(); ++p) {
    ex.send(p, (p + 1) % m.procs(),
            std::vector<std::uint32_t>{1u, 2u, 3u, 4u});
  }
  auto box = ex.run();
  std::size_t n = 0;
  for (int p = 0; p < m.procs(); ++p) n += box.count_at(p);
  m.barrier();
  return n;
}

// ------------------------------------------------------------ plan grammar

TEST(FaultPlan, RoundTripsThroughString) {
  const char* specs[] = {
      "drop:rate=0.05:seed=7",
      "dup:rate=1:seed=3",
      "dead-channel:rate=0.25:severity=3:seed=9:from=2:to=9",
      "corrupt:rate=0.5:seed=11",
      "straggler:rate=0.125:severity=8:seed=1",
      "barrier-stall:rate=0.01:severity=250:seed=5:from=1",
  };
  for (const char* spec : specs) {
    const auto plan = fault::parse_fault_plan(spec);
    EXPECT_EQ(fault::parse_fault_plan(fault::to_string(plan)), plan) << spec;
  }
}

TEST(FaultPlan, ParseRejectsGarbage) {
  const char* bad[] = {
      "gremlins",            // unknown kind
      "drop:rate=1.5",       // rate out of range
      "drop:rate=-0.1",      // negative rate
      "drop:rate=0.1x",      // trailing garbage
      "drop:frequency=0.1",  // unknown field
      "drop:rate",           // field without '='
      "straggler:severity=-2",
      "drop:from=9:to=3",    // empty window
      "drop:seed=18446744073709551616",  // u64 overflow
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)fault::parse_fault_plan(spec), std::invalid_argument)
        << spec;
  }
}

TEST(FaultPlan, SeverityDefaultsResolvePerKind) {
  EXPECT_EQ(fault::parse_fault_plan("straggler").resolved_severity(), 4.0);
  EXPECT_EQ(fault::parse_fault_plan("barrier-stall").resolved_severity(),
            5000.0);
  EXPECT_EQ(fault::parse_fault_plan("dead-channel").resolved_severity(), 2.0);
  EXPECT_EQ(fault::parse_fault_plan("drop").resolved_severity(), 0.0);
  EXPECT_EQ(
      fault::parse_fault_plan("straggler:severity=9").resolved_severity(),
      9.0);
}

// ------------------------------------------- fault kinds on every machine

TEST(FaultInjection, NoPlanMeansNoInjector) {
  for (const auto platform : kPlatforms) {
    auto m = small_machine(platform);
    EXPECT_EQ(m->injector(), nullptr);
    EXPECT_EQ(ring_exchange(*m), static_cast<std::size_t>(m->procs()) * 4u);
  }
}

TEST(FaultInjection, DropAtRateOneLosesEverything) {
  const ScopedPlan plan("drop:rate=1:seed=3");
  for (const auto platform : kPlatforms) {
    auto m = small_machine(platform);
    ASSERT_NE(m->injector(), nullptr);
    EXPECT_EQ(ring_exchange(*m), 0u);
    EXPECT_GT(m->injector()->counters().dropped, 0);
  }
}

TEST(FaultInjection, DuplicateAtRateOneDeliversTwice) {
  const ScopedPlan plan("dup:rate=1:seed=3");
  for (const auto platform : kPlatforms) {
    auto m = small_machine(platform);
    EXPECT_EQ(ring_exchange(*m), static_cast<std::size_t>(m->procs()) * 8u);
  }
}

TEST(FaultInjection, DeadChannelsSilenceTheirPEs) {
  const ScopedPlan plan("dead-channel:rate=1:seed=3");
  for (const auto platform : kPlatforms) {
    auto m = small_machine(platform);
    EXPECT_EQ(ring_exchange(*m), 0u);  // every channel dead
  }
}

TEST(FaultInjection, BlockModeDropsAndDuplicatesWholeParcels) {
  {
    const ScopedPlan plan("drop:rate=1:seed=5");
    auto m = small_machine(machines::Platform::CM5);
    EXPECT_EQ(ring_exchange(*m, runtime::TransferMode::Block), 0u);
  }
  {
    const ScopedPlan plan("dup:rate=1:seed=5");
    auto m = small_machine(machines::Platform::CM5);
    EXPECT_EQ(ring_exchange(*m, runtime::TransferMode::Block),
              static_cast<std::size_t>(m->procs()) * 8u);
  }
}

TEST(FaultInjection, CorruptFlipsOneBitAndFlagsTheParcel) {
  const ScopedPlan plan("corrupt:rate=1:seed=3");
  for (const auto platform : kPlatforms) {
    auto m = small_machine(platform);
    runtime::Exchange<std::uint32_t> ex(*m, runtime::TransferMode::Word);
    for (int p = 0; p < m->procs(); ++p) {
      ex.send(p, (p + 1) % m->procs(),
              std::vector<std::uint32_t>{1u, 2u, 3u, 4u});
    }
    auto box = ex.run();
    std::size_t elements = 0;
    for (int p = 0; p < m->procs(); ++p) elements += box.count_at(p);
    // Byte counts are conserved — corruption is a data fault, not a loss —
    // but every parcel is flagged and differs from what was sent.
    EXPECT_EQ(elements, static_cast<std::size_t>(m->procs()) * 4u);
    EXPECT_EQ(box.corrupted_count(), static_cast<std::size_t>(m->procs()));
    const std::vector<std::uint32_t> sent{1u, 2u, 3u, 4u};
    for (const auto& parcel : box.at(0)) {
      EXPECT_TRUE(parcel.corrupted);
      EXPECT_NE(parcel.data, sent);
    }
  }
}

TEST(FaultInjection, StragglersMultiplyComputeCharges) {
  const ScopedPlan plan("straggler:rate=1:severity=3:seed=3");
  for (const auto platform : kPlatforms) {
    auto m = small_machine(platform);
    m->charge(0, 10.0);
    EXPECT_EQ(m->now(0), 30.0);
    m->charge_all(2.0);
    EXPECT_EQ(m->now(0), 36.0);
    EXPECT_EQ(m->now(1), 6.0);
  }
}

TEST(FaultInjection, BarrierStallAddsSeverityMicros) {
  for (const auto platform : kPlatforms) {
    double base = 0.0;
    {
      auto m = small_machine(platform);
      m->barrier();
      base = m->now();
    }
    const ScopedPlan plan("barrier-stall:rate=1:severity=500:seed=3");
    auto m = small_machine(platform);
    m->barrier();
    EXPECT_EQ(m->now(), base + 500.0);
    EXPECT_GT(m->injector()->counters().stalls, 0);
  }
}

TEST(FaultInjection, SuperstepWindowGatesInjection) {
  const ScopedPlan plan("drop:rate=1:seed=3:from=1");
  auto m = small_machine(machines::Platform::GCel);
  const auto full = static_cast<std::size_t>(m->procs()) * 4u;
  EXPECT_EQ(ring_exchange(*m), full);  // superstep 0: before the window
  EXPECT_EQ(ring_exchange(*m), 0u);    // superstep 1: inside it
}

TEST(FaultInjection, ComposesWithAuditConservation) {
  audit::set_enabled(true);
  {
    const ScopedPlan plan("drop:rate=0.5:seed=9");
    auto m = small_machine(machines::Platform::CM5);
    EXPECT_NO_THROW((void)ring_exchange(*m));
  }
  {
    const ScopedPlan plan("dup:rate=0.5:seed=9");
    auto m = small_machine(machines::Platform::CM5);
    EXPECT_NO_THROW((void)ring_exchange(*m));
  }
  audit::set_enabled(false);
}

// ------------------------------------------------------------- determinism

TEST(FaultInjection, EventsAreAPureFunctionOfPlanSeedAndTrial) {
  const auto plan = std::make_shared<const fault::FaultPlan>(
      fault::parse_fault_plan("drop:rate=0.5:seed=21"));
  net::CommPattern pattern(8);
  for (int p = 0; p < 8; ++p) {
    for (int k = 0; k < 4; ++k) pattern.add(p, (p + k + 1) % 8, 4);
  }
  fault::Injector a(plan, /*machine_seed=*/99, /*procs=*/8);
  fault::Injector b(plan, 99, 8);
  fault::ExchangeFaults fa, fb;
  const auto pa = a.apply_packet_faults(pattern, 0, &fa);
  const auto pb = b.apply_packet_faults(pattern, 0, &fb);
  ASSERT_EQ(pa.messages().size(), pb.messages().size());
  for (std::size_t i = 0; i < pa.messages().size(); ++i) {
    EXPECT_EQ(pa.messages()[i], pb.messages()[i]);
  }
  EXPECT_EQ(fa.dropped, fb.dropped);
  // A different trial redraws the event stream...
  fault::Injector c(plan, 99, 8);
  c.new_trial(1);
  fault::ExchangeFaults fc;
  (void)c.apply_packet_faults(pattern, 0, &fc);
  EXPECT_NE(fa.dropped, fc.dropped);
  // ...and a different machine seed decorrelates entirely.
  fault::Injector d(plan, 100, 8);
  fault::ExchangeFaults fd;
  (void)d.apply_packet_faults(pattern, 0, &fd);
  EXPECT_NE(fa.dropped, fd.dropped);
}

/// A sweep whose measure exercises compute, exchange and barrier, throwing
/// when the injected drops lose data — so under a drop plan some cells fail
/// and some survive, all deterministically.
exec::SweepSpec faulted_sweep_spec(int jobs) {
  exec::SweepSpec spec;
  spec.experiment = "fault-test-sweep";
  spec.x_label = "rounds";
  spec.machine = {.platform = machines::Platform::GCel, .procs = 8,
                  .seed = 31};
  spec.xs = {1, 2, 3};
  spec.trials = 2;
  spec.jobs = jobs;
  spec.measure = [](exec::TrialContext& ctx) {
    auto& m = ctx.machine;
    std::size_t delivered = 0;
    std::size_t sent = 0;
    for (int round = 0; round < static_cast<int>(ctx.x); ++round) {
      for (int p = 0; p < m.procs(); ++p) m.charge(p, 1.0 + p);
      runtime::Exchange<std::uint32_t> ex(m, runtime::TransferMode::Word);
      for (int p = 0; p < m.procs(); ++p) {
        ex.send(p, (p + round + 1) % m.procs(),
                std::vector<std::uint32_t>{static_cast<std::uint32_t>(p)});
        ++sent;
      }
      auto box = ex.run();
      for (int p = 0; p < m.procs(); ++p) delivered += box.count_at(p);
      m.barrier();
    }
    if (delivered < sent) {
      throw std::runtime_error("lost " + std::to_string(sent - delivered) +
                               " of " + std::to_string(sent) + " messages");
    }
    return m.now();
  };
  return spec;
}

TEST(FaultInjection, FaultedSweepIsBitIdenticalAcrossJobs) {
  const ScopedPlan plan("drop:rate=0.05:seed=17");
  const auto serial = exec::run_sweep(faulted_sweep_spec(1));
  const auto parallel = exec::run_sweep(faulted_sweep_spec(4));
  ASSERT_EQ(serial.series.points.size(), parallel.series.points.size());
  for (std::size_t i = 0; i < serial.series.points.size(); ++i) {
    EXPECT_EQ(serial.series.points[i].measured.n,
              parallel.series.points[i].measured.n);
    EXPECT_EQ(serial.series.points[i].measured.mean,
              parallel.series.points[i].measured.mean);
    EXPECT_EQ(serial.series.points[i].measured.stddev,
              parallel.series.points[i].measured.stddev);
  }
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].cell, parallel.failures[i].cell);
    EXPECT_EQ(serial.failures[i].kind, parallel.failures[i].kind);
    EXPECT_EQ(serial.failures[i].message, parallel.failures[i].message);
  }
}

TEST(FaultInjection, StragglerTimingIsBitIdenticalAcrossJobs) {
  const ScopedPlan plan("straggler:rate=0.25:severity=5:seed=13");
  const auto serial = exec::run_sweep(faulted_sweep_spec(1));
  const auto parallel = exec::run_sweep(faulted_sweep_spec(4));
  EXPECT_TRUE(serial.ok());  // timing faults lose no data
  ASSERT_EQ(serial.series.points.size(), parallel.series.points.size());
  for (std::size_t i = 0; i < serial.series.points.size(); ++i) {
    EXPECT_EQ(serial.series.points[i].measured.mean,
              parallel.series.points[i].measured.mean);
  }
}

// --------------------------------------------- watchdog / retry / journal

TEST(Resilience, WatchdogCancelsAHungCell) {
  exec::SweepSpec spec;
  spec.experiment = "fault-test-hang";
  spec.x_label = "x";
  spec.machine = {.platform = machines::Platform::GCel, .procs = 4,
                  .seed = 5};
  spec.xs = {1};
  spec.trials = 1;
  spec.jobs = 1;
  spec.cell_timeout_ms = 25.0;
  spec.measure = [](exec::TrialContext& ctx) -> double {
    // An endless superstep loop: only the watchdog's cancellation flag,
    // checked at each barrier, gets us out.
    while (true) ctx.machine.barrier();
  };
  const auto r = exec::run_sweep(spec);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].kind, "timeout");
  EXPECT_NE(r.failures[0].message.find("cancelled"), std::string::npos);
}

TEST(Resilience, RetriesReseedDeterministically) {
  const ScopedPlan plan("drop:rate=1:seed=3");  // every attempt loses data
  auto spec = faulted_sweep_spec(2);
  spec.max_attempts = 3;
  const auto r = exec::run_sweep(spec);
  ASSERT_EQ(r.failures.size(), r.cells_total);
  for (const auto& f : r.failures) {
    EXPECT_EQ(f.attempts, 3);
    EXPECT_EQ(f.kind, "exception");
  }
}

TEST(Resilience, JournalRoundTripsEntriesExactly) {
  const std::string dir =
      testing::TempDir() + "pcm-fault-test-journal-roundtrip";
  std::filesystem::remove_all(dir);
  const exec::JournalEntry entries[] = {
      {0, true, 123456.789012345678, 1, "", "", ""},
      {3, true, 1e-9, 2, "", "", ""},
      {5, false, 0.0, 3, "audit", "packet-conservation violated at pe:3", ""},
      {7, true, 0.1, 1, "", "", ""},  // 0.1 is inexact in binary: hexfloat test
  };
  std::string path;
  {
    exec::CheckpointJournal j(dir, "round/trip exp", "header v1", false);
    path = j.path();
    for (const auto& e : entries) j.append(e);
  }
  exec::CheckpointJournal j(dir, "round/trip exp", "header v1", true);
  EXPECT_EQ(j.path(), path);
  ASSERT_EQ(j.loaded().size(), 4u);
  for (const auto& e : entries) {
    const auto it = j.loaded().find(e.cell);
    ASSERT_NE(it, j.loaded().end()) << e.cell;
    EXPECT_EQ(it->second.ok, e.ok);
    EXPECT_EQ(it->second.us, e.us);  // bit-exact through hexfloat
    EXPECT_EQ(it->second.attempts, e.attempts);
    EXPECT_EQ(it->second.kind, e.kind);
    EXPECT_EQ(it->second.message, e.message);
  }
}

TEST(Resilience, JournalIgnoresTornFinalLine) {
  const std::string dir = testing::TempDir() + "pcm-fault-test-journal-torn";
  std::filesystem::remove_all(dir);
  std::string path;
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    path = j.path();
    j.append({0, true, 1.5, 1, "", "", ""});
    j.append({1, true, 2.5, 1, "", "", ""});
  }
  {
    // Simulate a SIGKILL mid-write: a truncated record, no newline.
    std::ofstream torn(path, std::ios::app);
    torn << "cell 2 ok";
  }
  exec::CheckpointJournal j(dir, "exp", "H", true);
  EXPECT_EQ(j.loaded().size(), 2u);
  j.append({2, true, 3.5, 1, "", "", ""});
  exec::CheckpointJournal again(dir, "exp", "H", true);
  EXPECT_EQ(again.loaded().size(), 3u);
}

TEST(Resilience, JournalRefusesAForeignHeader) {
  const std::string dir =
      testing::TempDir() + "pcm-fault-test-journal-foreign";
  std::filesystem::remove_all(dir);
  std::string path;
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    path = j.path();
    j.append({0, true, 1.0, 1, "", "", ""});
  }
  {
    // Tamper: same file, different sweep identity line.
    std::ofstream out(path, std::ios::trunc);
    out << "pcm-sweep-journal v1 SOMETHING ELSE\ncell 0 ok 1 0x1p+0\n";
  }
  EXPECT_THROW(exec::CheckpointJournal(dir, "exp", "H", true),
               std::runtime_error);
}

TEST(Resilience, RetriedCellGetsAFreshWatchdogBudget) {
  // Regression: deadlines are armed per ATTEMPT, with a generation token so
  // the stale guard of a timed-out attempt can never disarm whatever was
  // re-armed into its freed slot. Every cell hangs on attempt 0 and is
  // legitimately slow on attempt 1 — slow enough that an inherited or
  // leaked remainder of the first attempt's budget would cancel it (or,
  // with the slot-reuse bug, let a *different* cell's first attempt hang
  // forever). All cells completing is the proof.
  exec::SweepSpec spec;
  spec.experiment = "fault-test-retry-budget";
  spec.x_label = "x";
  spec.machine = {.platform = machines::Platform::GCel, .procs = 4,
                  .seed = 5};
  spec.xs = {1, 2};
  spec.trials = 2;
  spec.jobs = 2;
  spec.cell_timeout_ms = 60.0;
  spec.max_attempts = 2;
  spec.measure = [](exec::TrialContext& ctx) -> double {
    if (ctx.attempt == 0) {
      while (true) ctx.machine.barrier();  // cancelled by the watchdog
    }
    // The watchdog's deadline is wall-clock time, so a slow-but-live
    // attempt has to burn real wall time to prove the budget was re-armed.
    const auto t0 = std::chrono::steady_clock::now();  // pcm-lint:allow(wallclock)
    while (std::chrono::steady_clock::now() - t0 <  // pcm-lint:allow(wallclock)
           std::chrono::milliseconds(30)) {
      ctx.machine.barrier();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return ctx.x;
  };
  const auto r = exec::run_sweep(spec);
  EXPECT_TRUE(r.ok()) << (r.failures.empty()
                              ? ""
                              : r.failures[0].kind + ": " +
                                    r.failures[0].message);
}

TEST(Resilience, JournalSkipsAndReportsCorruptInteriorLines) {
  const std::string dir =
      testing::TempDir() + "pcm-fault-test-journal-corrupt";
  std::filesystem::remove_all(dir);
  std::string path;
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    path = j.path();
    j.append({0, true, 1.5, 1, "", "", ""});
    j.append({1, true, 2.5, 1, "", "", ""});
    j.append({2, true, 3.5, 1, "", "", ""});
  }
  {
    // Corrupt the INTERIOR record for cell 1 in place: flip one payload
    // character so the line still parses shape-wise but fails its checksum.
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);) lines.push_back(l);
    in.close();
    ASSERT_EQ(lines.size(), 4u);  // header + 3 records
    const auto pos = lines[2].find("cell 1");
    ASSERT_NE(pos, std::string::npos);
    lines[2][pos] = 'x';
    std::ofstream out(path, std::ios::trunc);
    for (const auto& l : lines) out << l << '\n';
  }
  exec::CheckpointJournal j(dir, "exp", "H", true);
  EXPECT_EQ(j.corrupt_lines(), 1u);
  EXPECT_EQ(j.loaded().size(), 2u);  // cells 0 and 2 survive, 1 re-runs
  EXPECT_TRUE(j.loaded().count(0));
  EXPECT_TRUE(j.loaded().count(2));
}

TEST(Resilience, JournalRefusesATruncatedHeader) {
  const std::string dir =
      testing::TempDir() + "pcm-fault-test-journal-trunchdr";
  std::filesystem::remove_all(dir);
  std::string path;
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    path = j.path();
    j.append({0, true, 1.0, 1, "", "", ""});
  }
  {
    // A header torn mid-write identifies no sweep: refusing beats guessing.
    std::ofstream out(path, std::ios::trunc);
    out << "pcm-sweep-jour";
  }
  EXPECT_THROW(exec::CheckpointJournal(dir, "exp", "H", true),
               std::runtime_error);
}

TEST(Resilience, JournalDuplicateCellLaterWins) {
  const std::string dir = testing::TempDir() + "pcm-fault-test-journal-dup";
  std::filesystem::remove_all(dir);
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    j.append({4, false, 0.0, 1, "exception", "first try", ""});
    j.append({4, true, 7.25, 2, "", "", ""});
  }
  exec::CheckpointJournal j(dir, "exp", "H", true);
  ASSERT_EQ(j.loaded().size(), 1u);
  const auto& e = j.loaded().at(4);
  EXPECT_TRUE(e.ok);
  EXPECT_EQ(e.us, 7.25);
  EXPECT_EQ(e.attempts, 2);
}

TEST(Resilience, LegacyV1JournalStillResumesAndStaysV1) {
  const std::string dir = testing::TempDir() + "pcm-fault-test-journal-v1";
  std::filesystem::remove_all(dir);
  // Find the path the journal would use, then hand-write a v1 file there.
  std::string path;
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    path = j.path();
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << "pcm-sweep-journal v1 H\n"
        << "cell 0 ok 1 0x1.8p+0\n"
        << "cell 1 fail 2 audit packet lost\n";
  }
  {
    exec::CheckpointJournal j(dir, "exp", "H", true);
    ASSERT_EQ(j.loaded().size(), 2u);
    EXPECT_EQ(j.loaded().at(0).us, 1.5);
    EXPECT_EQ(j.loaded().at(1).kind, "audit");
    j.append({2, true, 4.5, 1, "", "", ""});
  }
  // The append went out in the file's own (v1, checksum-free) format, so
  // the journal stays uniformly parseable...
  {
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);) lines.push_back(l);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[3].rfind("cell 2 ok", 0), 0u);
  }
  // ...and a further resume sees all three cells.
  exec::CheckpointJournal again(dir, "exp", "H", true);
  EXPECT_EQ(again.loaded().size(), 3u);
}

TEST(Resilience, JournalCarriesTheObsTokenThroughARoundTrip) {
  const std::string dir = testing::TempDir() + "pcm-fault-test-journal-obs";
  std::filesystem::remove_all(dir);
  exec::JournalEntry e;
  e.cell = 9;
  e.ok = true;
  e.us = 2.5;
  e.attempts = 1;
  e.obs = "machine.barriers=c:12;machine.exchanges=c:5";
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    j.append(e);
  }
  exec::CheckpointJournal j(dir, "exp", "H", true);
  ASSERT_EQ(j.loaded().size(), 1u);
  EXPECT_EQ(j.loaded().at(9).obs, e.obs);
}

TEST(Resilience, CheckpointedSweepResumesBitIdentically) {
  const std::string dir = testing::TempDir() + "pcm-fault-test-resume";
  std::filesystem::remove_all(dir);
  auto spec = faulted_sweep_spec(2);
  spec.checkpoint_dir = dir;
  const auto first = exec::run_sweep(spec);
  EXPECT_EQ(first.cells_resumed, 0u);
  spec.resume = true;
  const auto resumed = exec::run_sweep(spec);
  EXPECT_EQ(resumed.cells_resumed, resumed.cells_total);
  ASSERT_EQ(first.series.points.size(), resumed.series.points.size());
  for (std::size_t i = 0; i < first.series.points.size(); ++i) {
    EXPECT_EQ(first.series.points[i].measured.mean,
              resumed.series.points[i].measured.mean);
    EXPECT_EQ(first.series.points[i].measured.stddev,
              resumed.series.points[i].measured.stddev);
    EXPECT_EQ(first.series.points[i].measured.median,
              resumed.series.points[i].measured.median);
  }
}

}  // namespace
}  // namespace pcm
