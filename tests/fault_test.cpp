#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algos/bitonic.hpp"
#include "algos/matmul.hpp"
#include "algos/samplesort.hpp"
#include "audit/audit.hpp"
#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "machines/machine.hpp"
#include "obs/obs.hpp"
#include "runtime/exchange.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

// pcm::fault: the deterministic fault-injection plane and the resilient
// sweep machinery built on top of it. The tests pin (a) the FaultPlan spec
// grammar, (b) every fault kind's observable effect on each of the paper's
// three machines, (c) that injected events are a pure function of
// (plan, machine seed, trial) — so faulted sweeps stay bit-identical across
// --jobs — and (d) the checkpoint journal round-trip.

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
  auto& box = ex.run();
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

TEST(FaultInjection, WordSyncBitonicClipsDuplicatedWordsToTheirWindow) {
  // Under a dup plan a word parcel of the barrier-chunked bitonic sort grows
  // past its 256-key window (the duplicates trail the body). Each parcel
  // must be clipped to its window instead of copied past the partner run;
  // since the bodies are intact, the sort still comes out exact.
  const ScopedPlan plan("dup:rate=0.05:seed=3");
  auto m = machines::make_machine(
      {.platform = machines::Platform::GCel, .procs = 16, .seed = 2026});
  const auto keys = test::random_keys(16 * 256, 2);
  const auto r =
      algos::run_bitonic(*m, keys, algos::BitonicVariant::BspSynchronized);
  EXPECT_GT(m->injector()->counters().duplicated, 0);
  auto want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(r.keys, want);
}

TEST(FaultInjection, BspWordBitonicClipsDuplicatedWords) {
  // The unsynchronised word variant sends each partner run as one word
  // parcel; under a dup plan a duplicated word trails its M keys. The
  // partner run must be clipped to M keys, or the merge keeps the extra.
  const ScopedPlan plan("dup:rate=0.05:seed=3");
  auto m = machines::make_machine(
      {.platform = machines::Platform::GCel, .procs = 16, .seed = 2026});
  const auto keys = test::random_keys(16 * 256, 2);
  const auto r = algos::run_bitonic(*m, keys, algos::BitonicVariant::Bsp);
  EXPECT_GT(m->injector()->counters().duplicated, 0);
  auto want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(r.keys, want);
}

TEST(FaultInjection, BspWordBitonicKeepsRunsOfMKeysUnderDrops) {
  // Under a drop plan a word-mode partner run arrives short. It fills the
  // front of the zeroed M-key partner run, as in the other word variants:
  // the merges take runs of equal length (a Debug build asserts it).
  const ScopedPlan plan("drop:rate=0.05:seed=3");
  auto m = machines::make_machine(
      {.platform = machines::Platform::GCel, .procs = 16, .seed = 2026});
  const auto keys = test::random_keys(16 * 256, 2);
  const auto r = algos::run_bitonic(*m, keys, algos::BitonicVariant::Bsp);
  EXPECT_GT(m->injector()->counters().dropped, 0);
  EXPECT_EQ(r.keys.size(), keys.size());
}

TEST(FaultInjection, RepeatedStepsDeliverWhatAFreshExchangeDelivers) {
  // A machine with an injector never takes the repeated path: a reused
  // Exchange sending the same shape every step must deliver, step by step,
  // what a fresh Exchange delivers on a twin machine.
  const ScopedPlan plan("dup:rate=0.2:seed=3");
  for (const auto platform : kPlatforms) {
    for (const auto mode :
         {runtime::TransferMode::Word, runtime::TransferMode::Block}) {
      SCOPED_TRACE(std::string(machines::to_string(platform)) +
                   (mode == runtime::TransferMode::Word ? " word" : " block"));
      auto reused_m = small_machine(platform);
      auto fresh_m = small_machine(platform);
      runtime::Exchange<std::uint32_t> reused(*reused_m, mode);
      const auto stage = [](runtime::Exchange<std::uint32_t>& ex, int step) {
        const int P = ex.machine().procs();
        for (int p = 0; p < P; ++p) {
          const auto v = static_cast<std::uint32_t>(100 * step + p);
          ex.send(p, (p + 1) % P, std::vector<std::uint32_t>{v, v + 1}, step);
        }
      };
      for (int step = 0; step < 4; ++step) {
        std::string want;
        {
          runtime::Exchange<std::uint32_t> fresh(*fresh_m, mode);
          stage(fresh, step);
          want = test::transcript(fresh.run());
        }
        stage(reused, step);
        EXPECT_EQ(test::transcript(reused.run()), want) << "step " << step;
        EXPECT_EQ(reused_m->now(), fresh_m->now()) << "step " << step;
      }
      EXPECT_GT(reused_m->injector()->counters().duplicated, 0);
    }
  }
}

TEST(FaultInjection, WordMatmulClipsDuplicatedWordsToTheirPiece) {
  // Under a dup plan a word parcel of BSP matmul grows past its piece (the
  // duplicates trail the body). Each parcel must be clipped to its piece
  // instead of copied past its slot in a_full/b_full or past c_piece; since
  // the bodies are intact, the product equals the one without the plan.
  constexpr int n = 16;
  const auto a = test::random_matrix<double>(n, 17);
  const auto b = test::random_matrix<double>(n, 18);
  for (const auto variant : {algos::MatmulVariant::BspStaggered,
                             algos::MatmulVariant::BspUnstaggered}) {
    const auto clean = algos::run_matmul(*test::small_cm5(), a, b, n, variant);
    const ScopedPlan plan("dup:rate=0.05:seed=3");
    auto m = test::small_cm5();
    const auto r = algos::run_matmul(*m, a, b, n, variant);
    EXPECT_GT(m->injector()->counters().duplicated, 0)
        << algos::to_string(variant);
    EXPECT_EQ(r.c, clean.c) << algos::to_string(variant);
  }
}

TEST(FaultInjection, BlockMatmulAddsADuplicatedPieceOnce) {
  // Under a dup plan MP-BPRAM matmul receives a duplicated C piece as a
  // whole second parcel over the same data. Adding it twice would corrupt
  // the product; taken once, the product equals the one without the plan.
  constexpr int n = 64;
  const auto a = test::random_matrix<double>(n, 17);
  const auto b = test::random_matrix<double>(n, 18);
  const auto cm5 = [] {
    return machines::make_machine(
        {.platform = machines::Platform::CM5, .seed = 2026});
  };
  const auto clean =
      algos::run_matmul(*cm5(), a, b, n, algos::MatmulVariant::Bpram);
  const ScopedPlan plan("dup:rate=0.05:seed=3");
  auto m = cm5();
  const auto r = algos::run_matmul(*m, a, b, n, algos::MatmulVariant::Bpram);
  EXPECT_GT(m->injector()->counters().duplicated, 0);
  EXPECT_EQ(r.c, clean.c);
}

TEST(FaultInjection, BlockSampleSortKeepsEveryKeyOnce) {
  // Both sample sort variants route keys as Block parcels; under a dup plan
  // a duplicated parcel must not deliver its keys a second time.
  const auto keys = test::random_keys(16 * 256, 2);
  auto want = keys;
  std::sort(want.begin(), want.end());
  const ScopedPlan plan("dup:rate=0.05:seed=3");
  for (const auto variant : {algos::SampleSortVariant::Bpram,
                             algos::SampleSortVariant::StaggeredPacked}) {
    auto m = machines::make_machine(
        {.platform = machines::Platform::GCel, .procs = 16, .seed = 2026});
    const auto r = algos::run_samplesort(*m, keys, 64, variant);
    EXPECT_GT(m->injector()->counters().duplicated, 0)
        << algos::to_string(variant);
    EXPECT_EQ(r.keys, want) << algos::to_string(variant);
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
    auto& box = ex.run();
    std::size_t elements = 0;
    for (int p = 0; p < m->procs(); ++p) elements += box.count_at(p);
    // Byte counts are conserved — corruption is a data fault, not a loss —
    // but every parcel is flagged and differs from what was sent.
    EXPECT_EQ(elements, static_cast<std::size_t>(m->procs()) * 4u);
    EXPECT_EQ(box.corrupted_count(), static_cast<std::size_t>(m->procs()));
    const std::vector<std::uint32_t> sent{1u, 2u, 3u, 4u};
    for (const auto& parcel : box.at(0)) {
      EXPECT_TRUE(parcel.corrupted);
      EXPECT_FALSE(std::ranges::equal(parcel.data, sent));
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

// ------------------------------------------------ pinned faulted delivery

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Every PE sends a 3-word parcel to its successor and a 2-word parcel five
/// PEs ahead; senders are staged in a scrambled order (p -> 5p + 3 mod P).
/// Returns the transcript of the delivered mailbox.
std::string scrambled_exchange(machines::Machine& m,
                               runtime::TransferMode mode) {
  const int P = m.procs();
  runtime::Exchange<std::uint32_t> ex(m, mode);
  for (int i = 0; i < P; ++i) {
    const int p = (5 * i + 3) % P;
    const auto base = static_cast<std::uint32_t>(100 * p);
    ex.send(p, (p + 1) % P, std::vector<std::uint32_t>{base, base + 1, base + 2},
            p);
    ex.send(p, (p + 5) % P, std::vector<std::uint32_t>{base + 10, base + 11},
            1000 + p);
  }
  const auto& box = ex.run();
  return test::transcript(box);
}

struct PinnedDelivery {
  const char* plan;
  machines::Platform platform;
  runtime::TransferMode mode;
  std::size_t parcels;
  std::size_t corrupted;
  std::uint64_t digest;  ///< fnv1a of the transcript.
};

std::size_t count_entries(const std::string& t, char mark) {
  std::size_t n = 0;
  for (const char c : t) n += c == mark ? 1 : 0;
  return n;
}

// Captured from the exchange's delivered output. However the payload path
// stores and delivers parcels, what each PE receives must not change.
constexpr PinnedDelivery kPinned[] = {
    {"drop:rate=0.5:seed=9", machines::Platform::CM5,
     runtime::TransferMode::Word, 25, 0, 0xe46a60432107025cull},
    {"drop:rate=0.5:seed=9", machines::Platform::CM5,
     runtime::TransferMode::Block, 12, 0, 0x518f3e86ae46e473ull},
    {"drop:rate=0.5:seed=9", machines::Platform::MasPar,
     runtime::TransferMode::Word, 105, 0, 0xc6fe3ebc0dc4bb8full},
    {"drop:rate=0.5:seed=9", machines::Platform::MasPar,
     runtime::TransferMode::Block, 67, 0, 0x1ee3f69d6f64f7e1ull},
    {"dup:rate=0.5:seed=9", machines::Platform::CM5,
     runtime::TransferMode::Word, 32, 0, 0xdb468884ce225b01ull},
    {"dup:rate=0.5:seed=9", machines::Platform::CM5,
     runtime::TransferMode::Block, 52, 0, 0xc1d42525428999b5ull},
    {"dup:rate=0.5:seed=9", machines::Platform::MasPar,
     runtime::TransferMode::Word, 128, 0, 0x36a4da587de40253ull},
    {"dup:rate=0.5:seed=9", machines::Platform::MasPar,
     runtime::TransferMode::Block, 189, 0, 0x8206decf7efc3251ull},
    {"dead-channel:rate=0.25:seed=9", machines::Platform::CM5,
     runtime::TransferMode::Word, 17, 0, 0x774e42a8bd726196ull},
    {"dead-channel:rate=0.25:seed=9", machines::Platform::CM5,
     runtime::TransferMode::Block, 17, 0, 0x774e42a8bd726196ull},
    {"dead-channel:rate=0.25:seed=9", machines::Platform::MasPar,
     runtime::TransferMode::Word, 63, 0, 0xd2ba51aa23b371efull},
    {"dead-channel:rate=0.25:seed=9", machines::Platform::MasPar,
     runtime::TransferMode::Block, 63, 0, 0xd2ba51aa23b371efull},
    {"corrupt:rate=0.5:seed=9", machines::Platform::CM5,
     runtime::TransferMode::Word, 32, 19, 0x60484ec0c8b71d9aull},
    {"corrupt:rate=0.5:seed=9", machines::Platform::CM5,
     runtime::TransferMode::Block, 32, 19, 0x60484ec0c8b71d9aull},
    {"corrupt:rate=0.5:seed=9", machines::Platform::MasPar,
     runtime::TransferMode::Word, 128, 64, 0x614e2b682597ebb3ull},
    {"corrupt:rate=0.5:seed=9", machines::Platform::MasPar,
     runtime::TransferMode::Block, 128, 64, 0x614e2b682597ebb3ull},
};

TEST(FaultPinned, DeliveredParcelsMatchThePinnedTranscripts) {
  for (const auto& pin : kPinned) {
    SCOPED_TRACE(std::string(pin.plan) + " on " +
                 std::string(machines::to_string(pin.platform)) +
                 (pin.mode == runtime::TransferMode::Word ? " word" : " block"));
    const ScopedPlan plan(pin.plan);
    auto m = small_machine(pin.platform);
    const std::string t = scrambled_exchange(*m, pin.mode);
    EXPECT_EQ(count_entries(t, '<'), pin.parcels);
    EXPECT_EQ(count_entries(t, '*'), pin.corrupted);
    EXPECT_EQ(fnv1a(t), pin.digest) << t;
  }
}

TEST(FaultPinned, AuditConservesAndDeliversTheSameUnderEveryPlan) {
  for (const auto& pin : kPinned) {
    SCOPED_TRACE(std::string(pin.plan) + " on " +
                 std::string(machines::to_string(pin.platform)) +
                 (pin.mode == runtime::TransferMode::Word ? " word" : " block"));
    const ScopedPlan plan(pin.plan);
    audit::set_enabled(true);
    const auto before = audit::checks_passed();
    auto m = small_machine(pin.platform);
    std::string t;
    EXPECT_NO_THROW(t = scrambled_exchange(*m, pin.mode));
    audit::set_enabled(false);
    EXPECT_GT(audit::checks_passed(), before);
    EXPECT_EQ(fnv1a(t), pin.digest);
  }
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
      auto& box = ex.run();
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

// ------------------------------------------------------ checkpoint journal

TEST(Resilience, JournalRoundTripsEntriesExactly) {
  const test::ScopedTempPath tmp("fault-test-journal-roundtrip");
  const std::string& dir = tmp.path();
  const exec::JournalEntry entries[] = {
      {0, true, 123456.789012345678, "", "", ""},
      {3, true, 1e-9, "", "", ""},
      {5, false, 0.0, "audit", "packet-conservation violated at pe:3", ""},
      {7, true, 0.1, "", "", ""},  // 0.1 is inexact in binary: hexfloat test
  };
  std::string path;
  {
    exec::CheckpointJournal j(dir, "round/trip exp", "header v1", false);
    path = j.path();
    for (const auto& e : entries) j.append(e);
  }
  {
    // The v3 layout: "<fnv16> cell <idx> ok <hexfloat>" and
    // "<fnv16> cell <idx> fail <kind> <message>".
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);) lines.push_back(l);
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(lines[0], "pcm-sweep-journal v3 header v1");
    EXPECT_EQ(lines[2].substr(16), " cell 3 ok 0x1.12e0be826d695p-30");
    EXPECT_EQ(lines[3].substr(16),
              " cell 5 fail audit packet-conservation violated at pe:3");
  }
  exec::CheckpointJournal j(dir, "round/trip exp", "header v1", true);
  EXPECT_EQ(j.path(), path);
  ASSERT_EQ(j.loaded().size(), 4u);
  for (const auto& e : entries) {
    const auto it = j.loaded().find(e.cell);
    ASSERT_NE(it, j.loaded().end()) << e.cell;
    EXPECT_EQ(it->second.ok, e.ok);
    EXPECT_EQ(it->second.us, e.us);  // bit-exact through hexfloat
    EXPECT_EQ(it->second.kind, e.kind);
    EXPECT_EQ(it->second.message, e.message);
  }
}

TEST(Resilience, JournalIgnoresTornFinalLine) {
  const test::ScopedTempPath tmp("fault-test-journal-torn");
  const std::string& dir = tmp.path();
  std::string path;
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    path = j.path();
    j.append({0, true, 1.5, "", "", ""});
    j.append({1, true, 2.5, "", "", ""});
  }
  {
    // Simulate a SIGKILL mid-write: a truncated record, no newline.
    std::ofstream torn(path, std::ios::app);
    torn << "cell 2 ok";
  }
  exec::CheckpointJournal j(dir, "exp", "H", true);
  EXPECT_EQ(j.loaded().size(), 2u);
  j.append({2, true, 3.5, "", "", ""});
  exec::CheckpointJournal again(dir, "exp", "H", true);
  EXPECT_EQ(again.loaded().size(), 3u);
}

TEST(Resilience, JournalRefusesAForeignHeader) {
  const test::ScopedTempPath tmp("fault-test-journal-foreign");
  const std::string& dir = tmp.path();
  std::string path;
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    path = j.path();
    j.append({0, true, 1.0, "", "", ""});
  }
  {
    // Tamper: same file, different sweep identity line.
    std::ofstream out(path, std::ios::trunc);
    out << "pcm-sweep-journal v3 SOMETHING ELSE\n";
  }
  EXPECT_THROW(exec::CheckpointJournal(dir, "exp", "H", true),
               std::runtime_error);
}

TEST(Resilience, JournalSkipsAndReportsCorruptInteriorLines) {
  const test::ScopedTempPath tmp("fault-test-journal-corrupt");
  const std::string& dir = tmp.path();
  std::string path;
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    path = j.path();
    j.append({0, true, 1.5, "", "", ""});
    j.append({1, true, 2.5, "", "", ""});
    j.append({2, true, 3.5, "", "", ""});
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
  const test::ScopedTempPath tmp("fault-test-journal-trunchdr");
  const std::string& dir = tmp.path();
  std::string path;
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    path = j.path();
    j.append({0, true, 1.0, "", "", ""});
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
  const test::ScopedTempPath tmp("fault-test-journal-dup");
  const std::string& dir = tmp.path();
  {
    exec::CheckpointJournal j(dir, "exp", "H", false);
    j.append({4, false, 0.0, "exception", "first run", ""});
    j.append({4, true, 7.25, "", "", ""});
  }
  exec::CheckpointJournal j(dir, "exp", "H", true);
  ASSERT_EQ(j.loaded().size(), 1u);
  const auto& e = j.loaded().at(4);
  EXPECT_TRUE(e.ok);
  EXPECT_EQ(e.us, 7.25);
}

TEST(Resilience, JournalCarriesTheObsTokenThroughARoundTrip) {
  const test::ScopedTempPath tmp("fault-test-journal-obs");
  const std::string& dir = tmp.path();
  exec::JournalEntry e;
  e.cell = 9;
  e.ok = true;
  e.us = 2.5;
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
  const test::ScopedTempPath tmp("fault-test-resume");
  const std::string& dir = tmp.path();
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

/// A cheap 12-cell grid with one deterministically poisoned cell, so a
/// resume has a failure ledger to rebuild. Runs a real barrier, so metric
/// snapshots are non-trivial when obs is on.
exec::SweepSpec poisoned_grid_spec() {
  exec::SweepSpec spec;
  spec.experiment = "fault-test-grid";
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

TEST(Resilience, ResumeRebuildsLedgerAndMetricsWithoutRerunning) {
  struct ObsOn {
    const bool was = obs::enabled();
    ObsOn() { obs::set_enabled(true); }
    ~ObsOn() { obs::set_enabled(was); }
  } obs_on;
  const test::ScopedTempPath tmp("fault-test-resume-all");
  const std::string& dir = tmp.path();
  auto spec = poisoned_grid_spec();
  spec.checkpoint_dir = dir;
  const auto first = exec::run_sweep(spec);
  ASSERT_EQ(first.failures.size(), 1u);
  ASSERT_FALSE(first.metrics.empty());

  // Every cell is journalled, so a resume must run measure for none of
  // them and rebuild the series, the failure ledger and the metrics from
  // the journal alone.
  spec.resume = true;
  spec.measure = [](exec::TrialContext&) -> double {
    throw std::logic_error("resume should not re-run any cell");
  };
  const auto resumed = exec::run_sweep(spec);
  EXPECT_EQ(resumed.cells_resumed, spec.cell_count());
  ASSERT_EQ(first.series.points.size(), resumed.series.points.size());
  for (std::size_t i = 0; i < first.series.points.size(); ++i) {
    const auto& a = first.series.points[i];
    const auto& b = resumed.series.points[i];
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.measured.n, b.measured.n);
    EXPECT_EQ(a.measured.min, b.measured.min);
    EXPECT_EQ(a.measured.max, b.measured.max);
    EXPECT_EQ(a.measured.mean, b.measured.mean);
    EXPECT_EQ(a.measured.stddev, b.measured.stddev);
    EXPECT_EQ(a.measured.median, b.measured.median);
  }
  ASSERT_EQ(first.failures.size(), resumed.failures.size());
  for (std::size_t i = 0; i < first.failures.size(); ++i) {
    const auto& a = first.failures[i];
    const auto& b = resumed.failures[i];
    EXPECT_EQ(a.cell, b.cell);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.trial, b.trial);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.message, b.message);
  }
  EXPECT_EQ(first.metrics, resumed.metrics);
}

}  // namespace
}  // namespace pcm
