#include "race/race.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "machines/machine.hpp"
#include "runtime/exchange.hpp"
#include "test_util.hpp"

// The superstep happens-before race detector (src/race/). Its one violation,
// a mailbox consumed after reset(), is seeded deliberately and must raise a
// RaceError naming the machine, the superstep and the reading PE;
// golden-path Exchange programs on the paper machines must run clean with
// checks actually executed.
//
// gtest_discover_tests runs every TEST in its own process, so toggling the
// process-global race flag here cannot leak between tests; the RAII guard
// still restores it for in-process reruns.

namespace pcm {
namespace {

class RaceOn {
 public:
  RaceOn() { race::set_enabled(true); }
  ~RaceOn() { race::set_enabled(false); }
};

// --- error type ------------------------------------------------------------

TEST(RaceError, ComposesContextIntoMessage) {
  race::RaceError e("stale-mailbox-read", 3, "parcel from an old trial");
  EXPECT_EQ(e.violation(), "stale-mailbox-read");
  EXPECT_EQ(e.pe(), 3);
  EXPECT_EQ(e.superstep(), -1);
  const std::string before = e.what();
  EXPECT_NE(before.find("stale-mailbox-read"), std::string::npos);
  EXPECT_NE(before.find("(pe 3)"), std::string::npos);
  EXPECT_NE(before.find("parcel from an old trial"), std::string::npos);
  EXPECT_EQ(before.find("superstep"), std::string::npos);

  e.set_context("CM-5", 4);
  const std::string after = e.what();
  EXPECT_EQ(e.machine(), "CM-5");
  EXPECT_EQ(e.superstep(), 4);
  EXPECT_NE(after.find("CM-5"), std::string::npos);
  EXPECT_NE(after.find("superstep 4"), std::string::npos);
}

// --- enable/disable --------------------------------------------------------

TEST(RaceToggle, CompiledInAndDisabledByDefault) {
  if (std::getenv("PCM_RACE") != nullptr) {
    GTEST_SKIP() << "PCM_RACE set in the environment; default-off not testable";
  }
  EXPECT_FALSE(race::enabled());  // runtime default is off
  race::set_enabled(true);
  EXPECT_TRUE(race::enabled());
  race::set_enabled(false);
  EXPECT_FALSE(race::enabled());
}

// --- epoch bookkeeping -----------------------------------------------------

TEST(RaceEpoch, BarrierAdvancesSuperstepResetAdvancesTrial) {
  auto m = test::small_cm5();
  const long trial0 = m->trial();
  EXPECT_EQ(m->superstep(), 0);
  m->barrier();
  m->barrier();
  EXPECT_EQ(m->superstep(), 2);
  EXPECT_EQ(m->trial(), trial0);
  m->reset();
  EXPECT_EQ(m->superstep(), 0);
  EXPECT_EQ(m->trial(), trial0 + 1);
}

// --- seeded violations -----------------------------------------------------

TEST(RaceViolation, StaleMailboxReadAfterReset) {
  RaceOn on;
  auto m = test::small_cm5();
  runtime::Exchange<int> ex(*m, runtime::TransferMode::Word);
  ex.send_value(0, 1, 42);
  auto& box = ex.run();
  EXPECT_NO_THROW((void)box.at(1));  // fresh: same trial
  m->reset();                        // tears down the delivering trial
  try {
    (void)box.at(1);
    FAIL() << "expected RaceError";
  } catch (const race::RaceError& e) {
    EXPECT_EQ(e.violation(), "stale-mailbox-read");
    EXPECT_EQ(e.pe(), 1);
    EXPECT_EQ(e.machine(), m->name());
    EXPECT_NE(std::string(e.what()).find("reset()"), std::string::npos);
  }
}

TEST(RaceViolation, StaleMailboxReadAfterResetOnARepeatedStep) {
  // A step that repeats the last one reuses its staged parcels and pattern;
  // it must stamp the mailbox all the same.
  RaceOn on;
  auto m = test::small_cm5();
  runtime::Exchange<int> ex(*m, runtime::TransferMode::Word);
  ex.send_value(0, 1, 41);
  (void)ex.run();
  const auto shape = ex.pattern().identity();
  ex.send_value(0, 1, 42);
  auto& box = ex.run();
  ASSERT_EQ(ex.pattern().identity(), shape);  // the repeated path was taken
  EXPECT_EQ(box.at(1).front().data.front(), 42);
  m->reset();
  try {
    (void)box.at(1);
    FAIL() << "expected RaceError";
  } catch (const race::RaceError& e) {
    EXPECT_EQ(e.violation(), "stale-mailbox-read");
    EXPECT_EQ(e.pe(), 1);
  }
}

TEST(RaceViolation, SilentWhenDisabled) {
  // With detection off the hook must not interfere: the seeded stale read
  // runs unchecked (the simulator just times a buggy program, as before).
  if (std::getenv("PCM_RACE") != nullptr) {
    GTEST_SKIP() << "PCM_RACE set in the environment; default-off not testable";
  }
  ASSERT_FALSE(race::enabled());
  auto m = test::small_cm5();
  runtime::Exchange<int> ex(*m, runtime::TransferMode::Word);
  ex.send_value(0, 1, 42);
  auto& box = ex.run();
  m->reset();
  EXPECT_NO_THROW((void)box.at(1));
}

TEST(RaceViolation, ReusedMailboxDropsItsStampWhileTheDetectorIsOff) {
  auto m = test::small_cm5();
  runtime::Exchange<int> ex(*m, runtime::TransferMode::Word);
  race::set_enabled(true);
  ex.send_value(0, 1, 42);
  (void)ex.run();  // stamped with the current trial
  race::set_enabled(false);
  ex.send_value(0, 1, 43);
  auto& box = ex.run();  // refilled while off: no stamp
  m->reset();
  RaceOn on;
  EXPECT_NO_THROW((void)box.at(1));
  EXPECT_EQ(box.at(1).front().data.front(), 43);
}

// --- golden path on the paper machines -------------------------------------

void run_raced_smoke(machines::Platform platform) {
  RaceOn on;
  const auto before = race::checks_passed();
  auto m = machines::make_machine(
      machines::MachineSpec{.platform = platform, .procs = 16, .seed = 11});
  const int P = m->procs();

  // A correct program: a ring shift whose mailbox is consumed on the trial
  // that delivered it, then a barrier.
  runtime::Exchange<std::uint32_t> ex(*m, runtime::TransferMode::Block);
  for (int src = 0; src < P; ++src) {
    ex.send(src, (src + 1) % P,
            std::vector<std::uint32_t>{static_cast<std::uint32_t>(src)});
  }
  const auto& box = ex.run();
  for (int p = 0; p < P; ++p) EXPECT_EQ(box.at(p).size(), 1u);
  m->barrier();

  EXPECT_GT(race::checks_passed(), before)
      << "instrumentation did not run on " << m->name();
}

TEST(RaceGoldenPath, MasPar) { run_raced_smoke(machines::Platform::MasPar); }
TEST(RaceGoldenPath, GCel) { run_raced_smoke(machines::Platform::GCel); }
TEST(RaceGoldenPath, CM5) { run_raced_smoke(machines::Platform::CM5); }

}  // namespace
}  // namespace pcm
