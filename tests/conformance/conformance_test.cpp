//===- tests/conformance/conformance_test.cpp - Battery driver -----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the conformance battery (Battery.h): every registry row (one
/// object, over one of the four operation shapes) runs the same six
/// cells, parameterized over the registry. Two registry-level tests make
/// the battery self-enforcing: the matrix may not have empty cells, and
/// every header under src/core and src/baselines must be claimed by some
/// row — adding a new object without a row fails CI.
///
/// Also hosts the StarvationFreeLock<Leasable> fault-plan coverage that
/// the battery's lock-level crash sweep builds on: an explorer-driven
/// FaultPlan crash (faultPlanPick) and a wall-clock stall plan that must
/// never falsely revoke a live default-patience holder.
///
//===----------------------------------------------------------------------===//

#include "conformance/Battery.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace csobj {
namespace conformance {
namespace {

//===----------------------------------------------------------------------===
// The matrix: object x cell
//===----------------------------------------------------------------------===

class BatteryTest : public ::testing::TestWithParam<const BatteryEntry *> {};

TEST_P(BatteryTest, SpecReplay) {
  ASSERT_TRUE(GetParam()->SpecReplay);
  GetParam()->SpecReplay();
}

TEST_P(BatteryTest, LincheckStress) {
  ASSERT_TRUE(GetParam()->LincheckStress);
  GetParam()->LincheckStress();
}

TEST_P(BatteryTest, Explore) {
  ASSERT_TRUE(GetParam()->Explore);
  GetParam()->Explore();
}

TEST_P(BatteryTest, Chaos) {
  ASSERT_TRUE(GetParam()->Chaos);
  GetParam()->Chaos();
}

TEST_P(BatteryTest, CrashOrStall) {
  ASSERT_TRUE(GetParam()->CrashOrStall);
  GetParam()->CrashOrStall();
}

TEST_P(BatteryTest, AccessBound) {
  ASSERT_TRUE(GetParam()->AccessBound);
  GetParam()->AccessBound();
}

std::vector<const BatteryEntry *> batteryPointers() {
  std::vector<const BatteryEntry *> Out;
  for (const BatteryEntry &E : batteryRegistry())
    Out.push_back(&E);
  return Out;
}

std::string batteryName(
    const ::testing::TestParamInfo<const BatteryEntry *> &Info) {
  std::string Name = Info.param->Name;
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(Conformance, BatteryTest,
                         ::testing::ValuesIn(batteryPointers()), batteryName);

//===----------------------------------------------------------------------===
// Registry self-enforcement
//===----------------------------------------------------------------------===

TEST(ConformanceRegistryTest, MatrixHasNoEmptyCells) {
  std::set<std::string> Names;
  for (const BatteryEntry &E : batteryRegistry()) {
    EXPECT_FALSE(E.Name.empty());
    EXPECT_TRUE(Names.insert(E.Name).second)
        << "duplicate battery entry: " << E.Name;
    EXPECT_TRUE(E.SpecReplay) << E.Name;
    EXPECT_TRUE(E.LincheckStress) << E.Name;
    EXPECT_TRUE(E.Explore) << E.Name;
    EXPECT_TRUE(E.Chaos) << E.Name;
    EXPECT_TRUE(E.CrashOrStall) << E.Name;
    EXPECT_TRUE(E.AccessBound) << E.Name;
  }
  EXPECT_GE(Names.size(), 35u);
}

TEST(ConformanceRegistryTest, EveryCoreAndBaselineHeaderHasABatteryEntry) {
  namespace fs = std::filesystem;
  std::set<std::string> Covered;
  for (const BatteryEntry &E : batteryRegistry())
    Covered.insert(E.CoveredHeaders.begin(), E.CoveredHeaders.end());

  const fs::path SrcDir = fs::path(CSOBJ_SOURCE_DIR) / "src";
  std::set<std::string> Headers;
  for (const char *Dir : {"core", "baselines"}) {
    ASSERT_TRUE(fs::exists(SrcDir / Dir)) << SrcDir / Dir;
    std::uint32_t HeadersSeen = 0;
    for (const auto &Entry : fs::directory_iterator(SrcDir / Dir)) {
      if (Entry.path().extension() != ".h")
        continue;
      ++HeadersSeen;
      Headers.insert(Entry.path().filename().string());
    }
    EXPECT_GT(HeadersSeen, 0u) << Dir;
  }
  std::string Missing;
  for (const std::string &Name : Headers)
    if (!Covered.count(Name))
      Missing += Name + " ";
  EXPECT_TRUE(Missing.empty())
      << "src/core and src/baselines headers with no battery entry "
         "(add a row to batteryRegistry() in tests/conformance/Battery.h): "
      << Missing;

  // Reverse direction: a covered-header claim must name a file that still
  // exists, so renames cannot leave the registry silently stale.
  for (const std::string &Name : Covered)
    EXPECT_TRUE(Headers.count(Name))
        << "battery entry claims nonexistent header " << Name;
}

//===----------------------------------------------------------------------===
// StarvationFreeLock<Leasable> under FaultPlan
//===----------------------------------------------------------------------===

TEST(LeasableLockFaultPlanTest, ExplorerCrashPlanIsSurvivedAndHealed) {
  // A FaultPlan crash delivered through faultPlanPick: the victim dies at
  // its 5th shared access — mid-acquisition, with its doorway flag
  // already raised — and the survivor's unbounded lock() must still
  // terminate and leave the lock healed.
  StarvationFreeLock<LeasableTag<16>> Lock(3);
  AtomicRegister<std::uint32_t> Reg;
  InterleaveScheduler Scheduler(2);
  Scheduler.run({[&] {
                   Lock.lock(0);
                   Reg.write(1);
                   Lock.unlock(0);
                 },
                 [&] {
                   Lock.lock(1);
                   Reg.write(2);
                   Lock.unlock(1);
                 }},
                faultPlanPick(FaultPlan::crashAt(0, 4)));
  EXPECT_EQ(Reg.peekForTesting(), 2u);
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u);
  EXPECT_TRUE(Lock.suspects().isSuspectForTesting(0));

  // Healed: a third process acquires on the main thread.
  Lock.lock(2);
  Lock.unlock(2);
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u);
}

TEST(LeasableLockFaultPlanTest, StallPlanNeverRevokesALiveDefaultHolder) {
  // Wall-clock stall plan: the victim is held at an access for
  // StallPlanGrants foreign accesses — far below the default patience —
  // so mutual exclusion over plain memory must survive with no
  // revocations and no lost leases.
  constexpr std::uint32_t Iterations = 50;
  StarvationFreeLock<Leasable> Lock(2);
  std::uint64_t Counter = 0;
  FaultClock Clock;
  const FaultPlan Plan =
      FaultPlan::stallAt(0, StallPlanAtAccess, StallPlanGrants);
  SpinBarrier Barrier(2);
  std::vector<std::thread> Threads;
  for (std::uint32_t T = 0; T < 2; ++T) {
    Threads.emplace_back([&, T] {
      FaultInjector Hook(Plan, T, Clock);
      SchedHookScope Scope(Hook);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < Iterations; ++I) {
        Lock.lock(T);
        ++Counter;
        Lock.unlock(T);
      }
    });
  }
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(Counter, 2u * Iterations);
  EXPECT_EQ(Lock.inner().revocations(), 0u);
  EXPECT_EQ(Lock.inner().lostLeases(), 0u);
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u);
}

} // namespace
} // namespace conformance
} // namespace csobj
