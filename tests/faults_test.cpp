//===- tests/faults_test.cpp - Fault subsystem & degraded mode -----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection subsystem (faults/) and the crash-tolerant slow
/// path built on it (locks/LeasedLock.h, locks/RecoverableArbiter.h,
/// locks/StarvationFreeLock.h, core/ContentionSensitive.h,
/// runtime/Watchdog.h):
///
///  * FaultPlan execution — the same declarative plan delivered through
///    the wall-clock SchedHook (FaultInjector) and through the explorer
///    picking policy (faultPlanPick), with matching semantics, including
///    the yield/stall noise FaultPlan::chaos builds.
///  * LeasedLock — leases, revocation of suspected-dead holders, the
///    lost-lease accounting that makes false suspicion harmless.
///  * RecoverableArbiter — doorway recovery: suspects are skipped,
///    resurrection restores fairness, entry is always bounded.
///  * CrashTolerantContentionSensitive — the fast path keeps the paper's
///    six-access bound with zero degradation when no fault is injected;
///    the slow path degrades to the Figure 2 lock-free loop instead of
///    hanging; degraded histories stay linearizable (lincheck stress).
///  * Watchdog + Driver — wall-clock liveness oracle: planned crashes
///    retire exactly the victim, survivors finish, no stuck operations.
///
/// The crash-at-every-access-point sweep over the crash-tolerant slow
/// path lives in tests/crash_test.cpp next to the Section 5 sweeps it
/// extends.
///
//===----------------------------------------------------------------------===//

#include "faults/FaultInjector.h"
#include "faults/FaultPlan.h"

#include "conformance/Params.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveStack.h"
#include "core/CrashTolerantDeque.h"
#include "core/CrashTolerantQueue.h"
#include "core/CrashTolerantStack.h"
#include "lincheck/Spec.h"
#include "locks/LeasedLock.h"
#include "locks/RecoverableArbiter.h"
#include "memory/AccessCounter.h"
#include "memory/AtomicRegister.h"
#include "runtime/Driver.h"
#include "runtime/LincheckRounds.h"
#include "runtime/SpinBarrier.h"
#include "runtime/Watchdog.h"
#include "sched/InterleaveScheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// FaultInjector: wall-clock plan execution
//===----------------------------------------------------------------------===

TEST(FaultInjectorTest, CrashStopThrowsAtExactlyThePlannedAccess) {
  FaultClock Clock;
  FaultInjector Injector(FaultPlan::crashAt(0, 2), 0, Clock);
  AtomicRegister<std::uint32_t> Reg;
  std::uint32_t Completed = 0;
  bool Crashed = false;
  {
    SchedHookScope Scope(Injector);
    try {
      for (std::uint32_t I = 0; I < 5; ++I) {
        Reg.write(I);
        ++Completed;
      }
    } catch (const ProcessCrash &) {
      Crashed = true;
    }
  }
  EXPECT_TRUE(Crashed);
  // Accesses 0 and 1 executed; the trigger access (index 2) did not.
  EXPECT_EQ(Completed, 2u);
  EXPECT_EQ(Reg.peekForTesting(), 1u);
  EXPECT_EQ(Injector.accessesSeen(), 3u);
}

TEST(FaultInjectorTest, PlansForOtherThreadsAreIgnored) {
  FaultClock Clock;
  FaultInjector Injector(FaultPlan::crashAt(7, 0), 0, Clock);
  AtomicRegister<std::uint32_t> Reg;
  SchedHookScope Scope(Injector);
  for (std::uint32_t I = 0; I < 4; ++I)
    Reg.write(I);
  EXPECT_EQ(Reg.peekForTesting(), 3u);
  EXPECT_EQ(Injector.accessesSeen(), 4u);
}

TEST(FaultInjectorTest, SoloStallExpiresInsteadOfDeadlocking) {
  FaultClock Clock;
  FaultInjector Injector(FaultPlan::stallAt(0, 1, 64), 0, Clock);
  AtomicRegister<std::uint32_t> Reg;
  SchedHookScope Scope(Injector);
  // Nobody else ticks the clock: the stall must expire via the yield
  // cap and the run complete.
  for (std::uint32_t I = 0; I < 4; ++I)
    Reg.write(I);
  EXPECT_EQ(Reg.peekForTesting(), 3u);
}

TEST(FaultInjectorTest, StallWaitsForForeignClockTicks) {
  FaultClock Clock;
  FaultInjector Injector(FaultPlan::stallAt(0, 0, 8), 0, Clock);
  AtomicRegister<std::uint32_t> Reg;
  std::thread Ticker([&Clock] {
    // A "foreign thread": tick the clock until well past the stall.
    for (std::uint32_t I = 0; I < 4096; ++I)
      Clock.Ticks.fetch_add(1, std::memory_order_relaxed);
  });
  {
    SchedHookScope Scope(Injector);
    Reg.write(1);
  }
  Ticker.join();
  EXPECT_EQ(Reg.peekForTesting(), 1u);
  EXPECT_GE(Clock.Ticks.load(), 8u);
}

TEST(FaultInjectorTest, RecurringStallFiresAtEveryPeriod) {
  FaultClock Clock;
  // Stall at access 2 and every 3 accesses after: indices 2, 5, 8.
  FaultInjector Injector(
      FaultPlan::everyAccesses(0, 2, 3, FaultKind::Stall, /*Grants=*/4), 0,
      Clock);
  AtomicRegister<std::uint32_t> Reg;
  SchedHookScope Scope(Injector);
  for (std::uint32_t I = 0; I < 10; ++I)
    Reg.write(I); // Solo: each stall expires via the idle yield cap.
  EXPECT_EQ(Injector.accessesSeen(), 10u);
  EXPECT_EQ(Injector.faultsFired(), 3u);
  EXPECT_EQ(Reg.peekForTesting(), 9u);
}

TEST(FaultInjectorTest, RecurringCrashRefiresAcrossResurrections) {
  FaultClock Clock;
  // Crash at access 1 and every 2 after: odd access indices die, even
  // ones execute — only meaningful because this harness resurrects.
  FaultInjector Injector(
      FaultPlan::everyAccesses(0, 1, 2, FaultKind::CrashStop), 0, Clock);
  AtomicRegister<std::uint32_t> Reg;
  SchedHookScope Scope(Injector);
  std::uint32_t Completed = 0, Crashes = 0;
  while (Completed < 4) {
    try {
      Reg.write(Completed);
      ++Completed;
    } catch (const ProcessCrash &) {
      ++Crashes; // Resurrect: same id, same injector, next operation.
    }
  }
  // Accesses 0..6: four writes landed (0,2,4,6), three crashed (1,3,5).
  EXPECT_EQ(Crashes, 3u);
  EXPECT_EQ(Injector.faultsFired(), 3u);
  EXPECT_EQ(Injector.accessesSeen(), 7u);
  EXPECT_EQ(Reg.peekForTesting(), 3u);
}

TEST(FaultInjectorTest, RateTriggersAreDeterministicForPlanSeedAndTid) {
  const FaultPlan Plan =
      FaultPlan::stallAtRate(0, /*Permille=*/250, /*Grants=*/1);
  const auto runOnce = [&Plan] {
    FaultClock Clock;
    FaultInjector Injector(Plan, 0, Clock);
    AtomicRegister<std::uint32_t> Reg;
    SchedHookScope Scope(Injector);
    for (std::uint32_t I = 0; I < 256; ++I)
      Reg.write(I);
    return Injector.faultsFired();
  };
  const std::uint64_t FirstRun = runOnce();
  // A 25% rate over 256 accesses fires a lot, and identically per run.
  EXPECT_GT(FirstRun, 0u);
  EXPECT_LT(FirstRun, 256u);
  EXPECT_EQ(runOnce(), FirstRun);
}

TEST(FaultInjectorTest, RateCrashDegeneratesToOneShotWithoutResurrection) {
  FaultClock Clock;
  // Probability 1 per access: the very first access dies. A harness
  // that does not resurrect (the closed-loop Driver) sees a one-shot.
  FaultInjector Injector(FaultPlan::crashAtRate(0, 1000), 0, Clock);
  AtomicRegister<std::uint32_t> Reg;
  SchedHookScope Scope(Injector);
  bool Crashed = false;
  try {
    Reg.write(1);
  } catch (const ProcessCrash &) {
    Crashed = true;
  }
  EXPECT_TRUE(Crashed);
  EXPECT_EQ(Injector.faultsFired(), 1u);
  EXPECT_EQ(Reg.peekForTesting(), 0u); // The write never executed.
}

TEST(FaultInjectorTest, RateStallFiresAtEveryAccessAndSoloRunsTerminate) {
  FaultClock Clock;
  FaultInjector Injector(FaultPlan::stallAtRate(0, /*Permille=*/1000,
                                                /*Grants=*/8),
                         0, Clock);
  AtomicRegister<std::uint32_t> Reg;
  {
    SchedHookScope Scope(Injector);
    for (std::uint32_t I = 0; I < 32; ++I)
      Reg.write(I);
  }
  // Probability 1: every access stalled, and the solo escape hatch
  // released each stall.
  EXPECT_EQ(Injector.fired(FaultKind::Stall), 32u);
  EXPECT_EQ(Reg.peekForTesting(), 31u);
}

/// Cumulative yields after each of \p Accesses writes by thread \p Tid
/// running \p Plan: equal vectors mean yields at the same accesses.
std::vector<std::uint64_t> yieldTrace(const FaultPlan &Plan,
                                      std::uint32_t Tid,
                                      std::uint32_t Accesses) {
  FaultClock Clock;
  FaultInjector Injector(Plan, Tid, Clock);
  AtomicRegister<std::uint32_t> Reg;
  SchedHookScope Scope(Injector);
  std::vector<std::uint64_t> Trace;
  for (std::uint32_t I = 0; I < Accesses; ++I) {
    Reg.write(I);
    Trace.push_back(Injector.fired(FaultKind::Yield));
  }
  EXPECT_EQ(Injector.fired(FaultKind::Stall), 0u);
  return Trace;
}

TEST(FaultInjectorTest, YieldRateFiresIdenticallyPerSeedAndTidNeverAtZero) {
  FaultPlan Plan = FaultPlan::chaos(2, /*YieldPermille=*/250);
  Plan.RateSeed = 99;
  const std::vector<std::uint64_t> Tid0 = yieldTrace(Plan, 0, 256);
  EXPECT_GT(Tid0.back(), 0u);
  EXPECT_LT(Tid0.back(), 256u);
  EXPECT_EQ(yieldTrace(Plan, 0, 256), Tid0);
  // Each thread and each seed draws its own stream.
  EXPECT_NE(yieldTrace(Plan, 1, 256), Tid0);
  FaultPlan Reseeded = Plan;
  Reseeded.RateSeed = 100;
  EXPECT_NE(yieldTrace(Reseeded, 0, 256), Tid0);
  // 0 permille builds no spec, so nothing fires.
  EXPECT_TRUE(FaultPlan::chaos(2, 0).empty());
  EXPECT_EQ(yieldTrace(FaultPlan::chaos(2, 0), 0, 256).back(), 0u);
}

TEST(FaultInjectorTest, ChaosPlanFiresBothChannelsInABatteryShapedRun) {
  using namespace conformance;
  // The battery's Chaos cell: StressThreads threads under its yield and
  // stall levels, the stall channel on one victim. Every thread must
  // yield, only the victim may stall, and it must.
  constexpr std::uint32_t Victim = 1;
  FaultPlan Plan = FaultPlan::chaos(StressThreads, ChaosYieldPermille,
                                    ChaosStallPermille, ChaosStallGrants,
                                    Victim);
  Plan.RateSeed = 0xC4A05ull;
  FaultClock Clock;
  std::vector<std::unique_ptr<FaultInjector>> Injectors;
  for (std::uint32_t T = 0; T < StressThreads; ++T)
    Injectors.push_back(std::make_unique<FaultInjector>(Plan, T, Clock));
  AtomicRegister<std::uint32_t> Reg;
  SpinBarrier Barrier(StressThreads);
  std::vector<std::thread> Threads;
  for (std::uint32_t T = 0; T < StressThreads; ++T)
    Threads.emplace_back([&, T] {
      SchedHookScope Scope(*Injectors[T]);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < 400; ++I)
        Reg.write(I);
    });
  for (std::thread &T : Threads)
    T.join();
  for (std::uint32_t T = 0; T < StressThreads; ++T) {
    EXPECT_GT(Injectors[T]->fired(FaultKind::Yield), 0u) << "tid " << T;
    if (T == Victim)
      EXPECT_GT(Injectors[T]->fired(FaultKind::Stall), 0u);
    else
      EXPECT_EQ(Injectors[T]->fired(FaultKind::Stall), 0u) << "tid " << T;
    EXPECT_EQ(Injectors[T]->fired(FaultKind::CrashStop), 0u);
  }
}

//===----------------------------------------------------------------------===
// faultPlanPick: explorer-side plan execution
//===----------------------------------------------------------------------===

/// Body performing \p Iters read+write rounds on its own register.
std::function<void()> counterBody(AtomicRegister<std::uint32_t> &Reg,
                                  std::uint32_t Iters) {
  return [&Reg, Iters] {
    for (std::uint32_t I = 0; I < Iters; ++I)
      Reg.write(Reg.read() + 1);
  };
}

TEST(FaultPlanPickTest, CrashLandsAtExactPerThreadAccessIndex) {
  AtomicRegister<std::uint32_t> Reg0, Reg1;
  InterleaveScheduler Scheduler(2);
  // Thread 0: 5 iterations = 10 accesses; crash at access index 3 (the
  // write of iteration 1) — only iteration 0's write lands.
  Scheduler.run({counterBody(Reg0, 5), counterBody(Reg1, 5)},
                faultPlanPick(FaultPlan::crashAt(0, 3)));
  EXPECT_EQ(Reg0.peekForTesting(), 1u);
  EXPECT_EQ(Reg1.peekForTesting(), 5u); // Survivor finished untouched.
}

TEST(FaultPlanPickTest, StallDefersVictimUntilForeignGrants) {
  AtomicRegister<std::uint32_t> Reg0, Reg1;
  InterleaveScheduler Scheduler(2);
  const auto Trace =
      Scheduler.run({counterBody(Reg0, 5), counterBody(Reg1, 5)},
                    faultPlanPick(FaultPlan::stallAt(0, 1, 4)));
  // Base policy favors thread 0; the stall hands grants 1..4 to thread 1
  // and thread 0 resumes at step 5. Both complete.
  ASSERT_GE(Trace.Decisions.size(), 6u);
  EXPECT_EQ(Trace.Decisions[0].Chosen & ~InterleaveScheduler::KillFlag, 0u);
  for (std::size_t Step = 1; Step <= 4; ++Step)
    EXPECT_EQ(Trace.Decisions[Step].Chosen & ~InterleaveScheduler::KillFlag,
              1u)
        << "step " << Step;
  EXPECT_EQ(Trace.Decisions[5].Chosen & ~InterleaveScheduler::KillFlag, 0u);
  EXPECT_EQ(Reg0.peekForTesting(), 5u);
  EXPECT_EQ(Reg1.peekForTesting(), 5u);
}

TEST(FaultPlanPickTest, SoloStallExpiresWhenNobodyElseCanRun) {
  AtomicRegister<std::uint32_t> Reg0;
  InterleaveScheduler Scheduler(1);
  Scheduler.run({counterBody(Reg0, 3)},
                faultPlanPick(FaultPlan::stallAt(0, 2, 100)));
  EXPECT_EQ(Reg0.peekForTesting(), 3u);
}

TEST(FaultPlanPickTest, RecurringStallKeepsExplorerRunsLive) {
  // The recurring spec re-fires at accesses 1, 4, 7, ... of thread 0;
  // the NextEligible guard must keep each stall from re-triggering at
  // the same access index, and both threads must still finish.
  AtomicRegister<std::uint32_t> Reg0, Reg1;
  InterleaveScheduler Scheduler(2);
  Scheduler.run({counterBody(Reg0, 6), counterBody(Reg1, 6)},
                faultPlanPick(FaultPlan::everyAccesses(
                    0, /*First=*/1, /*Period=*/3, FaultKind::Stall,
                    /*Grants=*/2)));
  EXPECT_EQ(Reg0.peekForTesting(), 6u);
  EXPECT_EQ(Reg1.peekForTesting(), 6u);
}

TEST(FaultPlanPickTest, RatePlansExploreSameScheduleEveryRun) {
  const auto runOnce = [](const FaultPlan &Plan) {
    AtomicRegister<std::uint32_t> Reg0, Reg1;
    InterleaveScheduler Scheduler(2);
    const auto Trace =
        Scheduler.run({counterBody(Reg0, 6), counterBody(Reg1, 6)},
                      faultPlanPick(Plan));
    EXPECT_EQ(Reg0.peekForTesting(), 6u);
    EXPECT_EQ(Reg1.peekForTesting(), 6u);
    std::vector<std::uint32_t> Choices;
    for (const auto &Decision : Trace.Decisions)
      Choices.push_back(Decision.Chosen);
    return Choices;
  };
  // Rate triggers draw from a per-victim stream seeded by the plan, so
  // the "random" faulty schedule replays exactly, for stalls and yields.
  const FaultPlan Stalls = FaultPlan::stallAtRate(0, 300, 2);
  EXPECT_EQ(runOnce(Stalls), runOnce(Stalls));
  const FaultPlan Yields = FaultPlan::chaos(2, 300);
  const std::vector<std::uint32_t> First = runOnce(Yields);
  EXPECT_EQ(runOnce(Yields), First);
  // Without a yield the base policy would run all 12 of thread 0's
  // accesses first.
  EXPECT_LT(std::find(First.begin(), First.end(), 1u) - First.begin(), 12);
}

TEST(FaultPlanPickTest, YieldGrantsTheStepToAnotherThread) {
  // A one-shot yield at thread 0's access 1: the base policy favours
  // thread 0, so step 1 goes to thread 1 and thread 0 resumes at step 2.
  FaultPlan Plan;
  Plan.Faults.push_back({0, 1, FaultKind::Yield});
  AtomicRegister<std::uint32_t> Reg0, Reg1;
  InterleaveScheduler Scheduler(2);
  const auto Trace = Scheduler.run(
      {counterBody(Reg0, 3), counterBody(Reg1, 3)}, faultPlanPick(Plan));
  ASSERT_GE(Trace.Decisions.size(), 3u);
  for (std::size_t Step = 0; Step < 3; ++Step)
    EXPECT_EQ(Trace.Decisions[Step].Chosen & ~InterleaveScheduler::KillFlag,
              Step == 1 ? 1u : 0u)
        << "step " << Step;
  EXPECT_EQ(Reg0.peekForTesting(), 3u);
  EXPECT_EQ(Reg1.peekForTesting(), 3u);
}

//===----------------------------------------------------------------------===
// LeasedLock
//===----------------------------------------------------------------------===

TEST(LeasedLockTest, AcquireReleaseBumpsEpoch) {
  LeasedLockT<> Lock(2);
  EXPECT_EQ(Lock.holderForTesting(), 0u);
  Lock.lock(0);
  EXPECT_EQ(Lock.holderForTesting(), 1u);
  EXPECT_EQ(Lock.epochForTesting(), 1u);
  Lock.unlock(0);
  EXPECT_EQ(Lock.holderForTesting(), 0u);
  Lock.lock(1);
  EXPECT_EQ(Lock.holderForTesting(), 2u);
  EXPECT_EQ(Lock.epochForTesting(), 2u);
  Lock.unlock(1);
  EXPECT_EQ(Lock.lostLeases(), 0u);
  EXPECT_EQ(Lock.revocations(), 0u);
}

TEST(LeasedLockTest, ExpiredLeaseIsRevokedAndHolderSuspected) {
  SuspectSetT<> Suspects(2);
  LeasedLockT<> Lock(2, &Suspects);
  ASSERT_EQ(Lock.lockBounded(0, 100), LeaseAcquire::Acquired);
  // Thread 0 "dies" holding the lock. A waiter's patience expires, the
  // holder is suspected, the lease revoked — and the waiter itself
  // reports TimedOut (it degrades; the *next* acquirer benefits).
  EXPECT_EQ(Lock.lockBounded(1, 8), LeaseAcquire::TimedOut);
  EXPECT_TRUE(Suspects.isSuspectForTesting(0));
  EXPECT_EQ(Lock.revocations(), 1u);
  EXPECT_EQ(Lock.holderForTesting(), 0u);
  // The next acquisition finds the lock free.
  EXPECT_EQ(Lock.lockBounded(1, 8), LeaseAcquire::Acquired);
  EXPECT_EQ(Lock.holderForTesting(), 2u);
}

TEST(LeasedLockTest, FalselySuspectedHolderLosesLeaseHarmlessly) {
  SuspectSetT<> Suspects(2);
  LeasedLockT<> Lock(2, &Suspects);
  ASSERT_EQ(Lock.lockBounded(0, 100), LeaseAcquire::Acquired);
  ASSERT_EQ(Lock.lockBounded(1, 8), LeaseAcquire::TimedOut); // revokes
  ASSERT_EQ(Lock.lockBounded(1, 8), LeaseAcquire::Acquired);
  const std::uint32_t Epoch = Lock.epochForTesting();
  // Thread 0 was alive after all: its release C&S misses (the epoch
  // moved on) and must not stomp thread 1's lease.
  Lock.unlock(0);
  EXPECT_EQ(Lock.lostLeases(), 1u);
  EXPECT_EQ(Lock.holderForTesting(), 2u);
  EXPECT_EQ(Lock.epochForTesting(), Epoch);
  Lock.unlock(1);
  EXPECT_EQ(Lock.holderForTesting(), 0u);
  EXPECT_EQ(Lock.lostLeases(), 1u);
}

TEST(LeasedLockTest, MutualExclusionUnderLiveContention) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint64_t PerThread = 2000;
  LeasedLockT<> Lock(Threads);
  std::uint64_t Counter = 0; // Unsynchronized: the lock must protect it.
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint64_t I = 0; I < PerThread; ++I) {
        // Patience far beyond any real scheduling delay, so no lease
        // ever expires and the lock is a plain deadlock-free lock.
        while (Lock.lockBounded(T, 1u << 28) != LeaseAcquire::Acquired) {
        }
        ++Counter;
        Lock.unlock(T);
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Counter, Threads * PerThread);
  EXPECT_EQ(Lock.revocations(), 0u);
  EXPECT_EQ(Lock.lostLeases(), 0u);
}

//===----------------------------------------------------------------------===
// RecoverableArbiter
//===----------------------------------------------------------------------===

TEST(RecoverableArbiterTest, SkipsDeadFlaggedTurnHolder) {
  SuspectSetT<> Suspects(2);
  RecoverableArbiterT<> Arbiter(2, Suspects);
  // Thread 0 enters (TURN starts at 0) and dies with its flag raised —
  // the exact liveness hole of the paper's Section 5 caveat.
  ASSERT_TRUE(Arbiter.enterBounded(0, 4));
  ASSERT_TRUE(Arbiter.flagForTesting(0));
  // Thread 1's patience expires, it suspects the corpse, skips TURN past
  // it and gets in — no hang.
  EXPECT_TRUE(Arbiter.enterBounded(1, 4));
  EXPECT_TRUE(Suspects.isSuspectForTesting(0));
  EXPECT_EQ(Arbiter.turnForTesting(), 1u);
  Arbiter.exitAndAdvance(1);
  EXPECT_FALSE(Arbiter.flagForTesting(1));
}

TEST(RecoverableArbiterTest, ResurrectionClearsOwnSuspectBit) {
  SuspectSetT<> Suspects(2);
  RecoverableArbiterT<> Arbiter(2, Suspects);
  Suspects.markSuspect(1);
  // A live suspect re-entering the doorway clears its own bit,
  // restoring round-robin fairness.
  ASSERT_TRUE(Arbiter.enterBounded(1, 4));
  EXPECT_FALSE(Suspects.isSuspectForTesting(1));
  Arbiter.exitAndAdvance(1);
}

TEST(RecoverableArbiterTest, EntryIsBoundedAfterTwoSuspicionRounds) {
  SuspectSetT<> Suspects(3);
  RecoverableArbiterT<> Arbiter(3, Suspects);
  // Two corpses with raised flags: thread 1 first (gets in because
  // thread 0 is not competing), then thread 0 (TURN is its own).
  ASSERT_TRUE(Arbiter.enterBounded(1, 4));
  ASSERT_TRUE(Arbiter.enterBounded(0, 4));
  ASSERT_EQ(Arbiter.turnForTesting(), 0u);
  // Thread 2 burns one suspicion on thread 0, skips to TURN=1, burns its
  // second patience round there and gives up — bounded entry, the
  // caller degrades instead of hanging here.
  EXPECT_FALSE(Arbiter.enterBounded(2, 4));
  EXPECT_FALSE(Arbiter.flagForTesting(2)); // Flag withdrawn on failure.
  EXPECT_TRUE(Suspects.isSuspectForTesting(0));
}

TEST(RecoverableArbiterTest, ReEntryAfterWithdrawalSucceedsOnThirdSuspicion) {
  SuspectSetT<> Suspects(3);
  RecoverableArbiterT<> Arbiter(3, Suspects);
  // Same two-corpse setup as the bounded-entry test: thread 1 enters
  // past thread 0's lowered flag, thread 0 enters on its own TURN.
  ASSERT_TRUE(Arbiter.enterBounded(1, 4));
  ASSERT_TRUE(Arbiter.enterBounded(0, 4));
  ASSERT_EQ(Arbiter.turnForTesting(), 0u);
  // Thread 2 spends its first suspicion on thread 0 (TURN skips to 1),
  // then withdraws during its second patience round — before thread 1 is
  // ever suspected.
  ASSERT_FALSE(Arbiter.enterBounded(2, 2));
  ASSERT_EQ(Arbiter.turnForTesting(), 1u);
  ASSERT_TRUE(Suspects.isSuspectForTesting(0));
  ASSERT_FALSE(Suspects.isSuspectForTesting(1));
  // Re-entry gets a fresh two-suspicion budget: this round suspects the
  // second corpse, TURN skips to thread 2 itself, and it enters — a
  // withdrawn process is delayed, never wedged out of the doorway.
  EXPECT_TRUE(Arbiter.enterBounded(2, 4));
  EXPECT_TRUE(Suspects.isSuspectForTesting(1));
  EXPECT_EQ(Arbiter.turnForTesting(), 2u);
  Arbiter.exitAndAdvance(2);
  EXPECT_FALSE(Arbiter.flagForTesting(2));
}

TEST(RecoverableArbiterTest, WithdrawLowersFlagWithoutAdvancingTurn) {
  SuspectSetT<> Suspects(2);
  RecoverableArbiterT<> Arbiter(2, Suspects);
  ASSERT_TRUE(Arbiter.enterBounded(0, 4));
  const std::uint32_t Turn = Arbiter.turnForTesting();
  Arbiter.withdraw(0);
  EXPECT_FALSE(Arbiter.flagForTesting(0));
  EXPECT_EQ(Arbiter.turnForTesting(), Turn);
}

//===----------------------------------------------------------------------===
// CrashTolerantContentionSensitive: fault-free behaviour
//===----------------------------------------------------------------------===

/// Weak push whose first attempt reports bottom without touching shared
/// memory — a zero-cost deterministic detour onto the slow path.
template <typename StackT>
auto forcedSlowPush(StackT &Stack, std::uint32_t V) {
  return [&Stack, V, Attempts = 0]() mutable -> std::optional<PushResult> {
    if (Attempts++ == 0)
      return std::nullopt;
    const PushResult R = Stack.weakPush(V);
    if (R == PushResult::Abort)
      return std::nullopt;
    return R;
  };
}

TEST(CrashTolerantTest, FastPathKeepsTheSixAccessBound) {
  // Acceptance bound: with no faults the contention-free fast path costs
  // exactly what the paper's Figure 3 costs — one CONTENTION read plus
  // the weak operation (6 accesses for the stack) — and the degradation
  // counter stays at zero.
  CrashTolerantStack<> Tolerant(2, 8);
  ContentionSensitiveStack<> Baseline(2, 8);
  const AccessCounts TolerantPush =
      countAccesses([&] { (void)Tolerant.push(0, 7); });
  const AccessCounts BaselinePush =
      countAccesses([&] { (void)Baseline.push(0, 7); });
  EXPECT_EQ(TolerantPush.total(), BaselinePush.total());
  EXPECT_EQ(TolerantPush.total(), 6u);
  const AccessCounts TolerantPop =
      countAccesses([&] { (void)Tolerant.pop(0); });
  EXPECT_EQ(TolerantPop.total(), 6u);
  const DegradationStats Stats =
      Tolerant.skeleton().slowPath().lock().statsForTesting();
  EXPECT_EQ(Stats.Degradations, 0u);
  EXPECT_EQ(Stats.DoorwayTimeouts, 0u);
  EXPECT_EQ(Stats.LeaseTimeouts, 0u);
  EXPECT_EQ(Stats.ProtectedOps, 0u);
}

/// The crash-tolerant objects are the contention-sensitive wrappers with
/// this skeleton plugged in: the constructor argument after the wrapper's
/// own reaches the skeleton's leased lock as its patience, and leaving it
/// out keeps the default of 4096.
TEST(CrashTolerantTest, WrappersForwardPatienceToTheSkeleton) {
  auto PatienceOf = [](auto &&Obj) {
    return Obj.skeleton().slowPath().lock().patience();
  };
  EXPECT_EQ(PatienceOf(CrashTolerantStack<>(2, 8, /*Patience=*/5)), 5u);
  EXPECT_EQ(PatienceOf(CrashTolerantQueue<>(2, 8, /*Patience=*/6)), 6u);
  EXPECT_EQ(PatienceOf(CrashTolerantDeque<>(2, 8, /*InitialLeftSlots=*/4,
                                            /*Patience=*/7)),
            7u);
  using CtLock = CrashTolerantContentionSensitive<>::SlowPath::LockType;
  EXPECT_EQ(CtLock::DefaultPatience, 4096u);
  EXPECT_EQ(PatienceOf(CrashTolerantStack<>(2, 8)), CtLock::DefaultPatience);
}

TEST(CrashTolerantTest, ForcedSlowPathCompletesProtected) {
  CrashTolerantContentionSensitive<> Skeleton(2, /*Patience=*/8);
  AbortableStack<> Stack(8);
  auto &Lock = Skeleton.slowPath().lock();
  const PushResult R = Skeleton.strongApply(0, forcedSlowPush(Stack, 7));
  EXPECT_EQ(R, PushResult::Done);
  const DegradationStats Stats = Lock.statsForTesting();
  EXPECT_EQ(Stats.ProtectedOps, 1u);
  EXPECT_EQ(Stats.Degradations, 0u);
  EXPECT_FALSE(Skeleton.contentionForTesting());
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u);
  EXPECT_FALSE(Lock.arbiter().flagForTesting(0));
}

TEST(CrashTolerantTest, DegradesWhenTheLockNeverFrees) {
  CrashTolerantContentionSensitive<> Skeleton(2, /*Patience=*/8);
  AbortableStack<> Stack(8);
  auto &Lock = Skeleton.slowPath().lock();
  // Occupy the lock out-of-band, simulating a holder that never returns.
  ASSERT_EQ(Lock.inner().lockBounded(0, 100), LeaseAcquire::Acquired);
  const PushResult R = Skeleton.strongApply(1, forcedSlowPush(Stack, 7));
  EXPECT_EQ(R, PushResult::Done);
  const DegradationStats Stats = Lock.statsForTesting();
  EXPECT_EQ(Stats.Degradations, 1u);
  EXPECT_EQ(Stats.LeaseTimeouts, 1u);
  EXPECT_EQ(Stats.Revocations, 1u);
  EXPECT_TRUE(Lock.suspects().isSuspectForTesting(0));
  // The revocation freed the lock: the next slow operation completes
  // protected and the system is healed.
  const PushResult R2 = Skeleton.strongApply(1, forcedSlowPush(Stack, 8));
  EXPECT_EQ(R2, PushResult::Done);
  EXPECT_EQ(Lock.statsForTesting().ProtectedOps, 1u);
  EXPECT_EQ(Lock.inner().holderForTesting(), 0u);
  // The out-of-band "holder" discovers its lease is gone — harmlessly.
  Lock.inner().unlock(0);
  EXPECT_EQ(Lock.statsForTesting().LostLeases, 1u);
}

//===----------------------------------------------------------------------===
// Lincheck stress over degraded mode
//===----------------------------------------------------------------------===

TEST(FaultsLincheckStress, DegradedModeHistoriesLinearize) {
  // A patience of 2 makes doorway and lease timeouts routine under live
  // contention, so the merged histories mix fast-path, protected and
  // degraded completions — all three must interleave linearizably
  // (every linearization point is a weak-object C&S; the lock is only a
  // contention-reduction device).
  const RoundsVerdict V = checkRounds<CrashTolerantStack<>>(
      {.Threads = 3, .OpsPerThread = 6, .Rounds = 40, .SeedStride = 1000},
      BoundedStackSpec(4), 3u, 4u, /*Patience=*/2u);
  EXPECT_EQ(V.Aborts, 0u); // Strong operations never answer bottom.
  ASSERT_TRUE(V.passed()) << V.failure();
}

//===----------------------------------------------------------------------===
// Watchdog
//===----------------------------------------------------------------------===

TEST(WatchdogTest, CatchesAnOperationOverItsDeadline) {
  Watchdog Dog(1, /*DeadlineNs=*/5 * 1000 * 1000);
  Dog.start();
  Dog.arm(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  Dog.stop(); // Final scan catches the still-armed op deterministically.
  ASSERT_GE(Dog.stuckCount(), 1u);
  const auto Reports = Dog.stuckReports();
  EXPECT_EQ(Reports.front().Tid, 0u);
  EXPECT_GE(Reports.front().ObservedNs, Dog.deadlineNs());
}

TEST(WatchdogTest, ReportsEachOperationAtMostOnce) {
  Watchdog Dog(1, /*DeadlineNs=*/1000, /*PollIntervalNs=*/100 * 1000);
  Dog.start();
  Dog.arm(0);
  // Many poll cycles elapse; the single armed op yields a single report.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Dog.stop();
  EXPECT_EQ(Dog.stuckCount(), 1u);
}

TEST(WatchdogTest, DisarmedAndDisabledReportNothing) {
  Watchdog Dog(2, /*DeadlineNs=*/1000 * 1000);
  Dog.start();
  Dog.arm(0);
  Dog.disarm(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Dog.stop();
  EXPECT_EQ(Dog.stuckCount(), 0u);

  Watchdog Off(2, /*DeadlineNs=*/0);
  Off.start(); // No-op.
  Off.arm(1);
  Off.stop();
  EXPECT_EQ(Off.stuckCount(), 0u);
}

TEST(WatchdogTest, ChurningHealthyOpsAreNeverReported) {
  // Regression: scanOnce read the clock before a slot's arm time, so an
  // op armed between the two reads looked ~2^64 ns old and was reported
  // stuck (3-8 false reports per second in a soak). Thread 1 arms and
  // disarms in a tight loop for longer than the 1 s deadline while thread
  // 0 holds one op armed the whole time: exactly that op is reported.
  Watchdog Dog(2, /*DeadlineNs=*/1000 * 1000 * 1000,
               /*PollIntervalNs=*/100 * 1000);
  Dog.start();
  Dog.arm(0);
  std::atomic<bool> Stop{false};
  std::thread Churn([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      Dog.arm(1);
      Dog.disarm(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  Stop.store(true, std::memory_order_relaxed);
  Churn.join();
  Dog.stop();
  const auto Reports = Dog.stuckReports();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports.front().Tid, 0u);
  EXPECT_GE(Reports.front().ObservedNs, Dog.deadlineNs());
}

TEST(WatchdogTest, DisabledWatchdogAddsZeroSharedAccesses) {
  // Regression guard for the measurement harness: a deadline of 0 turns
  // the watchdog off, and "off" must mean free — arm/disarm on the hot
  // path may not touch instrumented shared memory, or every access-count
  // bound in the battery would silently inflate.
  Watchdog Off(2, /*DeadlineNs=*/0);
  Off.start();
  const AccessCounts Counts = countAccesses([&] {
    Off.arm(0);
    Off.disarm(0);
  });
  Off.stop();
  EXPECT_EQ(Counts.total(), 0u);
}

TEST(WatchdogTest, StopStartReuseDrainsPerWindowAndKeepsLifetimeTotal) {
  // The soak collector's contract: one Watchdog instance is reused
  // across windows, drainReports() hands over each window's catches,
  // stuckCount() keeps the lifetime total.
  Watchdog Dog(1, /*DeadlineNs=*/1000 * 1000, /*PollIntervalNs=*/200 * 1000);

  // Window 1: one stuck op.
  Dog.start();
  Dog.arm(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Dog.stop();
  const auto Window1 = Dog.drainReports();
  ASSERT_EQ(Window1.size(), 1u);
  EXPECT_EQ(Window1.front().Tid, 0u);
  EXPECT_EQ(Dog.stuckCount(), 1u);
  EXPECT_TRUE(Dog.drainReports().empty()); // Drained means drained.
  Dog.disarm(0);

  // Window 2: the same instance restarts and catches a fresh op (the
  // new arm timestamp is a new identity).
  Dog.start();
  Dog.arm(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Dog.stop();
  const auto Window2 = Dog.drainReports();
  ASSERT_EQ(Window2.size(), 1u);
  EXPECT_EQ(Dog.stuckCount(), 2u); // Lifetime total spans both windows.
}

//===----------------------------------------------------------------------===
// Driver integration: planned faults + watchdog as a liveness oracle
//===----------------------------------------------------------------------===

TEST(DriverFaultsTest, PlannedCrashRetiresVictimAndSurvivorsFinish) {
  WorkloadConfig Config;
  Config.Threads = 3;
  Config.OpsPerThread = 400;
  Config.Capacity = 64;
  Config.Seed = 7;
  // Crash thread 0 at its 50th shared access — mid-operation, wherever
  // that lands (possibly inside the doorway or holding the lease).
  Config.Faults = FaultPlan::crashAt(0, 50);
  // Liveness oracle: no survivor operation may overstay 5 seconds.
  Config.OpDeadlineNs = 5ull * 1000 * 1000 * 1000;
  Driven<CrashTolerantStack<>> Adapter(Config.Threads, Config.Capacity);
  const WorkloadReport Report = runClosedLoop(Adapter, Config);

  EXPECT_EQ(Report.crashedThreads(), 1u);
  EXPECT_TRUE(Report.PerThread[0].Crashed);
  EXPECT_LT(Report.PerThread[0].completedOps(), Config.OpsPerThread);
  for (std::uint32_t T = 1; T < Config.Threads; ++T) {
    EXPECT_FALSE(Report.PerThread[T].Crashed);
    EXPECT_EQ(Report.PerThread[T].completedOps(), Config.OpsPerThread);
  }
  EXPECT_EQ(Report.StuckOps, 0u);
  // Strong operations never surface bottom, crash or no crash.
  EXPECT_EQ(Report.totalAborts(), 0u);
}

TEST(DriverFaultsTest, ChaosStallChannelKeepsRunsLive) {
  WorkloadConfig Config;
  Config.Threads = 2;
  Config.OpsPerThread = 200;
  Config.Capacity = 64;
  Config.Faults = FaultPlan::chaos(Config.Threads, /*YieldPermille=*/0,
                                   /*StallPermille=*/100,
                                   /*StallGrants=*/32);
  Config.OpDeadlineNs = 5ull * 1000 * 1000 * 1000;
  Driven<CrashTolerantStack<>> Adapter(Config.Threads, Config.Capacity);
  const WorkloadReport Report = runClosedLoop(Adapter, Config);
  EXPECT_EQ(Report.crashedThreads(), 0u);
  EXPECT_EQ(Report.totalOps(),
            static_cast<std::uint64_t>(Config.Threads) * Config.OpsPerThread);
  EXPECT_EQ(Report.StuckOps, 0u);
}

} // namespace
} // namespace csobj
