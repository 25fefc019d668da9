//===- tests/contention_manager_test.cpp - Manager layer tests -----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contention-manager layer: concept conformance, the unit dynamics
/// of the yield and adaptive managers (including the adaptive manager's
/// use of the CasFailures instrumentation channel), and the equivalence
/// guarantee the sweep bench relies on — every manager crossed with the
/// Fast register policy still yields linearizable stacks and queues
/// under a mixed concurrent workload (managers may only pace retries,
/// never change outcomes).
///
//===----------------------------------------------------------------------===//

#include "HistoryRecording.h"

#include "support/ContentionManager.h"

#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "core/NonBlockingQueue.h"
#include "core/NonBlockingStack.h"
#include "lincheck/Checker.h"
#include "lincheck/History.h"
#include "lincheck/Spec.h"
#include "locks/TasLock.h"
#include "memory/AccessCounter.h"
#include "memory/AtomicRegister.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// Concept conformance
//===----------------------------------------------------------------------===

static_assert(ContentionManager<NoBackoff>);
static_assert(ContentionManager<ExponentialBackoff>);
static_assert(ContentionManager<YieldBackoff>);
static_assert(ContentionManager<AdaptiveBackoff>);
static_assert(!ContentionManager<int>);

TEST(ContentionManagerTest, ManagerNames) {
  EXPECT_STREQ(NoBackoff::Name, "none");
  EXPECT_STREQ(ExponentialBackoff::Name, "exp");
  EXPECT_STREQ(YieldBackoff::Name, "yield");
  EXPECT_STREQ(AdaptiveBackoff::Name, "adaptive");
}

//===----------------------------------------------------------------------===
// YieldBackoff unit dynamics
//===----------------------------------------------------------------------===

TEST(ContentionManagerTest, YieldBackoffCountsAndResets) {
  YieldBackoff Mgr(/*SpinBudget=*/2);
  EXPECT_EQ(Mgr.abortsObserved(), 0u);
  Mgr.onAbort(); // Spin.
  Mgr.onAbort(); // Spin.
  Mgr.onAbort(); // Past the budget: yields, but must still return.
  EXPECT_EQ(Mgr.abortsObserved(), 3u);
  Mgr.onSuccess();
  EXPECT_EQ(Mgr.abortsObserved(), 0u);
}

//===----------------------------------------------------------------------===
// AdaptiveBackoff unit dynamics
//===----------------------------------------------------------------------===

TEST(ContentionManagerTest, AdaptiveWidensOneDoublingPerAbortUninstrumented) {
  // No access-counter scope: each abort is the single observable failure,
  // so the manager degrades to plain capped doubling.
  AdaptiveBackoff Mgr(/*MinWindow=*/2, /*MaxWindow=*/64);
  EXPECT_EQ(Mgr.window(), 2u);
  Mgr.onAbort();
  EXPECT_EQ(Mgr.window(), 4u);
  Mgr.onAbort();
  EXPECT_EQ(Mgr.window(), 8u);
  for (int I = 0; I < 10; ++I)
    Mgr.onAbort();
  EXPECT_EQ(Mgr.window(), 64u); // Capped.
}

TEST(ContentionManagerTest, AdaptiveWidensFromObservedCasFailures) {
  // Under instrumentation the manager reads the thread's CasFailures
  // delta: three failed C&S since the last abort → three doublings at
  // once, not one.
  AccessCounts Counts;
  AccessCounterScope Scope(Counts);
  AdaptiveBackoff Mgr(/*MinWindow=*/2, /*MaxWindow=*/4096);
  AtomicRegister<std::uint32_t, Instrumented> Reg(0);
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(Reg.compareAndSwap(99, 1)); // Three counted failures.
  Mgr.onAbort();
  EXPECT_EQ(Mgr.window(), 2u << 3);
  // No further failures before the next abort → minimum one doubling.
  Mgr.onAbort();
  EXPECT_EQ(Mgr.window(), 2u << 4);
}

TEST(ContentionManagerTest, AdaptiveSuccessHalvesDownToFloor) {
  AdaptiveBackoff Mgr(/*MinWindow=*/2, /*MaxWindow=*/64);
  for (int I = 0; I < 4; ++I)
    Mgr.onAbort();
  EXPECT_EQ(Mgr.window(), 32u);
  Mgr.onSuccess();
  EXPECT_EQ(Mgr.window(), 16u);
  for (int I = 0; I < 10; ++I)
    Mgr.onSuccess();
  EXPECT_EQ(Mgr.window(), 2u); // Never below the floor.
}

TEST(ContentionManagerTest, AdaptiveDefaultSeedDivergesAcrossThreads) {
  // Same regression as BackoffTest.DefaultSeedDivergesAcrossThreads, for
  // the adaptive manager (it carries its own SplitMix64): two default-
  // seeded managers on different threads must not share a stream. Wide
  // fixed window, no aborts in between, so only the seed can differ.
  constexpr std::uint32_t Wide = 1u << 20;
  constexpr std::size_t Draws = 8;
  std::vector<std::uint64_t> A, B;
  std::thread T1([&] {
    AdaptiveBackoff Mgr(Wide, Wide);
    for (std::size_t I = 0; I < Draws; ++I)
      A.push_back(Mgr.stepDrawForTesting());
  });
  std::thread T2([&] {
    AdaptiveBackoff Mgr(Wide, Wide);
    for (std::size_t I = 0; I < Draws; ++I)
      B.push_back(Mgr.stepDrawForTesting());
  });
  T1.join();
  T2.join();
  EXPECT_NE(A, B);

  // And an explicit seed restores determinism for directed tests.
  AdaptiveBackoff First(Wide, Wide, /*Seed=*/7);
  AdaptiveBackoff Second(Wide, Wide, /*Seed=*/7);
  for (std::size_t I = 0; I < Draws; ++I)
    EXPECT_EQ(First.stepDrawForTesting(), Second.stepDrawForTesting());
}

//===----------------------------------------------------------------------===
// Linearizability: Fast policy x every manager (mixed workload oracle)
//===----------------------------------------------------------------------===

/// Same harness as lincheck_test.cpp's stress section: rounds of random
/// concurrent operations, merged history checked against the sequential
/// spec.
template <typename MakeObjFn, typename ApplyFn, typename SpecFn>
void runAndCheck(std::uint32_t Threads, std::uint32_t OpsPerThread,
                 std::uint32_t Rounds, MakeObjFn MakeObject, ApplyFn Apply,
                 SpecFn MakeSpec) {
  for (std::uint32_t Round = 0; Round < Rounds; ++Round) {
    auto Object = MakeObject();
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Recorders.emplace_back(T);
    SpinBarrier Barrier(Threads);
    std::vector<std::thread> Workers;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        SplitMix64 Rng(Round * 7919 + T);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
          const bool IsPush = Rng.chance(1, 2);
          const auto V =
              static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
          Apply(*Object, T, IsPush, V, Recorders[T]);
        }
      });
    for (auto &W : Workers)
      W.join();
    const History H = mergeHistories(Recorders);
    ASSERT_TRUE(H.wellFormed());
    const CheckResult Result = checkLinearizable(H, MakeSpec());
    ASSERT_FALSE(Result.HitSearchCap) << "inconclusive check";
    ASSERT_TRUE(Result.Linearizable) << Result.FailureNote;
  }
}

template <ContentionManager Manager> void stressFastNbStack() {
  using Stack = NonBlockingStack<Compact64, Manager, Fast>;
  runAndCheck(
      3, 6, 25, [] { return std::make_unique<Stack>(4); },
      [](Stack &S, std::uint32_t, bool IsPush, std::uint32_t V,
         HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, S.push(V), V, T0);
        else
          recordPop(Rec, S.pop(), T0);
      },
      [] { return BoundedStackSpec(4); });
}

template <ContentionManager Manager> void stressFastCsStack() {
  using Stack =
      ContentionSensitiveStack<Compact64, TasLockT<Fast>, Manager, Fast>;
  runAndCheck(
      3, 6, 25, [] { return std::make_unique<Stack>(3, 4); },
      [](Stack &S, std::uint32_t Tid, bool IsPush, std::uint32_t V,
         HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, S.push(Tid, V), V, T0);
        else
          recordPop(Rec, S.pop(Tid), T0);
      },
      [] { return BoundedStackSpec(4); });
}

template <ContentionManager Manager> void stressFastNbQueue() {
  using Queue = NonBlockingQueue<Compact64, Manager, Fast>;
  runAndCheck(
      3, 6, 25, [] { return std::make_unique<Queue>(4); },
      [](Queue &Q, std::uint32_t, bool IsPush, std::uint32_t V,
         HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Q.enqueue(V), V, T0);
        else
          recordPop(Rec, Q.dequeue(), T0);
      },
      [] { return BoundedQueueSpec(4); });
}

TEST(FastPolicyLincheck, NbStackNoBackoff) { stressFastNbStack<NoBackoff>(); }
TEST(FastPolicyLincheck, NbStackExponential) {
  stressFastNbStack<ExponentialBackoff>();
}
TEST(FastPolicyLincheck, NbStackYield) { stressFastNbStack<YieldBackoff>(); }
TEST(FastPolicyLincheck, NbStackAdaptive) {
  stressFastNbStack<AdaptiveBackoff>();
}

TEST(FastPolicyLincheck, CsStackNoBackoff) { stressFastCsStack<NoBackoff>(); }
TEST(FastPolicyLincheck, CsStackExponential) {
  stressFastCsStack<ExponentialBackoff>();
}
TEST(FastPolicyLincheck, CsStackYield) { stressFastCsStack<YieldBackoff>(); }
TEST(FastPolicyLincheck, CsStackAdaptive) {
  stressFastCsStack<AdaptiveBackoff>();
}

TEST(FastPolicyLincheck, NbQueueNoBackoff) { stressFastNbQueue<NoBackoff>(); }
TEST(FastPolicyLincheck, NbQueueYield) { stressFastNbQueue<YieldBackoff>(); }
TEST(FastPolicyLincheck, NbQueueAdaptive) {
  stressFastNbQueue<AdaptiveBackoff>();
}

TEST(FastPolicyLincheck, CsQueueAdaptive) {
  using Queue =
      ContentionSensitiveQueue<Compact64, TasLockT<Fast>, AdaptiveBackoff,
                               Fast>;
  runAndCheck(
      3, 6, 25, [] { return std::make_unique<Queue>(3, 4); },
      [](Queue &Q, std::uint32_t Tid, bool IsPush, std::uint32_t V,
         HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Q.enqueue(Tid, V), V, T0);
        else
          recordPop(Rec, Q.dequeue(Tid), T0);
      },
      [] { return BoundedQueueSpec(4); });
}

//===----------------------------------------------------------------------===
// Managers inside the Figure 3 protected retry terminate
//===----------------------------------------------------------------------===

TEST(ContentionManagerTest, CsStackUnderLoadWithEveryManagerCompletes) {
  // Hammer the strong operations from several threads; every operation
  // must complete (starvation-freedom is unaffected by retry pacing).
  const std::uint32_t Threads = 4;
  const std::uint32_t Ops = 400;
  ContentionSensitiveStack<Compact64, TasLockT<Instrumented>,
                           AdaptiveBackoff, Instrumented>
      Stack(Threads, 16);
  SpinBarrier Barrier(Threads);
  std::vector<std::uint64_t> Completed(Threads, 0);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < Ops; ++I) {
        if ((I + T) % 2 == 0)
          (void)Stack.push(T, I + 1);
        else
          (void)Stack.pop(T);
        ++Completed[T];
      }
    });
  for (auto &W : Workers)
    W.join();
  for (std::uint32_t T = 0; T < Threads; ++T)
    EXPECT_EQ(Completed[T], Ops);
}

} // namespace
} // namespace csobj
