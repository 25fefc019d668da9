//===- tests/waitfree_test.cpp - Wait-free universal object --------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "core/WaitFreeUniversal.h"

#include "lincheck/Spec.h"
#include "runtime/LincheckRounds.h"
#include "runtime/SpinBarrier.h"
#include "sched/Explorer.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// Wait-free counter
//===----------------------------------------------------------------------===

TEST(WaitFreeCounterTest, SequentialAdds) {
  WaitFreeCounter<> Counter(1);
  EXPECT_EQ(Counter.add(0, 5), 5u);
  EXPECT_EQ(Counter.add(0, 3), 8u);
  EXPECT_EQ(Counter.valueForTesting(), 8u);
}

TEST(WaitFreeCounterTest, TwoThreadsAlternating) {
  WaitFreeCounter<> Counter(2);
  EXPECT_EQ(Counter.add(0, 1), 1u);
  EXPECT_EQ(Counter.add(1, 1), 2u);
  EXPECT_EQ(Counter.add(0, 1), 3u);
  EXPECT_EQ(Counter.add(1, 1), 4u);
}

TEST(WaitFreeCounterTest, ExactUnderContention) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 5000;
  WaitFreeCounter<> Counter(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  std::vector<std::uint64_t> LastSeen(Threads, 0);
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I) {
        const std::uint64_t R = Counter.add(T, 1);
        // Results must be strictly increasing per thread (each add's
        // return is the counter value at its linearization point).
        ASSERT_GT(R, LastSeen[T]);
        LastSeen[T] = R;
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Counter.valueForTesting(),
            static_cast<std::uint64_t>(Threads) * PerThread);
}

TEST(WaitFreeCounterExhaustive, TwoRacingAddsAllInterleavings) {
  ScheduleExplorer Explorer;
  std::uint64_t Violations = 0;
  const ExploreResult Result = Explorer.exploreAll([&] {
    auto Counter = std::make_shared<WaitFreeCounter<2>>(2);
    auto Results = std::make_shared<std::vector<std::uint64_t>>(2, 0);
    ScenarioRun Run;
    for (std::uint32_t T = 0; T < 2; ++T)
      Run.Bodies.push_back([Counter, Results, T] {
        (*Results)[T] = Counter->add(T, T + 1); // +1 and +2.
      });
    Run.PostCheck = [Counter, Results, &Violations] {
      // Total is exact; each result is a legal intermediate value.
      if (Counter->valueForTesting() != 3)
        ++Violations;
      const std::uint64_t R0 = (*Results)[0], R1 = (*Results)[1];
      const bool Order01 = (R0 == 1 && R1 == 3); // add0 then add1.
      const bool Order10 = (R0 == 3 && R1 == 2); // add1 then add0.
      if (!Order01 && !Order10)
        ++Violations;
    };
    return Run;
  });
  EXPECT_TRUE(Result.Complete);
  EXPECT_EQ(Violations, 0u);
  EXPECT_GT(Result.Runs, 5u);
}

//===----------------------------------------------------------------------===
// Wait-free stack
//===----------------------------------------------------------------------===

TEST(WaitFreeStackTest, SequentialLifoAndBounds) {
  WaitFreeStack<2> Stack(1);
  EXPECT_TRUE(Stack.pop(0).isEmpty());
  EXPECT_EQ(Stack.push(0, 10), PushResult::Done);
  EXPECT_EQ(Stack.push(0, 20), PushResult::Done);
  EXPECT_EQ(Stack.push(0, 30), PushResult::Full);
  auto R = Stack.pop(0);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 20u);
  R = Stack.pop(0);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 10u);
  EXPECT_TRUE(Stack.pop(0).isEmpty());
}

TEST(WaitFreeStackTest, ConcurrentConservation) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 1000;
  WaitFreeStack<64> Stack(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::int64_t> Net(Threads, 0);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 9);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I) {
        if (Rng.chance(1, 2)) {
          if (Stack.push(T, static_cast<std::uint32_t>(Rng.below(1u << 20))) ==
              PushResult::Done)
            ++Net[T];
        } else if (Stack.pop(T).isValue()) {
          --Net[T];
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  std::int64_t Total = 0;
  for (std::int64_t X : Net)
    Total += X;
  ASSERT_GE(Total, 0);
  EXPECT_EQ(Stack.sizeForTesting(), static_cast<std::uint32_t>(Total));
}

TEST(WaitFreeStackLincheck, ConcurrentHistoriesLinearize) {
  const RoundsVerdict V = checkRounds<WaitFreeStack<4>>(
      {.Threads = 3, .OpsPerThread = 6, .Rounds = 40, .SeedStride = 131},
      BoundedStackSpec(4), 3u);
  ASSERT_TRUE(V.passed()) << V.failure();
}

TEST(WaitFreeStackExhaustive, PushRacingPopConsistent) {
  ScheduleExplorer Explorer(ExploreOptions{/*MaxRuns=*/100000,
                                           /*StepCap=*/100000});
  std::uint64_t Violations = 0;
  const ExploreResult Result = Explorer.exploreAll([&] {
    auto Stack = std::make_shared<WaitFreeStack<4, 2>>(2);
    EXPECT_EQ(Stack->push(0, 9), PushResult::Done);
    auto PopRes = std::make_shared<PopResult<std::uint32_t>>(
        PopResult<std::uint32_t>::abort());
    auto PushRes = std::make_shared<PushResult>(PushResult::Abort);
    ScenarioRun Run;
    Run.Bodies.push_back(
        [Stack, PushRes] { *PushRes = Stack->push(0, 5); });
    Run.Bodies.push_back([Stack, PopRes] { *PopRes = Stack->pop(1); });
    Run.PostCheck = [Stack, PushRes, PopRes, &Violations] {
      // Wait-free: both complete, never "abort". Pop sees 9 or 5.
      if (*PushRes != PushResult::Done)
        ++Violations;
      if (!PopRes->isValue())
        ++Violations;
      else if (PopRes->value() != 9 && PopRes->value() != 5)
        ++Violations;
      if (Stack->sizeForTesting() != 1)
        ++Violations;
    };
    return Run;
  });
  EXPECT_TRUE(Result.Complete) << Result.Runs;
  EXPECT_EQ(Violations, 0u);
}

} // namespace
} // namespace csobj
