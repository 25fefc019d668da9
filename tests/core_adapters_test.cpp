//===- tests/core_adapters_test.cpp - BoxedStack, counter, genericity ----===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the pieces built *around* the paper's core: the boxed-value
/// wrapper, the counter instantiation of Figure 3, and wrapping foreign
/// abortable objects (Treiber single-attempt ops) in the skeleton.
///
//===----------------------------------------------------------------------===//

#include "baselines/TreiberStack.h"
#include "core/BoxedStack.h"
#include "core/ContentionSensitiveCounter.h"
#include "core/TimestampBoost.h"
#include "locks/TicketLock.h"
#include "memory/AccessCounter.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// BoxedStack<T>
//===----------------------------------------------------------------------===

TEST(BoxedStackTest, HoldsStrings) {
  BoxedStack<std::string> Stack(2, 4);
  EXPECT_TRUE(Stack.push(0, "hello"));
  EXPECT_TRUE(Stack.push(1, "world"));
  auto A = Stack.pop(0);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(*A, "world");
  auto B = Stack.pop(1);
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(*B, "hello");
  EXPECT_FALSE(Stack.pop(0).has_value());
}

TEST(BoxedStackTest, FullAtCapacity) {
  BoxedStack<int> Stack(1, 2);
  EXPECT_TRUE(Stack.push(0, 1));
  EXPECT_TRUE(Stack.push(0, 2));
  EXPECT_FALSE(Stack.push(0, 3));
  (void)Stack.pop(0);
  EXPECT_TRUE(Stack.push(0, 4));
}

TEST(BoxedStackTest, MoveOnlyPayloads) {
  BoxedStack<std::unique_ptr<int>> Stack(1, 4);
  EXPECT_TRUE(Stack.push(0, std::make_unique<int>(42)));
  auto P = Stack.pop(0);
  ASSERT_TRUE(P.has_value());
  ASSERT_TRUE(*P != nullptr);
  EXPECT_EQ(**P, 42);
}

TEST(BoxedStackTest, ConcurrentUseConservesPayloads) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 1000;
  BoxedStack<std::uint64_t> Stack(Threads, Threads * PerThread);
  SpinBarrier Barrier(Threads);
  std::vector<std::uint64_t> SumIn(Threads, 0), SumOut(Threads, 0);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 7);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I) {
        const std::uint64_t V = Rng.below(1u << 30) + 1;
        if (Stack.push(T, V))
          SumIn[T] += V;
        if (Rng.chance(1, 2)) {
          if (const auto R = Stack.pop(T))
            SumOut[T] += *R;
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  std::uint64_t Rest = 0;
  while (const auto R = Stack.pop(0))
    Rest += *R;
  EXPECT_EQ(std::accumulate(SumIn.begin(), SumIn.end(), std::uint64_t{0}),
            std::accumulate(SumOut.begin(), SumOut.end(), std::uint64_t{0}) +
                Rest);
}

//===----------------------------------------------------------------------===
// Figure 3 over the counter object
//===----------------------------------------------------------------------===

TEST(CounterTest, AbortableCounterSoloNeverAborts) {
  AbortableCounter Counter;
  for (int I = 1; I <= 100; ++I) {
    const auto R = Counter.weakAdd(1);
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(*R, static_cast<std::uint64_t>(I));
  }
}

TEST(CounterTest, StrongCounterExactUnderContention) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 5000;
  ContentionSensitiveCounter<> Counter(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I)
        (void)Counter.add(T, 1);
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Counter.valueForTesting(),
            static_cast<std::uint64_t>(Threads) * PerThread);
}

TEST(CounterTest, ContentionFreeStrongAddIsThreeAccesses) {
  ContentionSensitiveCounter<> Counter(2);
  const AccessCounts Counts =
      countAccesses([&] { EXPECT_EQ(Counter.add(0, 5), 5u); });
  // read CONTENTION + read counter + C&S counter.
  EXPECT_EQ(Counts.total(), 3u);
}

//===----------------------------------------------------------------------===
// Figure 3 over a foreign abortable object (Treiber single attempts)
//===----------------------------------------------------------------------===

TEST(GenericSkeletonTest, TreiberUnderFigure3NeverLosesValues) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 1500;
  TreiberStack Stack(Threads, Threads * PerThread);
  ContentionSensitive<TasLock> Skeleton(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I) {
        const std::uint32_t V = (T << 20) | (I + 1);
        const PushResult R = Skeleton.strongApply(
            T, [&]() -> std::optional<PushResult> {
              const PushResult Res = Stack.tryPushOnce(V);
              if (Res == PushResult::Abort)
                return std::nullopt;
              return Res;
            });
        ASSERT_EQ(R, PushResult::Done);
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Stack.sizeForTesting(), Threads * PerThread);
}

//===----------------------------------------------------------------------===
// Section 4.1 Remark: the simplified construction over a
// starvation-free lock (FLAG and TURN suppressed)
//===----------------------------------------------------------------------===

TEST(SimplifiedRemarkTest, SequentialSemantics) {
  AbortableStack<> Weak(4);
  SimplifiedContentionSensitive<TicketLock> Strong(2);
  auto Push = [&](std::uint32_t Tid, std::uint32_t V) {
    return Strong.strongApply(Tid,
                              [&]() -> std::optional<PushResult> {
                                const PushResult R = Weak.weakPush(V);
                                if (R == PushResult::Abort)
                                  return std::nullopt;
                                return R;
                              });
  };
  auto Pop = [&](std::uint32_t Tid) {
    return Strong.strongApply(
        Tid, [&]() -> std::optional<PopResult<std::uint32_t>> {
          const auto R = Weak.weakPop();
          if (R.isAbort())
            return std::nullopt;
          return R;
        });
  };
  EXPECT_EQ(Push(0, 1), PushResult::Done);
  EXPECT_EQ(Push(1, 2), PushResult::Done);
  auto R = Pop(0);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 2u);
}

TEST(SimplifiedRemarkTest, ContentionFreeStrongOpStillSixAccesses) {
  // Suppressing lines 04-05/10-11 does not change the fast path.
  AbortableStack<> Weak(8);
  SimplifiedContentionSensitive<TicketLock> Strong(2);
  const AccessCounts Counts = countAccesses([&] {
    const PushResult R = Strong.strongApply(
        0, [&]() -> std::optional<PushResult> {
          const PushResult Res = Weak.weakPush(5);
          if (Res == PushResult::Abort)
            return std::nullopt;
          return Res;
        });
    EXPECT_EQ(R, PushResult::Done);
  });
  EXPECT_EQ(Counts.total(), 6u);
}

TEST(SimplifiedRemarkTest, NeverAbortsUnderContention) {
  constexpr std::uint32_t Threads = 4;
  AbortableStack<> Weak(512);
  SimplifiedContentionSensitive<TicketLock> Strong(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 3);
      Barrier.arriveAndWait();
      for (int I = 0; I < 2000; ++I) {
        if (Rng.chance(1, 2)) {
          const auto V = static_cast<std::uint32_t>(Rng.below(999)) + 1;
          const PushResult R = Strong.strongApply(
              T, [&]() -> std::optional<PushResult> {
                const PushResult Res = Weak.weakPush(V);
                if (Res == PushResult::Abort)
                  return std::nullopt;
                return Res;
              });
          ASSERT_NE(R, PushResult::Abort);
        } else {
          const auto R = Strong.strongApply(
              T, [&]() -> std::optional<PopResult<std::uint32_t>> {
                const auto Res = Weak.weakPop();
                if (Res.isAbort())
                  return std::nullopt;
                return Res;
              });
          ASSERT_FALSE(R.isAbort());
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_FALSE(Strong.contentionForTesting());
}

//===----------------------------------------------------------------------===
// TimestampBoost: the lock-free starvation-free alternative (refs [4,25])
//===----------------------------------------------------------------------===

TEST(TimestampBoostTest, SequentialSemanticsMatchStack) {
  BoostedStack<> Stack(2, 4);
  EXPECT_EQ(Stack.push(0, 1), PushResult::Done);
  EXPECT_EQ(Stack.push(1, 2), PushResult::Done);
  auto R = Stack.pop(0);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 2u);
  R = Stack.pop(1);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 1u);
  EXPECT_TRUE(Stack.pop(0).isEmpty());
}

TEST(TimestampBoostTest, ContentionFreeStrongOpIsSixAccesses) {
  // Same fast-path shape as Figure 3: 1 announcement-count read + the
  // weak operation's 5 accesses.
  BoostedStack<> Stack(4, 8);
  const AccessCounts Counts =
      countAccesses([&] { EXPECT_EQ(Stack.push(0, 9), PushResult::Done); });
  EXPECT_EQ(Counts.total(), 6u);
}

TEST(TimestampBoostTest, NeverAbortsUnderContention) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t OpsPerThread = 2000;
  BoostedStack<> Stack(Threads, 512);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 17);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
        if (Rng.chance(1, 2)) {
          ASSERT_NE(Stack.push(
                        T, static_cast<std::uint32_t>(Rng.below(999)) + 1),
                    PushResult::Abort);
        } else {
          ASSERT_FALSE(Stack.pop(T).isAbort());
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Stack.skeleton().announcedForTesting(), 0u);
}

TEST(TimestampBoostTest, ConcurrentPushesConserveValues) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 800;
  BoostedStack<> Stack(Threads, Threads * PerThread);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I)
        ASSERT_EQ(Stack.push(T, (T << 16) | (I + 1)), PushResult::Done);
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Stack.sizeForTesting(), Threads * PerThread);
  std::vector<bool> Seen(1u << 18, false);
  for (std::uint32_t I = 0; I < Threads * PerThread; ++I) {
    const auto R = Stack.pop(0);
    ASSERT_TRUE(R.isValue());
    ASSERT_FALSE(Seen[R.value()]);
    Seen[R.value()] = true;
  }
}

TEST(TimestampBoostTest, GenericOverTheCounter) {
  AbortableCounter Counter;
  TimestampBoost Boost(3);
  for (int I = 1; I <= 50; ++I) {
    const std::uint64_t R = Boost.strongApply(
        0, [&] { return Counter.weakAdd(2); });
    EXPECT_EQ(R, static_cast<std::uint64_t>(2 * I));
  }
}

} // namespace
} // namespace csobj
