//===- tests/core_stack_test.cpp - Figures 1-3 unit tests ----------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "core/AbortableStack.h"
#include "core/ContentionSensitiveStack.h"
#include "core/NonBlockingStack.h"
#include "locks/AndersonLock.h"
#include "locks/ClhLock.h"
#include "locks/LamportFastLock.h"
#include "locks/McsLock.h"
#include "locks/TicketLock.h"
#include "locks/TournamentLock.h"
#include "memory/AccessCounter.h"
#include "runtime/SpinBarrier.h"
#include "support/CacheLine.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// Figure 1: abortable stack — sequential semantics
//===----------------------------------------------------------------------===

TEST(AbortableStackTest, InitialStateIsEmpty) {
  AbortableStack<> Stack(8);
  EXPECT_EQ(Stack.capacity(), 8u);
  EXPECT_EQ(Stack.sizeForTesting(), 0u);
  EXPECT_TRUE(Stack.weakPop().isEmpty());
}

TEST(AbortableStackTest, PushThenPopReturnsValue) {
  AbortableStack<> Stack(8);
  EXPECT_EQ(Stack.weakPush(42), PushResult::Done);
  const auto Res = Stack.weakPop();
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), 42u);
}

TEST(AbortableStackTest, LifoOrder) {
  AbortableStack<> Stack(8);
  for (std::uint32_t V = 1; V <= 5; ++V)
    EXPECT_EQ(Stack.weakPush(V), PushResult::Done);
  for (std::uint32_t V = 5; V >= 1; --V) {
    const auto Res = Stack.weakPop();
    ASSERT_TRUE(Res.isValue());
    EXPECT_EQ(Res.value(), V);
  }
  EXPECT_TRUE(Stack.weakPop().isEmpty());
}

TEST(AbortableStackTest, FullAtCapacity) {
  AbortableStack<> Stack(3);
  EXPECT_EQ(Stack.weakPush(1), PushResult::Done);
  EXPECT_EQ(Stack.weakPush(2), PushResult::Done);
  EXPECT_EQ(Stack.weakPush(3), PushResult::Done);
  EXPECT_EQ(Stack.weakPush(4), PushResult::Full);
  // Full answer had no effect.
  EXPECT_EQ(Stack.sizeForTesting(), 3u);
  const auto Res = Stack.weakPop();
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), 3u);
}

TEST(AbortableStackTest, CapacityOneStack) {
  AbortableStack<> Stack(1);
  EXPECT_EQ(Stack.weakPush(9), PushResult::Done);
  EXPECT_EQ(Stack.weakPush(10), PushResult::Full);
  ASSERT_TRUE(Stack.weakPop().isValue());
  EXPECT_TRUE(Stack.weakPop().isEmpty());
}

TEST(AbortableStackTest, CapacityOutsideTheIndexFieldThrows) {
  // A hard check, not an assert: under NDEBUG a capacity above MaxIndex
  // used to wrap TOP's index field silently.
  constexpr std::uint32_t MaxIndex = Compact64::Top::MaxIndex;
  EXPECT_THROW(AbortableStack<>(0), std::invalid_argument);
  EXPECT_THROW(AbortableStack<>(MaxIndex + 1), std::invalid_argument);
  AbortableStack<> Largest(MaxIndex);
  EXPECT_EQ(Largest.capacity(), MaxIndex);
}

TEST(AbortableStackTest, EmptyAfterDrain) {
  AbortableStack<> Stack(4);
  (void)Stack.weakPush(1);
  (void)Stack.weakPush(2);
  (void)Stack.weakPop();
  (void)Stack.weakPop();
  EXPECT_TRUE(Stack.weakPop().isEmpty());
  EXPECT_TRUE(Stack.weakPop().isEmpty()); // Stays empty.
}

TEST(AbortableStackTest, InterleavedPushPopSequence) {
  AbortableStack<> Stack(16);
  std::vector<std::uint32_t> Model;
  SplitMix64 Rng(123);
  for (int I = 0; I < 2000; ++I) {
    if (Rng.chance(60, 100) && Model.size() < 16) {
      const auto V = static_cast<std::uint32_t>(Rng.below(1u << 30));
      EXPECT_EQ(Stack.weakPush(V), PushResult::Done);
      Model.push_back(V);
    } else if (!Model.empty()) {
      const auto Res = Stack.weakPop();
      ASSERT_TRUE(Res.isValue());
      EXPECT_EQ(Res.value(), Model.back());
      Model.pop_back();
    } else {
      EXPECT_TRUE(Stack.weakPop().isEmpty());
    }
  }
  EXPECT_EQ(Stack.sizeForTesting(), Model.size());
}

TEST(AbortableStackTest, LazyHelpCompletesPreviousOperation) {
  AbortableStack<> Stack(4);
  (void)Stack.weakPush(7);
  // The push published in TOP but left STACK[1] to the next operation.
  EXPECT_EQ(Stack.topForTesting().Index, 1u);
  EXPECT_EQ(Stack.topForTesting().Value, 7u);
  EXPECT_EQ(Stack.slotForTesting(1).Value, AbortableStack<>::Bottom);
  // The next operation helps: STACK[1] now holds the pushed value.
  (void)Stack.weakPush(8);
  EXPECT_EQ(Stack.slotForTesting(1).Value, 7u);
}

TEST(AbortableStackTest, SoloOperationsNeverAbort) {
  AbortableStack<> Stack(64);
  for (int I = 0; I < 500; ++I)
    ASSERT_NE(Stack.weakPush(static_cast<std::uint32_t>(I)),
              PushResult::Abort);
  for (int I = 0; I < 600; ++I)
    ASSERT_FALSE(Stack.weakPop().isAbort());
}

TEST(AbortableStackTest, SequenceNumbersAdvancePerSlotReuse) {
  AbortableStack<> Stack(2);
  (void)Stack.weakPush(1); // TOP=(1,1,s1)
  (void)Stack.weakPop();   // TOP=(0,bottom,..)
  (void)Stack.weakPush(2);
  (void)Stack.weakPush(3); // Helps slot 1's second incarnation.
  const auto Slot1 = Stack.slotForTesting(1);
  EXPECT_EQ(Slot1.Value, 2u);
  EXPECT_GE(Slot1.Seq, 2u); // Reused: tag advanced beyond first use.
}

TEST(AbortableStackWideTest, Wide128RoundTrip) {
  AbortableStack<Wide128> Stack(8);
  const std::uint64_t Big = 0x0123456789ABCDEFull;
  EXPECT_EQ(Stack.weakPush(Big), PushResult::Done);
  const auto Res = Stack.weakPop();
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), Big);
}

//===----------------------------------------------------------------------===
// Figure 1: the paper's access-count analysis (experiment E1 oracle)
//===----------------------------------------------------------------------===

TEST(AccessCountTest, SuccessfulWeakPushIsFiveAccesses) {
  AbortableStack<> Stack(8);
  const AccessCounts Counts =
      countAccesses([&] { EXPECT_EQ(Stack.weakPush(1), PushResult::Done); });
  // read TOP, read STACK[i] (help), C&S STACK[i] (help), read STACK[i+1],
  // C&S TOP.
  EXPECT_EQ(Counts.total(), 5u);
  EXPECT_EQ(Counts.Reads, 3u);
  EXPECT_EQ(Counts.CasAttempts, 2u);
}

TEST(AccessCountTest, SuccessfulWeakPopIsFiveAccesses) {
  AbortableStack<> Stack(8);
  (void)Stack.weakPush(1);
  const AccessCounts Counts =
      countAccesses([&] { EXPECT_TRUE(Stack.weakPop().isValue()); });
  EXPECT_EQ(Counts.total(), 5u);
  EXPECT_EQ(Counts.Reads, 3u);
  EXPECT_EQ(Counts.CasAttempts, 2u);
}

TEST(AccessCountTest, EmptyPopIsThreeAccesses) {
  AbortableStack<> Stack(8);
  const AccessCounts Counts =
      countAccesses([&] { EXPECT_TRUE(Stack.weakPop().isEmpty()); });
  // read TOP + help (read + C&S).
  EXPECT_EQ(Counts.total(), 3u);
}

TEST(AccessCountTest, FullPushIsThreeAccesses) {
  AbortableStack<> Stack(1);
  (void)Stack.weakPush(1);
  const AccessCounts Counts =
      countAccesses([&] { EXPECT_EQ(Stack.weakPush(2), PushResult::Full); });
  EXPECT_EQ(Counts.total(), 3u);
}

TEST(AccessCountTest, ContentionFreeStrongOpIsSixAccesses) {
  // Theorem 1: a contention-free strong operation is lock-free and
  // accesses shared memory six times (1 read of CONTENTION + 5).
  ContentionSensitiveStack<> Stack(/*NumThreads=*/4, /*Capacity=*/8);
  const AccessCounts PushCounts = countAccesses(
      [&] { EXPECT_EQ(Stack.push(/*Tid=*/0, 7), PushResult::Done); });
  EXPECT_EQ(PushCounts.total(), 6u);

  const AccessCounts PopCounts = countAccesses([&] {
    const auto Res = Stack.pop(/*Tid=*/1);
    ASSERT_TRUE(Res.isValue());
    EXPECT_EQ(Res.value(), 7u);
  });
  EXPECT_EQ(PopCounts.total(), 6u);
}

TEST(AccessCountTest, NonBlockingSoloOpIsFiveAccesses) {
  NonBlockingStack<> Stack(8);
  const AccessCounts Counts =
      countAccesses([&] { EXPECT_EQ(Stack.push(3), PushResult::Done); });
  EXPECT_EQ(Counts.total(), 5u);
}

//===----------------------------------------------------------------------===
// Figure 2: non-blocking stack
//===----------------------------------------------------------------------===

TEST(NonBlockingStackTest, SequentialSemantics) {
  NonBlockingStack<> Stack(4);
  EXPECT_EQ(Stack.push(1), PushResult::Done);
  EXPECT_EQ(Stack.push(2), PushResult::Done);
  auto R = Stack.pop();
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 2u);
  R = Stack.pop();
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 1u);
  EXPECT_TRUE(Stack.pop().isEmpty());
}

TEST(NonBlockingStackTest, SoloOpsNeedNoRetries) {
  NonBlockingStack<> Stack(8);
  const auto Push = Stack.pushCounting(5);
  EXPECT_EQ(Push.Result, PushResult::Done);
  EXPECT_EQ(Push.Retries, 0u);
  const auto Pop = Stack.popCounting();
  EXPECT_TRUE(Pop.Result.isValue());
  EXPECT_EQ(Pop.Retries, 0u);
}

TEST(NonBlockingStackTest, ConcurrentPushesAllLand) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 500;
  NonBlockingStack<> Stack(Threads * PerThread);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I)
        ASSERT_EQ(Stack.push(T * PerThread + I + 1), PushResult::Done);
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Stack.sizeForTesting(), Threads * PerThread);

  // Drain single-threaded: every pushed value comes back exactly once.
  std::vector<bool> Seen(Threads * PerThread + 1, false);
  for (std::uint32_t I = 0; I < Threads * PerThread; ++I) {
    const auto Res = Stack.pop();
    ASSERT_TRUE(Res.isValue());
    ASSERT_LT(Res.value(), Seen.size());
    ASSERT_FALSE(Seen[Res.value()]) << "value popped twice";
    Seen[Res.value()] = true;
  }
  EXPECT_TRUE(Stack.pop().isEmpty());
}

TEST(NonBlockingStackTest, ConcurrentMixedOpsConserveElements) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t OpsPerThread = 2000;
  NonBlockingStack<> Stack(1024);
  SpinBarrier Barrier(Threads);
  std::vector<std::int64_t> NetPushes(Threads, 0);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 1);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
        if (Rng.chance(1, 2)) {
          if (Stack.push(static_cast<std::uint32_t>(Rng.below(1000)) + 1) ==
              PushResult::Done)
            ++NetPushes[T];
        } else if (Stack.pop().isValue()) {
          --NetPushes[T];
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  const std::int64_t Net =
      std::accumulate(NetPushes.begin(), NetPushes.end(), std::int64_t{0});
  ASSERT_GE(Net, 0);
  EXPECT_EQ(Stack.sizeForTesting(), static_cast<std::uint32_t>(Net));
}

//===----------------------------------------------------------------------===
// Figure 3: contention-sensitive starvation-free stack
//===----------------------------------------------------------------------===

TEST(ContentionSensitiveStackTest, SequentialSemantics) {
  ContentionSensitiveStack<> Stack(2, 4);
  EXPECT_EQ(Stack.push(0, 10), PushResult::Done);
  EXPECT_EQ(Stack.push(0, 20), PushResult::Done);
  auto R = Stack.pop(0);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 20u);
  EXPECT_EQ(Stack.push(1, 30), PushResult::Done);
  R = Stack.pop(1);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 30u);
}

TEST(ContentionSensitiveStackTest, FullAndEmptyAreTotalAnswers) {
  ContentionSensitiveStack<> Stack(2, 2);
  EXPECT_EQ(Stack.push(0, 1), PushResult::Done);
  EXPECT_EQ(Stack.push(0, 2), PushResult::Done);
  EXPECT_EQ(Stack.push(0, 3), PushResult::Full);
  (void)Stack.pop(0);
  (void)Stack.pop(0);
  EXPECT_TRUE(Stack.pop(0).isEmpty());
}

TEST(ContentionSensitiveStackTest, StrongOpsNeverAbort) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t OpsPerThread = 2000;
  ContentionSensitiveStack<> Stack(Threads, 512);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 10);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
        if (Rng.chance(1, 2)) {
          const PushResult R =
              Stack.push(T, static_cast<std::uint32_t>(Rng.below(9999)) + 1);
          ASSERT_NE(R, PushResult::Abort);
        } else {
          ASSERT_FALSE(Stack.pop(T).isAbort());
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_FALSE(Stack.skeleton().contentionForTesting());
}

TEST(ContentionSensitiveStackTest, ConcurrentPushesAllLand) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 500;
  ContentionSensitiveStack<> Stack(Threads, Threads * PerThread);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I)
        ASSERT_EQ(Stack.push(T, T * PerThread + I + 1), PushResult::Done);
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Stack.sizeForTesting(), Threads * PerThread);

  std::vector<bool> Seen(Threads * PerThread + 1, false);
  for (std::uint32_t I = 0; I < Threads * PerThread; ++I) {
    const auto Res = Stack.pop(0);
    ASSERT_TRUE(Res.isValue());
    ASSERT_FALSE(Seen[Res.value()]) << "value popped twice";
    Seen[Res.value()] = true;
  }
  EXPECT_TRUE(Stack.pop(0).isEmpty());
}

TEST(ContentionSensitiveStackTest, WorksWithTicketLock) {
  ContentionSensitiveStack<Compact64, TicketLock> Stack(2, 8);
  EXPECT_EQ(Stack.push(0, 5), PushResult::Done);
  auto R = Stack.pop(1);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 5u);
}

/// footprintBytes() of a 64-slot stack whose skeleton is \p SkeletonT.
template <typename SkeletonT> std::size_t footprintWith(std::uint32_t N) {
  return ContentionSensitiveStack<Compact64, TasLock, NoBackoff,
                                  DefaultRegisterPolicy, SkeletonT>(N, 64)
      .footprintBytes();
}

TEST(ContentionSensitiveStackTest, FootprintCountsTheLocksPerProcessHeap) {
  // Each of these locks keeps at least one cache-line-padded register or
  // node per process (the tournament one per game: N - 1 of them), so
  // over TasLock, which keeps none, the footprint must grow by at least
  // N - 1 lines — behind the doorway and as a bare starvation-free lock.
  constexpr std::uint32_t N = 64;
  constexpr std::size_t Lines = (N - 1) * CacheLineSize;
  const std::size_t Tas = footprintWith<ContentionSensitive<TasLock>>(N);
  EXPECT_GE(footprintWith<ContentionSensitive<McsLock>>(N), Tas + Lines);
  EXPECT_GE(footprintWith<ContentionSensitive<ClhLock>>(N), Tas + Lines);
  EXPECT_GE(footprintWith<ContentionSensitive<AndersonLock>>(N), Tas + Lines);
  EXPECT_GE(footprintWith<ContentionSensitive<TournamentLock>>(N),
            Tas + Lines);
  EXPECT_GE(footprintWith<ContentionSensitive<LamportFastLock>>(N),
            Tas + Lines);
  const std::size_t Ticket =
      footprintWith<SimplifiedContentionSensitive<TicketLock>>(N);
  EXPECT_GE(footprintWith<SimplifiedContentionSensitive<McsLock>>(N),
            Ticket + Lines);
}

} // namespace
} // namespace csobj
