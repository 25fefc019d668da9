//===- tests/baselines_test.cpp - Baseline structures tests --------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "baselines/EliminationBackoffStack.h"
#include "baselines/LockedQueue.h"
#include "baselines/LockedStack.h"
#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
#include "core/ContentionSensitive.h"
#include "locks/TicketLock.h"
#include "memory/IndexPool.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// IndexPool
//===----------------------------------------------------------------------===

TEST(IndexPoolTest, HandsOutAllIndicesOnce) {
  IndexPool Pool(8);
  std::vector<bool> Seen(8, false);
  for (int I = 0; I < 8; ++I) {
    const auto Idx = Pool.tryAcquire();
    ASSERT_TRUE(Idx.has_value());
    ASSERT_LT(*Idx, 8u);
    ASSERT_FALSE(Seen[*Idx]);
    Seen[*Idx] = true;
  }
  EXPECT_FALSE(Pool.tryAcquire().has_value());
}

TEST(IndexPoolTest, ReleaseMakesIndexAvailableAgain) {
  IndexPool Pool(2);
  const auto A = Pool.tryAcquire();
  const auto B = Pool.tryAcquire();
  ASSERT_TRUE(A && B);
  EXPECT_FALSE(Pool.tryAcquire().has_value());
  Pool.release(*A);
  const auto C = Pool.tryAcquire();
  ASSERT_TRUE(C.has_value());
  EXPECT_EQ(*C, *A);
}

TEST(IndexPoolTest, FreeCountTracksState) {
  IndexPool Pool(5);
  EXPECT_EQ(Pool.freeCountForTesting(), 5u);
  const auto A = Pool.tryAcquire();
  EXPECT_EQ(Pool.freeCountForTesting(), 4u);
  Pool.release(*A);
  EXPECT_EQ(Pool.freeCountForTesting(), 5u);
}

TEST(IndexPoolTest, ConcurrentAcquireReleaseLosesNothing) {
  IndexPool Pool(16);
  constexpr int Threads = 4;
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 1);
      Barrier.arriveAndWait();
      for (int I = 0; I < 5000; ++I) {
        const auto Idx = Pool.tryAcquire();
        if (Idx)
          Pool.release(*Idx);
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Pool.freeCountForTesting(), 16u);
}

//===----------------------------------------------------------------------===
// Treiber stack
//===----------------------------------------------------------------------===

TEST(TreiberStackTest, SequentialLifo) {
  TreiberStack Stack(8);
  EXPECT_TRUE(Stack.pop().isEmpty());
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

TEST(TreiberStackTest, FullWhenPoolExhausted) {
  TreiberStack Stack(3);
  EXPECT_EQ(Stack.push(1), PushResult::Done);
  EXPECT_EQ(Stack.push(2), PushResult::Done);
  EXPECT_EQ(Stack.push(3), PushResult::Done);
  EXPECT_EQ(Stack.push(4), PushResult::Full);
  (void)Stack.pop();
  EXPECT_EQ(Stack.push(5), PushResult::Done);
}

TEST(TreiberStackTest, SingleAttemptOpsBehaveAbortably) {
  TreiberStack Stack(4);
  // Solo: single attempts always succeed (obstruction-freedom analogue).
  EXPECT_EQ(Stack.tryPushOnce(9), PushResult::Done);
  const auto R = Stack.tryPopOnce();
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 9u);
  EXPECT_TRUE(Stack.tryPopOnce().isEmpty());
}

TEST(TreiberStackTest, ConcurrentMixedOpsConserveValues) {
  TreiberStack Stack(256);
  constexpr int Threads = 4;
  SpinBarrier Barrier(Threads);
  std::vector<std::int64_t> Net(Threads, 0);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 5);
      Barrier.arriveAndWait();
      for (int I = 0; I < 4000; ++I) {
        if (Rng.chance(1, 2)) {
          if (Stack.push(static_cast<std::uint32_t>(Rng.below(1u << 20))) ==
              PushResult::Done)
            ++Net[T];
        } else if (Stack.pop().isValue()) {
          --Net[T];
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  const std::int64_t Total =
      std::accumulate(Net.begin(), Net.end(), std::int64_t{0});
  ASSERT_GE(Total, 0);
  EXPECT_EQ(Stack.sizeForTesting(), static_cast<std::uint32_t>(Total));
}

TEST(TreiberStackTest, WrappableByFigure3Skeleton) {
  // The single-attempt operations make Treiber an abortable object, so
  // the paper's generic construction applies to it unchanged.
  TreiberStack Stack(16);
  ContentionSensitive<TasLock> Skeleton(2);
  const PushResult R = Skeleton.strongApply(
      0, [&]() -> std::optional<PushResult> {
        const PushResult Res = Stack.tryPushOnce(5);
        if (Res == PushResult::Abort)
          return std::nullopt;
        return Res;
      });
  EXPECT_EQ(R, PushResult::Done);
  EXPECT_EQ(Stack.sizeForTesting(), 1u);
}

//===----------------------------------------------------------------------===
// Elimination-backoff stack
//===----------------------------------------------------------------------===

TEST(EliminationStackTest, SequentialLifo) {
  EliminationBackoffStack Stack(8);
  EXPECT_TRUE(Stack.pop().isEmpty());
  EXPECT_EQ(Stack.push(1), PushResult::Done);
  EXPECT_EQ(Stack.push(2), PushResult::Done);
  auto R = Stack.pop();
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 2u);
}

TEST(EliminationStackTest, ConcurrentPushersAndPoppersConserveSum) {
  EliminationBackoffStack Stack(4096, /*SlotCount=*/2, /*SpinBudget=*/128);
  constexpr int Pairs = 2;
  constexpr int PerThread = 5000;
  SpinBarrier Barrier(2 * Pairs);
  std::vector<std::uint64_t> Pushed(Pairs, 0), Popped(Pairs, 0);
  std::vector<std::uint64_t> PopCount(Pairs, 0);
  std::vector<std::thread> Workers;
  for (int P = 0; P < Pairs; ++P) {
    Workers.emplace_back([&, P] {
      SplitMix64 Rng(P + 21);
      Barrier.arriveAndWait();
      for (int I = 0; I < PerThread; ++I) {
        const auto V = static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
        if (Stack.push(V) == PushResult::Done)
          Pushed[P] += V;
      }
    });
    Workers.emplace_back([&, P] {
      Barrier.arriveAndWait();
      for (int I = 0; I < PerThread; ++I) {
        const auto R = Stack.pop();
        if (R.isValue()) {
          Popped[P] += R.value();
          ++PopCount[P];
        }
      }
    });
  }
  for (auto &W : Workers)
    W.join();
  // Drain the remainder and check conservation of the value sum.
  std::uint64_t Remaining = 0;
  while (true) {
    const auto R = Stack.pop();
    if (!R.isValue())
      break;
    Remaining += R.value();
  }
  const std::uint64_t In =
      std::accumulate(Pushed.begin(), Pushed.end(), std::uint64_t{0});
  const std::uint64_t Out =
      std::accumulate(Popped.begin(), Popped.end(), std::uint64_t{0}) +
      Remaining;
  EXPECT_EQ(In, Out);
}

//===----------------------------------------------------------------------===
// Locked stack / queue
//===----------------------------------------------------------------------===

TEST(LockedStackTest, SequentialSemantics) {
  LockedStack<> Stack(2, 3);
  EXPECT_EQ(Stack.push(0, 1), PushResult::Done);
  EXPECT_EQ(Stack.push(0, 2), PushResult::Done);
  EXPECT_EQ(Stack.push(1, 3), PushResult::Done);
  EXPECT_EQ(Stack.push(1, 4), PushResult::Full);
  auto R = Stack.pop(0);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 3u);
}

TEST(LockedStackTest, ConcurrentCountsBalance) {
  constexpr std::uint32_t Threads = 4;
  LockedStack<TicketLock> Stack(Threads, 10000);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (int I = 0; I < 1000; ++I) {
        ASSERT_EQ(Stack.push(T, T + 1), PushResult::Done);
        ASSERT_TRUE(Stack.pop(T).isValue());
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Stack.sizeForTesting(), 0u);
}

TEST(LockedQueueTest, SequentialFifoAndWrap) {
  LockedQueue<> Queue(1, 3);
  EXPECT_EQ(Queue.enqueue(0, 1), PushResult::Done);
  EXPECT_EQ(Queue.enqueue(0, 2), PushResult::Done);
  EXPECT_EQ(Queue.enqueue(0, 3), PushResult::Done);
  EXPECT_EQ(Queue.enqueue(0, 4), PushResult::Full);
  for (std::uint32_t V = 1; V <= 3; ++V) {
    const auto R = Queue.dequeue(0);
    ASSERT_TRUE(R.isValue());
    EXPECT_EQ(R.value(), V);
  }
  EXPECT_TRUE(Queue.dequeue(0).isEmpty());
  // Wrap the ring several times.
  for (std::uint32_t V = 10; V < 20; ++V) {
    ASSERT_EQ(Queue.enqueue(0, V), PushResult::Done);
    const auto R = Queue.dequeue(0);
    ASSERT_TRUE(R.isValue());
    EXPECT_EQ(R.value(), V);
  }
}

//===----------------------------------------------------------------------===
// Michael-Scott queue
//===----------------------------------------------------------------------===

TEST(MichaelScottQueueTest, SequentialFifo) {
  MichaelScottQueue Queue(8);
  EXPECT_TRUE(Queue.dequeue().isEmpty());
  for (std::uint32_t V = 1; V <= 5; ++V)
    EXPECT_EQ(Queue.enqueue(V), PushResult::Done);
  for (std::uint32_t V = 1; V <= 5; ++V) {
    const auto R = Queue.dequeue();
    ASSERT_TRUE(R.isValue());
    EXPECT_EQ(R.value(), V);
  }
  EXPECT_TRUE(Queue.dequeue().isEmpty());
}

TEST(MichaelScottQueueTest, FullWhenPoolExhausted) {
  MichaelScottQueue Queue(2);
  EXPECT_EQ(Queue.enqueue(1), PushResult::Done);
  EXPECT_EQ(Queue.enqueue(2), PushResult::Done);
  EXPECT_EQ(Queue.enqueue(3), PushResult::Full);
  (void)Queue.dequeue();
  EXPECT_EQ(Queue.enqueue(4), PushResult::Done);
}

TEST(MichaelScottQueueTest, NodeRecyclingSurvivesManyWraps) {
  MichaelScottQueue Queue(3);
  for (std::uint32_t I = 0; I < 10000; ++I) {
    ASSERT_EQ(Queue.enqueue(I + 1), PushResult::Done);
    const auto R = Queue.dequeue();
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), I + 1);
  }
  EXPECT_EQ(Queue.sizeForTesting(), 0u);
}

TEST(MichaelScottQueueTest, ConcurrentProducersConsumersConserveSum) {
  MichaelScottQueue Queue(1024);
  constexpr int Producers = 2, Consumers = 2;
  constexpr std::uint32_t PerProducer = 8000;
  SpinBarrier Barrier(Producers + Consumers);
  std::vector<std::uint64_t> SumIn(Producers, 0);
  std::vector<std::uint64_t> SumOut(Consumers, 0);
  std::atomic<std::uint32_t> Consumed{0};
  std::vector<std::thread> Workers;
  for (int P = 0; P < Producers; ++P)
    Workers.emplace_back([&, P] {
      SplitMix64 Rng(P + 31);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerProducer; ++I) {
        const auto V = static_cast<std::uint32_t>(Rng.below(1u << 20)) + 1;
        while (Queue.enqueue(V) != PushResult::Done) {
        }
        SumIn[P] += V;
      }
    });
  for (int C = 0; C < Consumers; ++C)
    Workers.emplace_back([&, C] {
      Barrier.arriveAndWait();
      while (Consumed.load() < Producers * PerProducer) {
        const auto R = Queue.dequeue();
        if (R.isValue()) {
          SumOut[C] += R.value();
          Consumed.fetch_add(1);
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(
      std::accumulate(SumIn.begin(), SumIn.end(), std::uint64_t{0}),
      std::accumulate(SumOut.begin(), SumOut.end(), std::uint64_t{0}));
  EXPECT_EQ(Queue.sizeForTesting(), 0u);
}

} // namespace
} // namespace csobj
