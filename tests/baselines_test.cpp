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
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// IndexPool
//===----------------------------------------------------------------------===

TEST(IndexPoolTest, HandsOutCapacityPlusProcessesDistinctIndices) {
  IndexPool<> Pool(/*Capacity=*/6, /*NumThreads=*/2);
  ASSERT_EQ(Pool.size(), 8u);
  std::vector<bool> Seen(8, false);
  for (int I = 0; I < 8; ++I) {
    const std::uint32_t Idx = Pool.acquire();
    ASSERT_LT(Idx, 8u);
    ASSERT_FALSE(Seen[Idx]);
    Seen[Idx] = true;
  }
  EXPECT_EQ(Pool.freeCountForTesting(), 0u);
}

TEST(IndexPoolTest, ReleaseMakesIndexAvailableAgain) {
  IndexPool<> Pool(1, 1);
  const std::uint32_t A = Pool.acquire();
  const std::uint32_t B = Pool.acquire();
  EXPECT_NE(A, B);
  Pool.release(A);
  EXPECT_EQ(Pool.acquire(), A);
}

TEST(IndexPoolTest, FreeCountIsTheHeadWordsCountField) {
  IndexPool<> Pool(3, 2);
  EXPECT_EQ(Pool.freeCountForTesting(), 5u);
  const std::uint32_t A = Pool.acquire();
  EXPECT_EQ(Pool.freeCountForTesting(), 4u);
  // A second list over the same links takes the entry; the pool's count
  // comes from its own head word, not from a walk that would see it.
  IndexPool<>::List Other = Pool.emptyList();
  ASSERT_TRUE(Other.tryPush(Other.read(), A));
  EXPECT_EQ(Other.countForTesting(), 1u);
  EXPECT_EQ(Pool.freeCountForTesting(), 4u);
  ASSERT_TRUE(Other.tryPop(Other.read()));
  Pool.release(A);
  EXPECT_EQ(Pool.freeCountForTesting(), 5u);
}

TEST(IndexPoolTest, SizeOutsideTheLinkFieldThrows) {
  constexpr std::uint32_t MaxEntries = TaggedIndexList<>::MaxEntries;
  EXPECT_THROW(IndexPool<>(4, 0), std::invalid_argument);
  EXPECT_THROW(IndexPool<>(MaxEntries, 1), std::invalid_argument);
  EXPECT_EQ(IndexPool<>(MaxEntries - 1, 1).size(), MaxEntries);
  EXPECT_THROW(TreiberStack(1, MaxEntries), std::invalid_argument);
  EXPECT_THROW(EliminationBackoffStack(2, MaxEntries - 1),
               std::invalid_argument);
  // The queue's pool also holds the dummy node.
  EXPECT_THROW(MichaelScottQueue(1, MaxEntries - 1), std::invalid_argument);
  EXPECT_EQ(MichaelScottQueue(1, MaxEntries - 2).capacity(), MaxEntries - 2);
}

TEST(IndexPoolTest, ConcurrentAcquireReleaseLosesNothing) {
  constexpr std::uint32_t Threads = 4;
  IndexPool<> Pool(/*Capacity=*/12, Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&] {
      Barrier.arriveAndWait();
      for (int I = 0; I < 5000; ++I)
        Pool.release(Pool.acquire());
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Pool.freeCountForTesting(), 16u);
}

TEST(TaggedIndexListTest, StaleHeadWordLosesEvenWhenTopAndCountMatch) {
  std::unique_ptr<TaggedIndexList<>::Link[]> Links(
      new TaggedIndexList<>::Link[4]);
  TaggedIndexList<> List(Links.get());
  std::uint64_t Word = List.read();
  EXPECT_TRUE(TaggedIndexList<>::isEmpty(Word));
  ASSERT_TRUE(List.tryPush(Word, 2));
  EXPECT_FALSE(List.tryPush(Word, 3)) << "push through a stale head word";
  ASSERT_TRUE(List.tryPush(List.read(), 3));
  Word = List.read();
  EXPECT_EQ(TaggedIndexList<>::top(Word), 3u);
  EXPECT_EQ(TaggedIndexList<>::count(Word), 2u);
  // ABA: pop 3 and push it back. Top and count read as before; only the
  // tag tells the words apart, and it rejects the stale pop.
  ASSERT_TRUE(List.tryPop(Word));
  ASSERT_TRUE(List.tryPush(List.read(), 3));
  EXPECT_EQ(TaggedIndexList<>::top(List.read()), 3u);
  EXPECT_EQ(TaggedIndexList<>::count(List.read()), 2u);
  EXPECT_FALSE(List.tryPop(Word));
  ASSERT_TRUE(List.tryPop(List.read()));
  EXPECT_EQ(TaggedIndexList<>::top(List.read()), 2u);
  EXPECT_EQ(List.countForTesting(), 1u);
}

//===----------------------------------------------------------------------===
// Treiber stack
//===----------------------------------------------------------------------===

TEST(TreiberStackTest, SequentialLifo) {
  TreiberStack Stack(1, 8);
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

TEST(TreiberStackTest, FullAtCapacity) {
  TreiberStack Stack(1, 3);
  EXPECT_EQ(Stack.push(1), PushResult::Done);
  EXPECT_EQ(Stack.push(2), PushResult::Done);
  EXPECT_EQ(Stack.push(3), PushResult::Done);
  EXPECT_EQ(Stack.push(4), PushResult::Full);
  (void)Stack.pop();
  EXPECT_EQ(Stack.push(5), PushResult::Done);
}

TEST(TreiberStackTest, SingleAttemptOpsBehaveAbortably) {
  TreiberStack Stack(1, 4);
  // Solo: single attempts always succeed (obstruction-freedom analogue).
  EXPECT_EQ(Stack.tryPushOnce(9), PushResult::Done);
  const auto R = Stack.tryPopOnce();
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 9u);
  EXPECT_TRUE(Stack.tryPopOnce().isEmpty());
}

TEST(TreiberStackTest, ConcurrentMixedOpsConserveValues) {
  constexpr int Threads = 4;
  TreiberStack Stack(Threads, 256);
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
  TreiberStack Stack(2, 16);
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
  EliminationBackoffStack Stack(1, 8);
  EXPECT_TRUE(Stack.pop().isEmpty());
  EXPECT_EQ(Stack.push(1), PushResult::Done);
  EXPECT_EQ(Stack.push(2), PushResult::Done);
  auto R = Stack.pop();
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 2u);
}

TEST(EliminationStackTest, ConcurrentPushersAndPoppersConserveSum) {
  constexpr int Pairs = 2;
  constexpr int PerThread = 5000;
  EliminationBackoffStack Stack(/*NumThreads=*/2 * Pairs, /*Capacity=*/4096,
                                /*SlotCount=*/2, /*SpinBudget=*/128);
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
  MichaelScottQueue Queue(1, 8);
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

TEST(MichaelScottQueueTest, FullAtCapacity) {
  MichaelScottQueue Queue(1, 2);
  EXPECT_EQ(Queue.enqueue(1), PushResult::Done);
  EXPECT_EQ(Queue.enqueue(2), PushResult::Done);
  EXPECT_EQ(Queue.enqueue(3), PushResult::Full);
  (void)Queue.dequeue();
  EXPECT_EQ(Queue.enqueue(4), PushResult::Done);
}

TEST(MichaelScottQueueTest, NodeRecyclingSurvivesManyWraps) {
  MichaelScottQueue Queue(1, 3);
  for (std::uint32_t I = 0; I < 10000; ++I) {
    ASSERT_EQ(Queue.enqueue(I + 1), PushResult::Done);
    const auto R = Queue.dequeue();
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), I + 1);
  }
  EXPECT_EQ(Queue.sizeForTesting(), 0u);
}

TEST(MichaelScottQueueTest, ConcurrentProducersConsumersConserveSum) {
  constexpr int Producers = 2, Consumers = 2;
  MichaelScottQueue Queue(Producers + Consumers, 1024);
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
