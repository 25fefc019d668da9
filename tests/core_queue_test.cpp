//===- tests/core_queue_test.cpp - Queue family unit tests ---------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "core/AbortableQueue.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/NonBlockingQueue.h"
#include "memory/AccessCounter.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// Abortable queue — sequential semantics
//===----------------------------------------------------------------------===

TEST(AbortableQueueTest, InitialStateIsEmpty) {
  AbortableQueue<> Queue(8);
  EXPECT_EQ(Queue.capacity(), 8u);
  EXPECT_EQ(Queue.sizeForTesting(), 0u);
  EXPECT_TRUE(Queue.weakDequeue().isEmpty());
}

TEST(AbortableQueueTest, FifoOrder) {
  AbortableQueue<> Queue(8);
  for (std::uint32_t V = 1; V <= 5; ++V)
    EXPECT_EQ(Queue.weakEnqueue(V), PushResult::Done);
  for (std::uint32_t V = 1; V <= 5; ++V) {
    const auto Res = Queue.weakDequeue();
    ASSERT_TRUE(Res.isValue());
    EXPECT_EQ(Res.value(), V);
  }
  EXPECT_TRUE(Queue.weakDequeue().isEmpty());
}

TEST(AbortableQueueTest, FullAtCapacity) {
  AbortableQueue<> Queue(3);
  EXPECT_EQ(Queue.weakEnqueue(1), PushResult::Done);
  EXPECT_EQ(Queue.weakEnqueue(2), PushResult::Done);
  EXPECT_EQ(Queue.weakEnqueue(3), PushResult::Done);
  EXPECT_EQ(Queue.weakEnqueue(4), PushResult::Full);
  EXPECT_EQ(Queue.sizeForTesting(), 3u);
  const auto Res = Queue.weakDequeue();
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), 1u);
}

TEST(AbortableQueueTest, CapacityOneQueue) {
  AbortableQueue<> Queue(1);
  EXPECT_EQ(Queue.weakEnqueue(7), PushResult::Done);
  EXPECT_EQ(Queue.weakEnqueue(8), PushResult::Full);
  auto Res = Queue.weakDequeue();
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), 7u);
  EXPECT_TRUE(Queue.weakDequeue().isEmpty());
}

TEST(AbortableQueueTest, CapacityOutsideTheIndexFieldThrows) {
  // The ring holds Capacity + 1 slots, so MaxIndex - 1 is the largest
  // capacity REAR's index field can address; beyond it, a hard check.
  constexpr std::uint32_t MaxIndex = Compact64::Top::MaxIndex;
  EXPECT_THROW(AbortableQueue<>(0), std::invalid_argument);
  EXPECT_THROW(AbortableQueue<>(MaxIndex + 1), std::invalid_argument);
  EXPECT_THROW(AbortableQueue<>{MaxIndex}, std::invalid_argument);
  AbortableQueue<> Largest(MaxIndex - 1);
  EXPECT_EQ(Largest.capacity(), MaxIndex - 1);
}

TEST(AbortableQueueTest, RingWrapsManyTimes) {
  AbortableQueue<> Queue(3);
  std::deque<std::uint32_t> Model;
  SplitMix64 Rng(5);
  for (int I = 0; I < 5000; ++I) {
    if (Rng.chance(55, 100) && Model.size() < 3) {
      const auto V = static_cast<std::uint32_t>(Rng.below(1u << 30));
      ASSERT_EQ(Queue.weakEnqueue(V), PushResult::Done);
      Model.push_back(V);
    } else if (!Model.empty()) {
      const auto Res = Queue.weakDequeue();
      ASSERT_TRUE(Res.isValue());
      ASSERT_EQ(Res.value(), Model.front());
      Model.pop_front();
    } else {
      ASSERT_TRUE(Queue.weakDequeue().isEmpty());
    }
  }
  EXPECT_EQ(Queue.sizeForTesting(), Model.size());
}

TEST(AbortableQueueTest, SoloOperationsNeverAbort) {
  AbortableQueue<> Queue(64);
  for (int I = 0; I < 500; ++I)
    ASSERT_NE(Queue.weakEnqueue(static_cast<std::uint32_t>(I)),
              PushResult::Abort);
  for (int I = 0; I < 600; ++I)
    ASSERT_FALSE(Queue.weakDequeue().isAbort());
}

TEST(AbortableQueueTest, Wide128RoundTrip) {
  AbortableQueue<Wide128> Queue(4);
  const std::uint64_t Big = 0xFEDCBA9876543210ull;
  EXPECT_EQ(Queue.weakEnqueue(Big), PushResult::Done);
  const auto Res = Queue.weakDequeue();
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), Big);
}

//===----------------------------------------------------------------------===
// Access counts (experiment E7's cost model)
//===----------------------------------------------------------------------===

TEST(QueueAccessCountTest, SoloEnqueueIsSixAccesses) {
  AbortableQueue<> Queue(8);
  const AccessCounts Counts = countAccesses(
      [&] { EXPECT_EQ(Queue.weakEnqueue(1), PushResult::Done); });
  // read REAR, help (read + C&S), read FRONT, read ITEMS[next], C&S REAR.
  EXPECT_EQ(Counts.total(), 6u);
}

TEST(QueueAccessCountTest, SoloDequeueIsSixAccesses) {
  AbortableQueue<> Queue(8);
  (void)Queue.weakEnqueue(1);
  const AccessCounts Counts =
      countAccesses([&] { EXPECT_TRUE(Queue.weakDequeue().isValue()); });
  // read REAR, help (read + C&S), read FRONT, read ITEMS[next], C&S
  // FRONT — the generation certificate is free when the slot is helped.
  EXPECT_EQ(Counts.total(), 6u);
}

TEST(QueueAccessCountTest, SoloStrongOpIsSevenAccesses) {
  ContentionSensitiveQueue<> Queue(2, 8);
  const AccessCounts Counts = countAccesses(
      [&] { EXPECT_EQ(Queue.enqueue(0, 5), PushResult::Done); });
  EXPECT_EQ(Counts.total(), 7u);
}

//===----------------------------------------------------------------------===
// Non-interference: the paper's motivating queue example
//===----------------------------------------------------------------------===

TEST(QueueNonInterferenceTest, EnqueueAndDequeueOnNonEmptyQueueCommute) {
  // "operations accessing concurrently the object are non-interfering
  // (e.g., enqueuing and dequeuing on a non-empty queue)" — Section 1.
  // A dequeue C&Ses only FRONT and an enqueue only REAR, so one producer
  // plus one consumer on a queue that provably never empties nor fills
  // (prefill 20008, 20000 ops each, capacity 40016) can never abort,
  // regardless of interleaving.
  AbortableQueue<> Queue(40016);
  for (std::uint32_t I = 0; I < 20008; ++I)
    ASSERT_EQ(Queue.weakEnqueue(I + 1), PushResult::Done);

  SpinBarrier Barrier(2);
  std::uint64_t EnqueueAborts = 0, DequeueAborts = 0;
  std::thread Producer([&] {
    Barrier.arriveAndWait();
    for (std::uint32_t I = 0; I < 20000; ++I)
      if (Queue.weakEnqueue(I + 100) == PushResult::Abort)
        ++EnqueueAborts;
  });
  std::thread Consumer([&] {
    Barrier.arriveAndWait();
    for (std::uint32_t I = 0; I < 20000; ++I)
      if (Queue.weakDequeue().isAbort())
        ++DequeueAborts;
  });
  Producer.join();
  Consumer.join();
  EXPECT_EQ(EnqueueAborts, 0u);
  EXPECT_EQ(DequeueAborts, 0u);
}

//===----------------------------------------------------------------------===
// Non-blocking queue
//===----------------------------------------------------------------------===

TEST(NonBlockingQueueTest, SequentialSemantics) {
  NonBlockingQueue<> Queue(4);
  EXPECT_EQ(Queue.enqueue(1), PushResult::Done);
  EXPECT_EQ(Queue.enqueue(2), PushResult::Done);
  auto R = Queue.dequeue();
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 1u);
  R = Queue.dequeue();
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 2u);
  EXPECT_TRUE(Queue.dequeue().isEmpty());
}

TEST(NonBlockingQueueTest, ConcurrentEnqueuesAllLand) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t PerThread = 400;
  NonBlockingQueue<> Queue(Threads * PerThread);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I)
        ASSERT_EQ(Queue.enqueue(T * PerThread + I + 1), PushResult::Done);
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Queue.sizeForTesting(), Threads * PerThread);

  std::vector<bool> Seen(Threads * PerThread + 1, false);
  std::vector<std::uint32_t> LastPerThread(Threads, 0);
  for (std::uint32_t I = 0; I < Threads * PerThread; ++I) {
    const auto Res = Queue.dequeue();
    ASSERT_TRUE(Res.isValue());
    const std::uint32_t V = Res.value();
    ASSERT_FALSE(Seen[V]) << "value dequeued twice";
    Seen[V] = true;
    // FIFO per producer: a thread's values come out in push order.
    const std::uint32_t Producer = (V - 1) / PerThread;
    ASSERT_GT(V, LastPerThread[Producer]);
    LastPerThread[Producer] = V;
  }
  EXPECT_TRUE(Queue.dequeue().isEmpty());
}

TEST(NonBlockingQueueTest, ProducerConsumerConservesValues) {
  NonBlockingQueue<> Queue(64);
  constexpr std::uint32_t Count = 20000;
  std::uint64_t SumIn = 0, SumOut = 0;
  SpinBarrier Barrier(2);
  std::thread Producer([&] {
    SplitMix64 Rng(3);
    Barrier.arriveAndWait();
    for (std::uint32_t I = 0; I < Count; ++I) {
      const auto V = static_cast<std::uint32_t>(Rng.below(1u << 20)) + 1;
      while (Queue.enqueue(V) != PushResult::Done) {
      }
      SumIn += V;
    }
  });
  std::thread Consumer([&] {
    Barrier.arriveAndWait();
    std::uint32_t Got = 0;
    while (Got < Count) {
      const auto Res = Queue.dequeue();
      if (Res.isValue()) {
        SumOut += Res.value();
        ++Got;
      }
    }
  });
  Producer.join();
  Consumer.join();
  EXPECT_EQ(SumIn, SumOut);
  EXPECT_EQ(Queue.sizeForTesting(), 0u);
}

//===----------------------------------------------------------------------===
// Contention-sensitive queue
//===----------------------------------------------------------------------===

TEST(ContentionSensitiveQueueTest, SequentialSemantics) {
  ContentionSensitiveQueue<> Queue(2, 4);
  EXPECT_EQ(Queue.enqueue(0, 11), PushResult::Done);
  EXPECT_EQ(Queue.enqueue(1, 22), PushResult::Done);
  auto R = Queue.dequeue(0);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 11u);
  R = Queue.dequeue(1);
  ASSERT_TRUE(R.isValue());
  EXPECT_EQ(R.value(), 22u);
  EXPECT_TRUE(Queue.dequeue(0).isEmpty());
}

TEST(ContentionSensitiveQueueTest, StrongOpsNeverAbortUnderContention) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t OpsPerThread = 1500;
  ContentionSensitiveQueue<> Queue(Threads, 256);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 77);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
        if (Rng.chance(1, 2)) {
          ASSERT_NE(Queue.enqueue(
                        T, static_cast<std::uint32_t>(Rng.below(9999)) + 1),
                    PushResult::Abort);
        } else {
          ASSERT_FALSE(Queue.dequeue(T).isAbort());
        }
      }
    });
  for (auto &W : Workers)
    W.join();
}

} // namespace
} // namespace csobj
