//===- tests/property_test.cpp - Parameterized property sweeps -----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style sweeps over capacities, seeds, thread counts and op
/// mixes using parameterized gtest suites. The invariants checked:
///
///  P1. Sequential equivalence: any single-threaded operation sequence on
///      any stack/queue implementation matches the reference model.
///  P2. Conservation: under concurrency, every pushed value pops at most
///      once and nothing is invented; net count matches final size.
///  P3. Solo non-abort: weak operations never abort without concurrency,
///      for any capacity and any operation mix.
///  P4. Access-count constancy: the paper's 5/6 access counts hold for
///      EVERY state of the object, not just the empty one.
///
//===----------------------------------------------------------------------===//

#include "core/AbortableQueue.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "core/NonBlockingStack.h"
#include "memory/AccessCounter.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <thread>
#include <tuple>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// P1: sequential equivalence, swept over (capacity, seed, push-bias)
//===----------------------------------------------------------------------===

class StackSequentialProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>> {};

TEST_P(StackSequentialProperty, MatchesReferenceModel) {
  const auto [Capacity, Seed, PushPercent] = GetParam();
  AbortableStack<> Weak(Capacity);
  NonBlockingStack<> NonBlocking(Capacity);
  ContentionSensitiveStack<> Strong(1, Capacity);
  std::vector<std::uint32_t> Model;
  SplitMix64 Rng(Seed);
  for (int I = 0; I < 3000; ++I) {
    if (Rng.chance(PushPercent, 100)) {
      const auto V = static_cast<std::uint32_t>(Rng.below(1u << 24)) + 1;
      const PushResult Expected = Model.size() < Capacity
                                      ? PushResult::Done
                                      : PushResult::Full;
      ASSERT_EQ(Weak.weakPush(V), Expected);
      ASSERT_EQ(NonBlocking.push(V), Expected);
      ASSERT_EQ(Strong.push(0, V), Expected);
      if (Expected == PushResult::Done)
        Model.push_back(V);
    } else {
      const auto A = Weak.weakPop();
      const auto B = NonBlocking.pop();
      const auto C = Strong.pop(0);
      if (Model.empty()) {
        ASSERT_TRUE(A.isEmpty());
        ASSERT_TRUE(B.isEmpty());
        ASSERT_TRUE(C.isEmpty());
      } else {
        ASSERT_TRUE(A.isValue());
        ASSERT_EQ(A.value(), Model.back());
        ASSERT_EQ(B.value(), Model.back());
        ASSERT_EQ(C.value(), Model.back());
        Model.pop_back();
      }
    }
  }
  ASSERT_EQ(Weak.sizeForTesting(), Model.size());
  ASSERT_EQ(NonBlocking.sizeForTesting(), Model.size());
  ASSERT_EQ(Strong.sizeForTesting(), Model.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StackSequentialProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 64u, 1000u),
                       ::testing::Values(1u, 42u, 12345u),
                       ::testing::Values(30u, 50u, 70u)));

class QueueSequentialProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>> {};

TEST_P(QueueSequentialProperty, MatchesReferenceModel) {
  const auto [Capacity, Seed, PushPercent] = GetParam();
  AbortableQueue<> Weak(Capacity);
  ContentionSensitiveQueue<> Strong(1, Capacity);
  std::deque<std::uint32_t> Model;
  SplitMix64 Rng(Seed);
  for (int I = 0; I < 3000; ++I) {
    if (Rng.chance(PushPercent, 100)) {
      const auto V = static_cast<std::uint32_t>(Rng.below(1u << 24)) + 1;
      const PushResult Expected = Model.size() < Capacity
                                      ? PushResult::Done
                                      : PushResult::Full;
      ASSERT_EQ(Weak.weakEnqueue(V), Expected);
      ASSERT_EQ(Strong.enqueue(0, V), Expected);
      if (Expected == PushResult::Done)
        Model.push_back(V);
    } else {
      const auto A = Weak.weakDequeue();
      const auto B = Strong.dequeue(0);
      if (Model.empty()) {
        ASSERT_TRUE(A.isEmpty());
        ASSERT_TRUE(B.isEmpty());
      } else {
        ASSERT_TRUE(A.isValue());
        ASSERT_EQ(A.value(), Model.front());
        ASSERT_EQ(B.value(), Model.front());
        Model.pop_front();
      }
    }
  }
  ASSERT_EQ(Weak.sizeForTesting(), Model.size());
  ASSERT_EQ(Strong.sizeForTesting(), Model.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueSequentialProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 64u, 1000u),
                       ::testing::Values(1u, 42u, 12345u),
                       ::testing::Values(30u, 50u, 70u)));

//===----------------------------------------------------------------------===
// P2: conservation under concurrency, swept over thread counts
//===----------------------------------------------------------------------===

class StackConservationProperty
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StackConservationProperty, NoValueInventedOrDuplicated) {
  const std::uint32_t Threads = GetParam();
  constexpr std::uint32_t PerThread = 600;
  ContentionSensitiveStack<> Stack(Threads, Threads * PerThread);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  std::vector<std::vector<std::uint32_t>> PoppedPerThread(Threads);
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(T + 1000);
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I) {
        // Unique tagged values: thread id in the top bits.
        const std::uint32_t V = (T << 24) | (I + 1);
        ASSERT_EQ(Stack.push(T, V), PushResult::Done);
        if (Rng.chance(1, 2)) {
          const auto R = Stack.pop(T);
          if (R.isValue())
            PoppedPerThread[T].push_back(R.value());
        }
      }
    });
  for (auto &W : Workers)
    W.join();

  // Drain and collect everything.
  std::vector<std::uint32_t> All;
  for (auto &P : PoppedPerThread)
    All.insert(All.end(), P.begin(), P.end());
  while (true) {
    const auto R = Stack.pop(0);
    if (!R.isValue())
      break;
    All.push_back(R.value());
  }
  ASSERT_EQ(All.size(), static_cast<std::size_t>(Threads) * PerThread);
  std::sort(All.begin(), All.end());
  ASSERT_TRUE(std::adjacent_find(All.begin(), All.end()) == All.end())
      << "duplicate value popped";
  for (std::uint32_t V : All) {
    const std::uint32_t T = V >> 24;
    const std::uint32_t I = V & 0xFFFFFF;
    ASSERT_LT(T, Threads);
    ASSERT_GE(I, 1u);
    ASSERT_LE(I, PerThread);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StackConservationProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

//===----------------------------------------------------------------------===
// P3: solo operations never abort, swept over capacity and mix
//===----------------------------------------------------------------------===

class SoloNeverAbortsProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(SoloNeverAbortsProperty, StackAndQueue) {
  const auto [Capacity, PushPercent] = GetParam();
  AbortableStack<> Stack(Capacity);
  AbortableQueue<> Queue(Capacity);
  SplitMix64 Rng(Capacity * 31 + PushPercent);
  for (int I = 0; I < 2000; ++I) {
    const auto V = static_cast<std::uint32_t>(Rng.below(1u << 20)) + 1;
    if (Rng.chance(PushPercent, 100)) {
      ASSERT_NE(Stack.weakPush(V), PushResult::Abort);
      ASSERT_NE(Queue.weakEnqueue(V), PushResult::Abort);
    } else {
      ASSERT_FALSE(Stack.weakPop().isAbort());
      ASSERT_FALSE(Queue.weakDequeue().isAbort());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SoloNeverAbortsProperty,
    ::testing::Combine(::testing::Values(1u, 3u, 16u, 255u),
                       ::testing::Values(10u, 50u, 90u)));

//===----------------------------------------------------------------------===
// P4: access counts hold in every state (the paper's counts are
//     state-independent: "whatever the number of processes and the size
//     of the stack")
//===----------------------------------------------------------------------===

class AccessCountEveryStateProperty
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AccessCountEveryStateProperty, StackCountsAreStateIndependent) {
  const std::uint32_t Prefill = GetParam();
  ContentionSensitiveStack<> Stack(2, 1024);
  for (std::uint32_t I = 0; I < Prefill; ++I)
    ASSERT_EQ(Stack.push(0, I + 1), PushResult::Done);

  const AccessCounts PushCounts =
      countAccesses([&] { ASSERT_EQ(Stack.push(0, 7), PushResult::Done); });
  EXPECT_EQ(PushCounts.total(), 6u);
  EXPECT_EQ(PushCounts.CasFailures, 0u);

  const AccessCounts PopCounts =
      countAccesses([&] { ASSERT_TRUE(Stack.pop(1).isValue()); });
  EXPECT_EQ(PopCounts.total(), 6u);
  EXPECT_EQ(PopCounts.CasFailures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AccessCountEveryStateProperty,
                         ::testing::Values(0u, 1u, 5u, 100u, 1000u));

//===----------------------------------------------------------------------===
// Codec cross-checks: Compact64 and Wide128 agree behaviourally
//===----------------------------------------------------------------------===

class CodecAgreementProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CodecAgreementProperty, BothCodecsSameResults) {
  const std::uint64_t Seed = GetParam();
  AbortableStack<Compact64> Narrow(16);
  AbortableStack<Wide128> Wide(16);
  SplitMix64 Rng(Seed);
  for (int I = 0; I < 2000; ++I) {
    if (Rng.chance(1, 2)) {
      const auto V = static_cast<std::uint32_t>(Rng.below(1u << 24)) + 1;
      ASSERT_EQ(Narrow.weakPush(V), Wide.weakPush(V));
    } else {
      const auto A = Narrow.weakPop();
      const auto B = Wide.weakPop();
      ASSERT_EQ(A.isValue(), B.isValue());
      ASSERT_EQ(A.isEmpty(), B.isEmpty());
      if (A.isValue()) {
        ASSERT_EQ(static_cast<std::uint64_t>(A.value()), B.value());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CodecAgreementProperty,
                         ::testing::Values(3u, 99u, 2024u, 777777u));

//===----------------------------------------------------------------------===
// Wide128 end-to-end: the DWCAS configuration behaves identically under
// concurrency, including the Figure 3 wrapper and 64-bit payloads
//===----------------------------------------------------------------------===

class Wide128Property : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Wide128Property, CsStackConservesWidePayloads) {
  const std::uint32_t Threads = GetParam();
  constexpr std::uint32_t PerThread = 300;
  ContentionSensitiveStack<Wide128> Stack(Threads, Threads * PerThread);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I) {
        // 64-bit payloads that exceed any 32-bit field.
        const std::uint64_t V =
            (static_cast<std::uint64_t>(T + 1) << 40) | (I + 1);
        ASSERT_EQ(Stack.push(T, V), PushResult::Done);
      }
    });
  for (auto &W : Workers)
    W.join();
  ASSERT_EQ(Stack.sizeForTesting(), Threads * PerThread);
  std::uint64_t Seen = 0;
  for (std::uint32_t I = 0; I < Threads * PerThread; ++I) {
    const auto R = Stack.pop(0);
    ASSERT_TRUE(R.isValue());
    ASSERT_GT(R.value() >> 40, 0u) << "wide payload truncated";
    Seen += R.value();
  }
  std::uint64_t Expected = 0;
  for (std::uint32_t T = 0; T < Threads; ++T)
    for (std::uint32_t I = 0; I < PerThread; ++I)
      Expected += (static_cast<std::uint64_t>(T + 1) << 40) | (I + 1);
  ASSERT_EQ(Seen, Expected);
}

TEST_P(Wide128Property, CsQueueFifoPerProducer) {
  const std::uint32_t Threads = GetParam();
  constexpr std::uint32_t PerThread = 300;
  ContentionSensitiveQueue<Wide128> Queue(Threads, Threads * PerThread);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < PerThread; ++I) {
        const std::uint64_t V =
            (static_cast<std::uint64_t>(T + 1) << 40) | (I + 1);
        ASSERT_EQ(Queue.enqueue(T, V), PushResult::Done);
      }
    });
  for (auto &W : Workers)
    W.join();
  std::vector<std::uint64_t> LastPerProducer(Threads, 0);
  for (std::uint32_t I = 0; I < Threads * PerThread; ++I) {
    const auto R = Queue.dequeue(0);
    ASSERT_TRUE(R.isValue());
    const auto Producer =
        static_cast<std::uint32_t>((R.value() >> 40) - 1);
    ASSERT_LT(Producer, Threads);
    ASSERT_GT(R.value(), LastPerProducer[Producer])
        << "per-producer FIFO violated";
    LastPerProducer[Producer] = R.value();
  }
  ASSERT_TRUE(Queue.dequeue(0).isEmpty());
}

INSTANTIATE_TEST_SUITE_P(Sweep, Wide128Property,
                         ::testing::Values(1u, 2u, 4u));

//===----------------------------------------------------------------------===
// Sequence-number wrap: 16-bit tags survive > 2^16 reuses of one slot
//===----------------------------------------------------------------------===

TEST(SeqWrapProperty, SingleSlotReusedBeyondTagRange) {
  AbortableStack<> Stack(1);
  for (std::uint32_t I = 0; I < (1u << 16) + 500; ++I) {
    ASSERT_EQ(Stack.weakPush(I | 1u), PushResult::Done);
    const auto R = Stack.weakPop();
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), I | 1u);
  }
  EXPECT_TRUE(Stack.weakPop().isEmpty());
}

TEST(SeqWrapProperty, QueueRingWrapsBeyondTagRange) {
  AbortableQueue<> Queue(2);
  for (std::uint32_t I = 0; I < (1u << 16) + 500; ++I) {
    ASSERT_EQ(Queue.weakEnqueue(I + 1), PushResult::Done);
    const auto R = Queue.weakDequeue();
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), I + 1);
  }
}

} // namespace
} // namespace csobj
