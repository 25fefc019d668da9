//===- tests/register_policy_test.cpp - Instrumented vs Fast -------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register-policy contract:
///
///  * Instrumented is the library default and keeps the paper's
///    access-count oracle exact — the six-access strong push is pinned
///    here including its read/C&S breakdown, so a future ordering or
///    layout change that sneaks in an extra shared access fails loudly.
///  * Fast must be observationally identical except that it is invisible
///    to the instrumentation channels: same values, same C&S semantics,
///    zero counted accesses.
///
//===----------------------------------------------------------------------===//

#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveStack.h"
#include "core/NonBlockingStack.h"
#include "locks/TasLock.h"
#include "memory/AccessCounter.h"
#include "memory/AtomicRegister.h"
#include "memory/RegisterPolicy.h"

#include <gtest/gtest.h>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// Policy identity
//===----------------------------------------------------------------------===

TEST(RegisterPolicyTest, PolicyNames) {
  EXPECT_STREQ(Instrumented::Name, "instrumented");
  EXPECT_STREQ(Fast::Name, "fast");
}

TEST(RegisterPolicyTest, TestBinariesDefaultToInstrumented) {
  // tests/CMakeLists.txt pins CSOBJ_FORCE_INSTRUMENTED_DEFAULT: the
  // suite's oracles live on the instrumented substrate regardless of
  // the CSOBJ_FAST_REGISTERS build setting.
  static_assert(std::is_same_v<DefaultRegisterPolicy, Instrumented>);
  static_assert(
      std::is_same_v<AtomicRegister<int>::RegisterPolicy, Instrumented>);
}

//===----------------------------------------------------------------------===
// The six-access regression pin (paper Theorem 1 + Figure 1 analysis)
//===----------------------------------------------------------------------===

TEST(RegisterPolicyTest, InstrumentedStrongPushBreakdownIsExactlySix) {
  // Contention-free strong push = 1 CONTENTION read + the weak push's
  // five accesses (read TOP, read STACK[i], C&S STACK[i], read
  // STACK[i+1], C&S TOP). Pinning the per-kind breakdown — not just the
  // total — catches a change that trades a read for a C&S.
  ContentionSensitiveStack<Compact64, TasLockT<Instrumented>, NoBackoff,
                           Instrumented>
      Stack(/*NumThreads=*/2, /*Capacity=*/8);
  const AccessCounts Counts = countAccesses(
      [&] { EXPECT_EQ(Stack.push(/*Tid=*/0, 42), PushResult::Done); });
  EXPECT_EQ(Counts.total(), 6u);
  EXPECT_EQ(Counts.Reads, 4u);       // CONTENTION + TOP + 2 slot reads.
  EXPECT_EQ(Counts.CasAttempts, 2u); // help C&S + TOP C&S.
  EXPECT_EQ(Counts.Writes, 0u);
  EXPECT_EQ(Counts.Rmw, 0u);
  EXPECT_EQ(Counts.CasFailures, 0u); // Uncontended: every C&S lands.
}

TEST(RegisterPolicyTest, InstrumentedStrongPopBreakdownIsExactlySix) {
  ContentionSensitiveStack<Compact64, TasLockT<Instrumented>, NoBackoff,
                           Instrumented>
      Stack(/*NumThreads=*/2, /*Capacity=*/8);
  ASSERT_EQ(Stack.push(0, 42), PushResult::Done);
  const AccessCounts Counts = countAccesses([&] {
    const auto Res = Stack.pop(/*Tid=*/1);
    ASSERT_TRUE(Res.isValue());
    EXPECT_EQ(Res.value(), 42u);
  });
  EXPECT_EQ(Counts.total(), 6u);
  EXPECT_EQ(Counts.Reads, 4u);
  EXPECT_EQ(Counts.CasAttempts, 2u);
}

//===----------------------------------------------------------------------===
// Fast is invisible to instrumentation
//===----------------------------------------------------------------------===

TEST(RegisterPolicyTest, FastRegisterCountsNothing) {
  AtomicRegister<std::uint32_t, Fast> Reg(1);
  const AccessCounts Counts = countAccesses([&] {
    EXPECT_EQ(Reg.read(), 1u);
    Reg.write(2);
    EXPECT_TRUE(Reg.compareAndSwap(2, 3));
    EXPECT_FALSE(Reg.compareAndSwap(2, 4));
    EXPECT_EQ(Reg.exchange(5), 3u);
    EXPECT_EQ(Reg.fetchAdd(1), 5u);
  });
  EXPECT_EQ(Counts.total(), 0u);
  EXPECT_EQ(Counts.CasFailures, 0u);
}

TEST(RegisterPolicyTest, FastStackOperationsCountNothing) {
  AbortableStack<Compact64, Fast> Stack(8);
  NonBlockingStack<Compact64, NoBackoff, Fast> NbStack(8);
  const AccessCounts Counts = countAccesses([&] {
    EXPECT_EQ(Stack.weakPush(7), PushResult::Done);
    EXPECT_TRUE(Stack.weakPop().isValue());
    EXPECT_EQ(NbStack.push(9), PushResult::Done);
    EXPECT_TRUE(NbStack.pop().isValue());
  });
  EXPECT_EQ(Counts.total(), 0u);
}

TEST(RegisterPolicyTest, FastPoolBackedBaselinesCountNothing) {
  // The node pool's registers follow the owner's policy, so a Fast
  // baseline's acquire and release are invisible too.
  TreiberStackT<Fast> Stack(/*NumThreads=*/1, /*Capacity=*/4);
  MichaelScottQueueT<Fast> Queue(/*NumThreads=*/1, /*Capacity=*/4);
  const AccessCounts Counts = countAccesses([&] {
    EXPECT_EQ(Stack.push(7), PushResult::Done);
    EXPECT_TRUE(Stack.pop().isValue());
    EXPECT_EQ(Queue.enqueue(9), PushResult::Done);
    EXPECT_TRUE(Queue.dequeue().isValue());
  });
  EXPECT_EQ(Counts.total(), 0u);
}

//===----------------------------------------------------------------------===
// Fast semantics match Instrumented semantics
//===----------------------------------------------------------------------===

template <typename Policy> void registerRoundTrip() {
  AtomicRegister<std::uint64_t, Policy> Reg(10);
  EXPECT_EQ(Reg.read(), 10u);
  Reg.write(20, std::memory_order_release);
  EXPECT_EQ(Reg.read(std::memory_order_acquire), 20u);
  // acq_rel C&S exercises failOrderFor (a failed acq_rel C&S must demote
  // to acquire; this would abort at runtime if the failure order were
  // passed through unmodified).
  EXPECT_FALSE(Reg.compareAndSwap(99, 30, std::memory_order_acq_rel));
  EXPECT_TRUE(Reg.compareAndSwap(20, 30, std::memory_order_acq_rel));
  std::uint64_t Witness = 0;
  EXPECT_FALSE(Reg.compareAndSwapValue(Witness, 40,
                                       std::memory_order_release));
  EXPECT_EQ(Witness, 30u); // Failure reports the current value.
  EXPECT_TRUE(Reg.compareAndSwapValue(Witness, 40));
  EXPECT_EQ(Reg.peekForTesting(), 40u);
  EXPECT_EQ(Reg.exchange(50), 40u);
  EXPECT_EQ(Reg.fetchAdd(5), 50u);
  EXPECT_EQ(Reg.read(), 55u);
}

TEST(RegisterPolicyTest, InstrumentedRegisterSemantics) {
  registerRoundTrip<Instrumented>();
}

TEST(RegisterPolicyTest, FastRegisterSemantics) {
  registerRoundTrip<Fast>();
}

TEST(RegisterPolicyTest, FastStackSequentialSemantics) {
  AbortableStack<Compact64, Fast> Stack(2);
  EXPECT_EQ(Stack.weakPush(1), PushResult::Done);
  EXPECT_EQ(Stack.weakPush(2), PushResult::Done);
  EXPECT_EQ(Stack.weakPush(3), PushResult::Full);
  auto Res = Stack.weakPop();
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), 2u);
  Res = Stack.weakPop();
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), 1u);
  EXPECT_TRUE(Stack.weakPop().isEmpty());
}

TEST(RegisterPolicyTest, FastCsStackSequentialSemantics) {
  ContentionSensitiveStack<Compact64, TasLockT<Fast>, NoBackoff, Fast>
      Stack(/*NumThreads=*/2, /*Capacity=*/4);
  EXPECT_EQ(Stack.push(0, 11), PushResult::Done);
  EXPECT_EQ(Stack.push(1, 22), PushResult::Done);
  auto Res = Stack.pop(0);
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), 22u);
  Res = Stack.pop(1);
  ASSERT_TRUE(Res.isValue());
  EXPECT_EQ(Res.value(), 11u);
  EXPECT_TRUE(Stack.pop(0).isEmpty());
}

} // namespace
} // namespace csobj
