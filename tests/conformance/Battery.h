//===- tests/conformance/Battery.h - Spec-driven conformance cells -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conformance battery: every concurrent object in src/core runs
/// through one shared matrix of checks instead of hand-written per-object
/// suites. An object joins the battery by providing a small adapter
/// (make / push / pop / makeSpec) and registering a BatteryEntry; the six
/// cells below are generic over the adapter:
///
///   SpecReplay     solo op sequence crossing Full/Empty edges, every
///                  result validated against the sequential spec
///   LincheckStress randomized multi-thread rounds, each round checked
///                  for linearizability (Wing & Gong)
///   Explore        schedule-space search (exhaustive DFS where the
///                  schedule tree is bounded, random walks otherwise)
///   Chaos          the stress shape under FaultPlan::chaos yield/stall
///                  noise
///   CrashOrStall   a wall-clock stall-plan round for every entry, plus
///                  mode-specific crash sweeps (lock-free objects, the
///                  crash-tolerant skeleton, the leasable lock)
///   AccessBound    solo shared-access counts (exact for the paper's
///                  documented fast paths, upper bounds elsewhere)
///
/// Crash modes: RAII-locked baselines must never be crash-swept — the
/// SimulatedCrash unwind releases their ScopedLock, and a kill landing in
/// the noexcept unlock would terminate — so lock-based entries get stall
/// plans only, and leasable-lock crash coverage runs as a dedicated
/// non-RAII sweep (leasableLockCrashSweep). TimestampBoost's slow path
/// defers forever to a crashed announced process, so boosted entries are
/// stall-only too.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_TESTS_CONFORMANCE_BATTERY_H
#define CSOBJ_TESTS_CONFORMANCE_BATTERY_H

#include "conformance/Params.h"

#include "baselines/LockedMap.h"
#include "baselines/LockedQueue.h"
#include "baselines/LockedStack.h"
#include "core/AbortableQueue.h"
#include "core/AbortableStack.h"
#include "core/BoxedStack.h"
#include "core/ContentionSensitiveCounter.h"
#include "core/ContentionSensitiveDeque.h"
#include "core/ContentionSensitiveMap.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "core/CrashTolerantDeque.h"
#include "core/CrashTolerantQueue.h"
#include "core/CrashTolerantStack.h"
#include "core/NonBlockingQueue.h"
#include "core/NonBlockingStack.h"
#include "core/ObstructionFreeDeque.h"
#include "core/Results.h"
#include "core/SkipListCore.h"
#include "core/TimestampBoost.h"
#include "core/WaitFreeUniversal.h"
#include "faults/FaultInjector.h"
#include "faults/FaultPlan.h"
#include "lincheck/Checker.h"
#include "lincheck/History.h"
#include "lincheck/Spec.h"
#include "perf/AdaptiveShardedStack.h"
#include "perf/CombiningObjects.h"
#include "perf/EliminatingStack.h"
#include "locks/LockTraits.h"
#include "locks/StarvationFreeLock.h"
#include "locks/TasLock.h"
#include "memory/AccessCounter.h"
#include "memory/AtomicRegister.h"
#include "obs/PathCounters.h"
#include "runtime/SpinBarrier.h"
#include "sched/Explorer.h"
#include "sched/InterleaveScheduler.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace csobj {
namespace conformance {

//===----------------------------------------------------------------------===
// Shared helpers
//===----------------------------------------------------------------------===

/// Runs \p Body under the scheduler, crashing it at its (K+1)-th shared
/// access. Returns the number of decision points, so callers discover an
/// operation's access count by passing a huge K (same contract as the
/// helper in tests/crash_test.cpp).
inline std::size_t runAndCrashAt(std::function<void()> Body,
                                 std::uint32_t K) {
  InterleaveScheduler Scheduler(1);
  const auto Trace = Scheduler.run(
      {std::move(Body)},
      [K](std::size_t Step, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        if (Step == K)
          return Parked.front() | InterleaveScheduler::KillFlag;
        return Parked.front();
      });
  return Trace.Decisions.size();
}

inline std::uint32_t randomValue(SplitMix64 &Rng) {
  return static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
}

/// Which asynchrony source a stress round runs under.
enum class AsyncMode { None, Chaos, StallPlan };

/// The fault plan every thread of a stress round runs: yield/stall noise
/// on every thread (streams drawn from \p RoundSeed) in Chaos mode, one
/// victim stalled at a fixed access in StallPlan mode, none otherwise.
inline FaultPlan asyncPlan(AsyncMode Mode, std::uint64_t RoundSeed) {
  switch (Mode) {
  case AsyncMode::Chaos: {
    FaultPlan Plan = FaultPlan::chaos(StressThreads, ChaosYieldPermille,
                                      ChaosStallPermille, ChaosStallGrants);
    Plan.RateSeed = RoundSeed;
    return Plan;
  }
  case AsyncMode::StallPlan:
    return FaultPlan::stallAt(0, StallPlanAtAccess, StallPlanGrants);
  case AsyncMode::None:
    break;
  }
  return FaultPlan{};
}

//===----------------------------------------------------------------------===
// Push/pop family adapters
//===----------------------------------------------------------------------===
// Contract: using Object; static constexpr bool Strong (ops never abort);
// make(Threads, Capacity); push(Object&, Tid, V) -> PushResult;
// pop(Object&, Tid) -> PopResult<uint32_t>; makeSpec() over SmallCapacity.

struct AbortableStackAdapter {
  using Object = AbortableStack<>;
  static constexpr bool Strong = false;
  static std::unique_ptr<Object> make(std::uint32_t /*Threads*/,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Capacity);
  }
  static PushResult push(Object &O, std::uint32_t /*Tid*/, std::uint32_t V) {
    return O.weakPush(V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t /*Tid*/) {
    return O.weakPop();
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }
};

struct NonBlockingStackAdapter {
  using Object = NonBlockingStack<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t /*Threads*/,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Capacity);
  }
  static PushResult push(Object &O, std::uint32_t /*Tid*/, std::uint32_t V) {
    return O.push(V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t /*Tid*/) {
    return O.pop();
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }
};

struct CsStackAdapter {
  using Object = ContentionSensitiveStack<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }
};

struct CtStackAdapter {
  using Object = CrashTolerantStack<>;
  using Skeleton = Object::Skeleton;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    // Small patience everywhere: false revocation is linearizable for
    // crash-tolerant objects (linearization points live in the weak
    // C&S), and it buys degraded-path coverage in every cell.
    return std::make_unique<Object>(Threads, Capacity, SmallPatience);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }

  // Crash-sweep extras.
  static std::unique_ptr<Object> makeForSweep() {
    return std::make_unique<Object>(2, SmallCapacity, SmallPatience);
  }
  static Skeleton &skeleton(Object &O) { return O.skeleton(); }
  static auto forcedSlow(Object &O, std::uint32_t V) {
    return [&O, V, Attempts = 0]() mutable -> std::optional<PushResult> {
      if (Attempts++ == 0)
        return std::nullopt;
      const PushResult R = O.abortable().weakPush(V);
      if (R == PushResult::Abort)
        return std::nullopt;
      return R;
    };
  }
  static std::uint32_t drainCount(Object &O) {
    std::uint32_t Seen = 0;
    while (O.abortable().weakPop().isValue())
      ++Seen;
    return Seen;
  }
};

struct BoxedStackAdapter {
  using Object = BoxedStack<std::uint32_t>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V) ? PushResult::Done : PushResult::Full;
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    const std::optional<std::uint32_t> R = O.pop(Tid);
    return R ? PopResult<std::uint32_t>::value(*R)
             : PopResult<std::uint32_t>::empty();
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }
};

struct BoostedStackAdapter {
  using Object = BoostedStack<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }
};

struct WaitFreeStackAdapter {
  using Object = WaitFreeStack<SmallCapacity, 8>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    EXPECT_EQ(Capacity, SmallCapacity) << "compile-time capacity";
    return std::make_unique<Object>(Threads);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }
};

template <typename Lock> struct LockedStackAdapter {
  using Object = LockedStack<Lock>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }
};

// Unbounded (chunked, hazard-reclaimed) stack. The battery drives it
// well below its envelope, so Full is unreachable — exactly the
// "unbounded" contract — and the spec capacity is the envelope itself.
struct UnboundedStackAdapter {
  using Object = UnboundedStack<>;
  static constexpr bool Strong = false;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t /*Capacity*/) {
    return std::make_unique<Object>(Threads);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.weakPush(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.weakPop(Tid);
  }
  static BoundedStackSpec makeSpec() {
    return BoundedStackSpec(Object::TopC::MaxIndex);
  }
};

struct UnboundedCsStackAdapter {
  using Object = ContentionSensitiveUnboundedStack<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t /*Capacity*/) {
    return std::make_unique<Object>(Threads);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedStackSpec makeSpec() {
    return BoundedStackSpec(UnboundedStack<>::TopC::MaxIndex);
  }
};

struct AbortableQueueAdapter {
  using Object = AbortableQueue<>;
  static constexpr bool Strong = false;
  static std::unique_ptr<Object> make(std::uint32_t /*Threads*/,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Capacity);
  }
  static PushResult push(Object &O, std::uint32_t /*Tid*/, std::uint32_t V) {
    return O.weakEnqueue(V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t /*Tid*/) {
    return O.weakDequeue();
  }
  static BoundedQueueSpec makeSpec() { return BoundedQueueSpec(SmallCapacity); }
};

struct NonBlockingQueueAdapter {
  using Object = NonBlockingQueue<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t /*Threads*/,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Capacity);
  }
  static PushResult push(Object &O, std::uint32_t /*Tid*/, std::uint32_t V) {
    return O.enqueue(V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t /*Tid*/) {
    return O.dequeue();
  }
  static BoundedQueueSpec makeSpec() { return BoundedQueueSpec(SmallCapacity); }
};

struct CsQueueAdapter {
  using Object = ContentionSensitiveQueue<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.enqueue(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.dequeue(Tid);
  }
  static BoundedQueueSpec makeSpec() { return BoundedQueueSpec(SmallCapacity); }
};

struct CtQueueAdapter {
  using Object = CrashTolerantQueue<>;
  using Skeleton = Object::Skeleton;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity, SmallPatience);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.enqueue(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.dequeue(Tid);
  }
  static BoundedQueueSpec makeSpec() { return BoundedQueueSpec(SmallCapacity); }

  static std::unique_ptr<Object> makeForSweep() {
    return std::make_unique<Object>(2, SmallCapacity, SmallPatience);
  }
  static Skeleton &skeleton(Object &O) { return O.skeleton(); }
  static auto forcedSlow(Object &O, std::uint32_t V) {
    return [&O, V, Attempts = 0]() mutable -> std::optional<PushResult> {
      if (Attempts++ == 0)
        return std::nullopt;
      const PushResult R = O.abortable().weakEnqueue(V);
      if (R == PushResult::Abort)
        return std::nullopt;
      return R;
    };
  }
  static std::uint32_t drainCount(Object &O) {
    std::uint32_t Seen = 0;
    while (O.abortable().weakDequeue().isValue())
      ++Seen;
    return Seen;
  }
};

// Unbounded (chunked-ring, hazard-reclaimed) queue. Like the unbounded
// stack, the battery never approaches the envelope, so Full stays
// unreachable and the spec capacity is the envelope.
struct UnboundedQueueAdapter {
  using Object = UnboundedQueue<>;
  static constexpr bool Strong = false;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t /*Capacity*/) {
    return std::make_unique<Object>(Threads);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.weakEnqueue(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.weakDequeue(Tid);
  }
  static BoundedQueueSpec makeSpec() {
    return BoundedQueueSpec(Object::TopC::MaxIndex);
  }
};

struct UnboundedCsQueueAdapter {
  using Object = ContentionSensitiveUnboundedQueue<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t /*Capacity*/) {
    return std::make_unique<Object>(Threads);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.enqueue(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.dequeue(Tid);
  }
  static BoundedQueueSpec makeSpec() {
    return BoundedQueueSpec(UnboundedQueue<>::TopC::MaxIndex);
  }
};

template <typename Lock> struct LockedQueueAdapter {
  using Object = LockedQueue<Lock>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.enqueue(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.dequeue(Tid);
  }
  static BoundedQueueSpec makeSpec() { return BoundedQueueSpec(SmallCapacity); }
};

//===----------------------------------------------------------------------===
// Deque family adapters
//===----------------------------------------------------------------------===
// Contract: push(Object&, Tid, Left, V); pop(Object&, Tid, Left); both
// ends recorded as PushLeft/PushRight/PopLeft/PopRight over the
// positional LinearDequeSpec (SmallCapacity with SmallLeftSlots).

struct OfDequeAdapter {
  using Object = ObstructionFreeDeque;
  static constexpr bool Strong = false;
  static std::unique_ptr<Object> make(std::uint32_t /*Threads*/) {
    return std::make_unique<Object>(SmallCapacity, SmallLeftSlots);
  }
  static PushResult push(Object &O, std::uint32_t /*Tid*/, bool Left,
                         std::uint32_t V) {
    return Left ? O.tryPushLeft(V) : O.tryPushRight(V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t /*Tid*/,
                                      bool Left) {
    return Left ? O.tryPopLeft() : O.tryPopRight();
  }
  static LinearDequeSpec makeSpec() {
    return LinearDequeSpec(SmallCapacity, SmallLeftSlots);
  }
};

struct CsDequeAdapter {
  using Object = ContentionSensitiveDeque<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads) {
    return std::make_unique<Object>(Threads, SmallCapacity, SmallLeftSlots);
  }
  static PushResult push(Object &O, std::uint32_t Tid, bool Left,
                         std::uint32_t V) {
    return Left ? O.pushLeft(Tid, V) : O.pushRight(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid,
                                      bool Left) {
    return Left ? O.popLeft(Tid) : O.popRight(Tid);
  }
  static LinearDequeSpec makeSpec() {
    return LinearDequeSpec(SmallCapacity, SmallLeftSlots);
  }
};

struct CtDequeAdapter {
  using Object = CrashTolerantDeque<>;
  using Skeleton = Object::Skeleton;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads) {
    return std::make_unique<Object>(Threads, SmallCapacity, SmallLeftSlots,
                                    SmallPatience);
  }
  static PushResult push(Object &O, std::uint32_t Tid, bool Left,
                         std::uint32_t V) {
    return Left ? O.pushLeft(Tid, V) : O.pushRight(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid,
                                      bool Left) {
    return Left ? O.popLeft(Tid) : O.popRight(Tid);
  }
  static LinearDequeSpec makeSpec() {
    return LinearDequeSpec(SmallCapacity, SmallLeftSlots);
  }

  // Crash-sweep extras: all slots on the right so the survivor's two
  // healing pushes always fit regardless of whether the corpse's landed.
  static std::unique_ptr<Object> makeForSweep() {
    return std::make_unique<Object>(2, SmallCapacity, /*InitialLeftSlots=*/0,
                                    SmallPatience);
  }
  static Skeleton &skeleton(Object &O) { return O.skeleton(); }
  static auto forcedSlow(Object &O, std::uint32_t V) {
    return [&O, V, Attempts = 0]() mutable -> std::optional<PushResult> {
      if (Attempts++ == 0)
        return std::nullopt;
      const PushResult R = O.abortable().tryPushRight(V);
      if (R == PushResult::Abort)
        return std::nullopt;
      return R;
    };
  }
  static std::uint32_t drainCount(Object &O) {
    std::uint32_t Seen = 0;
    while (O.abortable().tryPopRight().isValue())
      ++Seen;
    return Seen;
  }
};

//===----------------------------------------------------------------------===
// Acceleration-layer adapters (perf/)
//===----------------------------------------------------------------------===
// Tiny elimination arrays (one slot, short spin budget) keep the stress
// rendezvous rate high and the schedule trees small. All four entries are
// stall-plan-only: their contended paths hold a lock or the combiner
// word, so a crash strands waiters by design (see the registry comment).

struct EliminatingCsStackAdapter {
  using Object = EliminatingContentionSensitiveStack<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity, /*SlotCount=*/1,
                                    /*SpinBudget=*/8);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }
};

struct CombiningStackAdapter {
  using Object = CombiningStack<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedStackSpec makeSpec() { return BoundedStackSpec(SmallCapacity); }
};

struct CombiningQueueAdapter {
  using Object = CombiningQueue<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.enqueue(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.dequeue(Tid);
  }
  static BoundedQueueSpec makeSpec() { return BoundedQueueSpec(SmallCapacity); }
};

struct CombiningDequeAdapter {
  using Object = CombiningDeque;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads) {
    return std::make_unique<Object>(Threads, SmallCapacity, SmallLeftSlots);
  }
  static PushResult push(Object &O, std::uint32_t Tid, bool Left,
                         std::uint32_t V) {
    return Left ? O.pushLeft(Tid, V) : O.pushRight(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid,
                                      bool Left) {
    return Left ? O.popLeft(Tid) : O.popRight(Tid);
  }
  static LinearDequeSpec makeSpec() {
    return LinearDequeSpec(SmallCapacity, SmallLeftSlots);
  }
};

/// The static two-shard bag: the adaptive facade at its full mask with
/// the controller off, so the mask and the epoch never move.
struct ShardedStackAdapter {
  using Object = AdaptiveShardedStack<2>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity, /*InitialShards=*/2,
                                    /*SlotCount=*/1, /*SpinBudget=*/8,
                                    ShardControllerConfig{.TickOps = 0});
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  /// A bag, not a stack: pops return some element (per-shard LIFO only).
  static BoundedBagSpec makeSpec() { return BoundedBagSpec(SmallCapacity); }
};

/// Adaptive facade with the default (bench-cadence) controller: the mask
/// starts at one shard and widens only through op-driven grow-on-full, so
/// this entry certifies that reconfiguration epochs preserve the
/// BoundedBagSpec answers (observable capacity is TotalCapacity from the
/// first operation, Empty spans retired shards).
struct AdaptiveStackAdapter {
  using Object = AdaptiveShardedStack<2>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity, /*InitialShards=*/1,
                                    /*SlotCount=*/1, /*SpinBudget=*/8);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedBagSpec makeSpec() { return BoundedBagSpec(SmallCapacity); }
};

/// The same facade with a deliberately twitchy controller (tick every 4
/// ops, act on 8-op deltas, shrink at a 50% shortcut ratio): under the
/// battery's chaos and stall schedules the mask grows AND shrinks many
/// times per round, so conservation and the boundary certificates are
/// exercised across live reconfiguration epochs, not just at quiesce.
struct AdaptiveChurnStackAdapter {
  using Object = AdaptiveShardedStack<2>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    ShardControllerConfig Ctl;
    Ctl.TickOps = 4;
    Ctl.MinDeltaOps = 8;
    Ctl.GrowLockRatio = 0.01;
    Ctl.ShrinkShortcutRatio = 0.5;
    return std::make_unique<Object>(Threads, Capacity, /*InitialShards=*/2,
                                    /*SlotCount=*/1, /*SpinBudget=*/8, Ctl);
  }
  static PushResult push(Object &O, std::uint32_t Tid, std::uint32_t V) {
    return O.push(Tid, V);
  }
  static PopResult<std::uint32_t> pop(Object &O, std::uint32_t Tid) {
    return O.pop(Tid);
  }
  static BoundedBagSpec makeSpec() { return BoundedBagSpec(SmallCapacity); }
};

//===----------------------------------------------------------------------===
// Cell: SpecReplay (solo, every result validated against the spec)
//===----------------------------------------------------------------------===

template <typename A> void specReplayCell() {
  auto Obj = A::make(StressThreads, SmallCapacity);
  auto Spec = A::makeSpec();
  std::uint64_t Clock = 0;

  auto DoPush = [&](std::uint32_t V) {
    const PushResult R = A::push(*Obj, 0, V);
    ASSERT_NE(R, PushResult::Abort) << "solo push aborted";
    Operation Op;
    Op.Tid = 0;
    Op.Code = OpCode::Push;
    Op.Arg = V;
    Op.Result = R == PushResult::Full ? ResCode::Full : ResCode::Done;
    Op.InvokeNs = Clock++;
    Op.ResponseNs = Clock++;
    ASSERT_TRUE(Spec.apply(Op))
        << "push(" << V << ") disagrees with the sequential spec";
  };
  auto DoPop = [&] {
    const PopResult<std::uint32_t> R = A::pop(*Obj, 0);
    ASSERT_FALSE(R.isAbort()) << "solo pop aborted";
    Operation Op;
    Op.Tid = 0;
    Op.Code = OpCode::Pop;
    if (R.isValue()) {
      Op.Result = ResCode::Value;
      Op.RetValue = R.value();
    } else {
      Op.Result = ResCode::Empty;
    }
    Op.InvokeNs = Clock++;
    Op.ResponseNs = Clock++;
    ASSERT_TRUE(Spec.apply(Op)) << "pop disagrees with the sequential spec";
  };

  // Cross the Full edge, then the Empty edge.
  for (std::uint32_t V = 1; V <= SmallCapacity + 2; ++V)
    DoPush(V);
  for (std::uint32_t I = 0; I <= SmallCapacity + 2; ++I)
    DoPop();
  // Random solo mix, still spec-validated at every step.
  SplitMix64 Rng(0xC0FFEEull);
  for (std::uint32_t I = 0; I < 32; ++I) {
    if (Rng.chance(1, 2))
      DoPush(randomValue(Rng));
    else
      DoPop();
  }
}

template <typename A> void dequeSpecReplayCell() {
  auto Obj = A::make(StressThreads);
  auto Spec = A::makeSpec();
  std::uint64_t Clock = 0;

  auto DoPush = [&](bool Left, std::uint32_t V) {
    const PushResult R = A::push(*Obj, 0, Left, V);
    ASSERT_NE(R, PushResult::Abort) << "solo push aborted";
    Operation Op;
    Op.Tid = 0;
    Op.Code = Left ? OpCode::PushLeft : OpCode::PushRight;
    Op.Arg = V;
    Op.Result = R == PushResult::Full ? ResCode::Full : ResCode::Done;
    Op.InvokeNs = Clock++;
    Op.ResponseNs = Clock++;
    ASSERT_TRUE(Spec.apply(Op))
        << (Left ? "pushLeft(" : "pushRight(") << V
        << ") disagrees with the sequential spec";
  };
  auto DoPop = [&](bool Left) {
    const PopResult<std::uint32_t> R = A::pop(*Obj, 0, Left);
    ASSERT_FALSE(R.isAbort()) << "solo pop aborted";
    Operation Op;
    Op.Tid = 0;
    Op.Code = Left ? OpCode::PopLeft : OpCode::PopRight;
    if (R.isValue()) {
      Op.Result = ResCode::Value;
      Op.RetValue = R.value();
    } else {
      Op.Result = ResCode::Empty;
    }
    Op.InvokeNs = Clock++;
    Op.ResponseNs = Clock++;
    ASSERT_TRUE(Spec.apply(Op))
        << (Left ? "popLeft" : "popRight")
        << " disagrees with the sequential spec";
  };

  // Exhaust both ends (positional Full), then drain past Empty.
  for (std::uint32_t V = 1; V <= SmallLeftSlots + 1; ++V)
    DoPush(/*Left=*/true, V);
  for (std::uint32_t V = 10; V <= 10 + (SmallCapacity - SmallLeftSlots); ++V)
    DoPush(/*Left=*/false, V);
  for (std::uint32_t I = 0; I <= SmallCapacity + 1; ++I)
    DoPop(/*Left=*/true);
  // Random solo mix over both ends.
  SplitMix64 Rng(0xDEC0DEull);
  for (std::uint32_t I = 0; I < 32; ++I) {
    const bool Left = Rng.chance(1, 2);
    if (Rng.chance(1, 2))
      DoPush(Left, randomValue(Rng));
    else
      DoPop(Left);
  }
}

//===----------------------------------------------------------------------===
// Cell: LincheckStress / Chaos / stall-plan round (one workhorse)
//===----------------------------------------------------------------------===

/// Metrics-as-oracle: once a crash-free stress round quiesces, an
/// object exposing a path snapshot must satisfy the conservation laws
/// (obs::PathSnapshot::conserves — every entered op retired through
/// exactly one path, pairings balance, degradations have causes), and
/// with metrics compiled in it must have seen every operation the round
/// issued (>= because a sharded facade op enters several skeletons).
/// Entries without metrics skip the check via the requires-gate; note
/// degradations are NOT asserted zero — the small-patience entries
/// legitimately degrade under stress.
template <typename ObjT>
void assertPathConservation(const ObjT &Obj, std::uint32_t Round,
                            std::uint64_t OpsIssued) {
  if constexpr (requires { Obj.pathSnapshot(); }) {
    const obs::PathSnapshot S = Obj.pathSnapshot();
    ASSERT_TRUE(S.conserves())
        << "round " << Round << ": path conservation violated (ops="
        << S.Ops << " pathTotal=" << S.pathTotal()
        << " elimPush=" << S.event(obs::Event::EliminatedPush)
        << " elimPop=" << S.event(obs::Event::EliminatedPop)
        << " degraded=" << S.path(obs::Path::Degraded)
        << " doorwayTO=" << S.event(obs::Event::DoorwayTimeout)
        << " leaseTO=" << S.event(obs::Event::LeaseTimeout) << ")";
    if constexpr (obs::MetricsEnabled) {
      ASSERT_GE(S.Ops, OpsIssued)
          << "round " << Round << ": sink missed operations";
    }
  } else {
    (void)Round;
    (void)OpsIssued;
  }
}

template <typename A> void stressRounds(AsyncMode Mode) {
  const std::uint32_t Rounds =
      Mode == AsyncMode::None ? StressRounds : ChaosRounds;
  for (std::uint32_t Round = 0; Round < Rounds; ++Round) {
    auto Obj = A::make(StressThreads, SmallCapacity);
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < StressThreads; ++T)
      Recorders.emplace_back(T);
    std::atomic<std::uint32_t> Aborts{0};
    SpinBarrier Barrier(StressThreads);
    FaultClock Clock;
    const FaultPlan Plan = asyncPlan(Mode, 0xC4A05ull * (Round + 1));

    std::vector<std::thread> Threads;
    for (std::uint32_t T = 0; T < StressThreads; ++T) {
      Threads.emplace_back([&, T] {
        FaultScope Faults(Plan, T, Clock);
        HistoryRecorder &Rec = Recorders[T];
        SplitMix64 Rng(0xBA77E59ull * (Round + 1) + T);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < StressOpsPerThread; ++I) {
          const bool IsPush = Rng.chance(1, 2);
          const std::uint32_t V = randomValue(Rng);
          const std::uint64_t T0 = HistoryRecorder::now();
          if (IsPush) {
            const PushResult R = A::push(*Obj, T, V);
            const std::uint64_t T1 = HistoryRecorder::now();
            if (R == PushResult::Abort)
              Aborts.fetch_add(1, std::memory_order_relaxed);
            else
              Rec.recordPush(V, R == PushResult::Full, T0, T1);
          } else {
            const PopResult<std::uint32_t> R = A::pop(*Obj, T);
            const std::uint64_t T1 = HistoryRecorder::now();
            if (R.isAbort())
              Aborts.fetch_add(1, std::memory_order_relaxed);
            else if (R.isValue())
              Rec.recordPopValue(R.value(), T0, T1);
            else
              Rec.recordPopEmpty(T0, T1);
          }
        }
      });
    }
    for (auto &Th : Threads)
      Th.join();

    if (A::Strong)
      ASSERT_EQ(Aborts.load(), 0u)
          << "strong object aborted in round " << Round;
    assertPathConservation(*Obj, Round,
                           std::uint64_t{StressThreads} * StressOpsPerThread);
    const History H = mergeHistories(Recorders);
    ASSERT_TRUE(H.wellFormed());
    const CheckResult Result = checkLinearizable(H, A::makeSpec());
    ASSERT_FALSE(Result.HitSearchCap);
    ASSERT_TRUE(Result.Linearizable)
        << "round " << Round << ": " << Result.FailureNote;
  }
}

template <typename A> void dequeStressRounds(AsyncMode Mode) {
  const std::uint32_t Rounds =
      Mode == AsyncMode::None ? StressRounds : ChaosRounds;
  for (std::uint32_t Round = 0; Round < Rounds; ++Round) {
    auto Obj = A::make(StressThreads);
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < StressThreads; ++T)
      Recorders.emplace_back(T);
    std::atomic<std::uint32_t> Aborts{0};
    SpinBarrier Barrier(StressThreads);
    FaultClock Clock;
    const FaultPlan Plan = asyncPlan(Mode, 0xCD0DEull * (Round + 1));

    std::vector<std::thread> Threads;
    for (std::uint32_t T = 0; T < StressThreads; ++T) {
      Threads.emplace_back([&, T] {
        FaultScope Faults(Plan, T, Clock);
        HistoryRecorder &Rec = Recorders[T];
        SplitMix64 Rng(0xD0DECull * (Round + 1) + T);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < StressOpsPerThread; ++I) {
          const bool IsPush = Rng.chance(1, 2);
          const bool Left = Rng.chance(1, 2);
          const std::uint32_t V = randomValue(Rng);
          const std::uint64_t T0 = HistoryRecorder::now();
          if (IsPush) {
            const PushResult R = A::push(*Obj, T, Left, V);
            const std::uint64_t T1 = HistoryRecorder::now();
            if (R == PushResult::Abort)
              Aborts.fetch_add(1, std::memory_order_relaxed);
            else
              Rec.recordOp(Left ? OpCode::PushLeft : OpCode::PushRight, V,
                           R == PushResult::Full ? ResCode::Full
                                                 : ResCode::Done,
                           0, T0, T1);
          } else {
            const PopResult<std::uint32_t> R = A::pop(*Obj, T, Left);
            const std::uint64_t T1 = HistoryRecorder::now();
            if (R.isAbort())
              Aborts.fetch_add(1, std::memory_order_relaxed);
            else if (R.isValue())
              Rec.recordOp(Left ? OpCode::PopLeft : OpCode::PopRight, 0,
                           ResCode::Value, R.value(), T0, T1);
            else
              Rec.recordOp(Left ? OpCode::PopLeft : OpCode::PopRight, 0,
                           ResCode::Empty, 0, T0, T1);
          }
        }
      });
    }
    for (auto &Th : Threads)
      Th.join();

    if (A::Strong)
      ASSERT_EQ(Aborts.load(), 0u)
          << "strong deque aborted in round " << Round;
    assertPathConservation(*Obj, Round,
                           std::uint64_t{StressThreads} * StressOpsPerThread);
    const History H = mergeHistories(Recorders);
    ASSERT_TRUE(H.wellFormed());
    const CheckResult Result = checkLinearizable(H, A::makeSpec());
    ASSERT_FALSE(Result.HitSearchCap);
    ASSERT_TRUE(Result.Linearizable)
        << "round " << Round << ": " << Result.FailureNote;
  }
}

//===----------------------------------------------------------------------===
// Cell: Explore (schedule-space search over tiny two-thread scenarios)
//===----------------------------------------------------------------------===

template <typename A>
void drainAndCheck(typename A::Object &Obj,
                   std::vector<HistoryRecorder> &Recs,
                   std::uint32_t Aborted) {
  for (std::uint32_t Guard = 0;; ++Guard) {
    ASSERT_LE(Guard, SmallCapacity + 1u) << "drain did not terminate";
    const std::uint64_t T0 = HistoryRecorder::now();
    const PopResult<std::uint32_t> R = A::pop(Obj, 0);
    const std::uint64_t T1 = HistoryRecorder::now();
    ASSERT_FALSE(R.isAbort()) << "solo drain aborted";
    if (!R.isValue()) {
      Recs[0].recordPopEmpty(T0, T1);
      break;
    }
    Recs[0].recordPopValue(R.value(), T0, T1);
  }
  if (A::Strong)
    ASSERT_EQ(Aborted, 0u);
  const History H = mergeHistories(Recs);
  ASSERT_TRUE(H.wellFormed());
  const CheckResult Result = checkLinearizable(H, A::makeSpec());
  ASSERT_FALSE(Result.HitSearchCap);
  ASSERT_TRUE(Result.Linearizable) << Result.FailureNote;
}

template <typename A> void exploreCell(bool Exhaustive) {
  const auto RunScenario = [&](const ScheduleExplorer::ScenarioFactory &F,
                               std::uint64_t Salt) {
    ScheduleExplorer Explorer;
    const ExploreResult R =
        Exhaustive ? Explorer.exploreAll(F)
                   : Explorer.randomWalks(F, RandomWalkRuns, 0x5EED5ull + Salt);
    EXPECT_GT(R.Runs, 0u);
    EXPECT_EQ(R.CappedRuns, 0u);
    if (Exhaustive)
      EXPECT_TRUE(R.Complete);
  };

  // Two concurrent pushes on an empty object, drained and checked solo.
  RunScenario(
      [] {
        std::shared_ptr<typename A::Object> Obj = A::make(2, SmallCapacity);
        auto Recs = std::make_shared<std::vector<HistoryRecorder>>();
        Recs->emplace_back(0);
        Recs->emplace_back(1);
        auto Aborted = std::make_shared<std::uint32_t>(0);
        ScenarioRun Run;
        for (std::uint32_t T = 0; T < 2; ++T)
          Run.Bodies.push_back([Obj, Recs, Aborted, T] {
            const std::uint32_t V = T + 1;
            const std::uint64_t T0 = HistoryRecorder::now();
            const PushResult R = A::push(*Obj, T, V);
            const std::uint64_t T1 = HistoryRecorder::now();
            if (R == PushResult::Abort)
              ++*Aborted;
            else
              (*Recs)[T].recordPush(V, R == PushResult::Full, T0, T1);
          });
        Run.PostCheck = [Obj, Recs, Aborted] {
          drainAndCheck<A>(*Obj, *Recs, *Aborted);
        };
        return Run;
      },
      1);

  // A push racing a pop on a one-element object.
  RunScenario(
      [] {
        std::shared_ptr<typename A::Object> Obj = A::make(2, SmallCapacity);
        auto Recs = std::make_shared<std::vector<HistoryRecorder>>();
        Recs->emplace_back(0);
        Recs->emplace_back(1);
        auto Aborted = std::make_shared<std::uint32_t>(0);
        {
          const std::uint64_t T0 = HistoryRecorder::now();
          const PushResult R = A::push(*Obj, 0, 9);
          const std::uint64_t T1 = HistoryRecorder::now();
          EXPECT_EQ(R, PushResult::Done);
          (*Recs)[0].recordPush(9, false, T0, T1);
        }
        ScenarioRun Run;
        Run.Bodies.push_back([Obj, Recs, Aborted] {
          const std::uint64_t T0 = HistoryRecorder::now();
          const PushResult R = A::push(*Obj, 0, 1);
          const std::uint64_t T1 = HistoryRecorder::now();
          if (R == PushResult::Abort)
            ++*Aborted;
          else
            (*Recs)[0].recordPush(1, R == PushResult::Full, T0, T1);
        });
        Run.Bodies.push_back([Obj, Recs, Aborted] {
          const std::uint64_t T0 = HistoryRecorder::now();
          const PopResult<std::uint32_t> R = A::pop(*Obj, 1);
          const std::uint64_t T1 = HistoryRecorder::now();
          if (R.isAbort())
            ++*Aborted;
          else if (R.isValue())
            (*Recs)[1].recordPopValue(R.value(), T0, T1);
          else
            (*Recs)[1].recordPopEmpty(T0, T1);
        });
        Run.PostCheck = [Obj, Recs, Aborted] {
          drainAndCheck<A>(*Obj, *Recs, *Aborted);
        };
        return Run;
      },
      2);
}

template <typename A>
void dequeDrainAndCheck(typename A::Object &Obj,
                        std::vector<HistoryRecorder> &Recs,
                        std::uint32_t Aborted) {
  for (std::uint32_t Guard = 0;; ++Guard) {
    ASSERT_LE(Guard, SmallCapacity + 1u) << "drain did not terminate";
    const std::uint64_t T0 = HistoryRecorder::now();
    const PopResult<std::uint32_t> R = A::pop(Obj, 0, /*Left=*/true);
    const std::uint64_t T1 = HistoryRecorder::now();
    ASSERT_FALSE(R.isAbort()) << "solo drain aborted";
    if (!R.isValue()) {
      Recs[0].recordOp(OpCode::PopLeft, 0, ResCode::Empty, 0, T0, T1);
      break;
    }
    Recs[0].recordOp(OpCode::PopLeft, 0, ResCode::Value, R.value(), T0, T1);
  }
  if (A::Strong)
    ASSERT_EQ(Aborted, 0u);
  const History H = mergeHistories(Recs);
  ASSERT_TRUE(H.wellFormed());
  const CheckResult Result = checkLinearizable(H, A::makeSpec());
  ASSERT_FALSE(Result.HitSearchCap);
  ASSERT_TRUE(Result.Linearizable) << Result.FailureNote;
}

template <typename A> void dequeExploreCell(bool Exhaustive) {
  const auto RunScenario = [&](const ScheduleExplorer::ScenarioFactory &F,
                               std::uint64_t Salt) {
    ScheduleExplorer Explorer;
    const ExploreResult R =
        Exhaustive ? Explorer.exploreAll(F)
                   : Explorer.randomWalks(F, RandomWalkRuns, 0xDEC5ull + Salt);
    EXPECT_GT(R.Runs, 0u);
    EXPECT_EQ(R.CappedRuns, 0u);
    if (Exhaustive)
      EXPECT_TRUE(R.Complete);
  };

  // pushLeft racing pushRight on an empty deque.
  RunScenario(
      [] {
        std::shared_ptr<typename A::Object> Obj = A::make(2);
        auto Recs = std::make_shared<std::vector<HistoryRecorder>>();
        Recs->emplace_back(0);
        Recs->emplace_back(1);
        auto Aborted = std::make_shared<std::uint32_t>(0);
        ScenarioRun Run;
        for (std::uint32_t T = 0; T < 2; ++T)
          Run.Bodies.push_back([Obj, Recs, Aborted, T] {
            const bool Left = T == 0;
            const std::uint32_t V = T + 1;
            const std::uint64_t T0 = HistoryRecorder::now();
            const PushResult R = A::push(*Obj, T, Left, V);
            const std::uint64_t T1 = HistoryRecorder::now();
            if (R == PushResult::Abort)
              ++*Aborted;
            else
              (*Recs)[T].recordOp(Left ? OpCode::PushLeft : OpCode::PushRight,
                                  V,
                                  R == PushResult::Full ? ResCode::Full
                                                        : ResCode::Done,
                                  0, T0, T1);
          });
        Run.PostCheck = [Obj, Recs, Aborted] {
          dequeDrainAndCheck<A>(*Obj, *Recs, *Aborted);
        };
        return Run;
      },
      1);

  // pushRight racing popRight on a one-element deque (same end).
  RunScenario(
      [] {
        std::shared_ptr<typename A::Object> Obj = A::make(2);
        auto Recs = std::make_shared<std::vector<HistoryRecorder>>();
        Recs->emplace_back(0);
        Recs->emplace_back(1);
        auto Aborted = std::make_shared<std::uint32_t>(0);
        {
          const std::uint64_t T0 = HistoryRecorder::now();
          const PushResult R = A::push(*Obj, 0, /*Left=*/false, 9);
          const std::uint64_t T1 = HistoryRecorder::now();
          EXPECT_EQ(R, PushResult::Done);
          (*Recs)[0].recordOp(OpCode::PushRight, 9, ResCode::Done, 0, T0, T1);
        }
        ScenarioRun Run;
        Run.Bodies.push_back([Obj, Recs, Aborted] {
          const std::uint64_t T0 = HistoryRecorder::now();
          const PushResult R = A::push(*Obj, 0, /*Left=*/false, 1);
          const std::uint64_t T1 = HistoryRecorder::now();
          if (R == PushResult::Abort)
            ++*Aborted;
          else
            (*Recs)[0].recordOp(OpCode::PushRight, 1,
                                R == PushResult::Full ? ResCode::Full
                                                      : ResCode::Done,
                                0, T0, T1);
        });
        Run.Bodies.push_back([Obj, Recs, Aborted] {
          const std::uint64_t T0 = HistoryRecorder::now();
          const PopResult<std::uint32_t> R = A::pop(*Obj, 1, /*Left=*/false);
          const std::uint64_t T1 = HistoryRecorder::now();
          if (R.isAbort())
            ++*Aborted;
          else if (R.isValue())
            (*Recs)[1].recordOp(OpCode::PopRight, 0, ResCode::Value, R.value(),
                                T0, T1);
          else
            (*Recs)[1].recordOp(OpCode::PopRight, 0, ResCode::Empty, 0, T0,
                                T1);
        });
        Run.PostCheck = [Obj, Recs, Aborted] {
          dequeDrainAndCheck<A>(*Obj, *Recs, *Aborted);
        };
        return Run;
      },
      2);
}

//===----------------------------------------------------------------------===
// Cell: CrashOrStall — mode-specific crash sweeps
//===----------------------------------------------------------------------===

/// Lock-free entries: crash a push (then a pop) at every shared-access
/// point; the survivor completes solo and the crashed operation is
/// all-or-nothing.
template <typename A> void crashSweepCell() {
  std::size_t PushAccesses = 0;
  {
    auto Probe = A::make(StressThreads, SmallCapacity);
    EXPECT_EQ(A::push(*Probe, 0, 1), PushResult::Done);
    PushAccesses =
        runAndCrashAt([&] { (void)A::push(*Probe, 0, 2); }, 100000);
  }
  ASSERT_GT(PushAccesses, 0u);
  for (std::uint32_t K = 0; K < PushAccesses; ++K) {
    auto Obj = A::make(StressThreads, SmallCapacity);
    ASSERT_EQ(A::push(*Obj, 0, 1), PushResult::Done);
    runAndCrashAt([&] { (void)A::push(*Obj, 0, 2); }, K);
    ASSERT_EQ(A::push(*Obj, 1, 3), PushResult::Done)
        << "survivor push blocked; crash point " << K;
    std::uint32_t Seen1 = 0, Seen2 = 0, Seen3 = 0, Total = 0;
    for (std::uint32_t Guard = 0; Guard <= SmallCapacity + 1; ++Guard) {
      const PopResult<std::uint32_t> R = A::pop(*Obj, 1);
      ASSERT_FALSE(R.isAbort()) << "survivor drain aborted; crash point " << K;
      if (!R.isValue())
        break;
      ++Total;
      if (R.value() == 1)
        ++Seen1;
      else if (R.value() == 2)
        ++Seen2;
      else if (R.value() == 3)
        ++Seen3;
    }
    EXPECT_EQ(Seen1, 1u) << "crash point " << K;
    EXPECT_EQ(Seen3, 1u) << "crash point " << K;
    EXPECT_LE(Seen2, 1u) << "crash point " << K;
    EXPECT_EQ(Total, 2u + Seen2)
        << "crashed push must be all-or-nothing; crash point " << K;
  }

  std::size_t PopAccesses = 0;
  {
    auto Probe = A::make(StressThreads, SmallCapacity);
    EXPECT_EQ(A::push(*Probe, 0, 1), PushResult::Done);
    EXPECT_EQ(A::push(*Probe, 0, 2), PushResult::Done);
    PopAccesses = runAndCrashAt([&] { (void)A::pop(*Probe, 0); }, 100000);
  }
  ASSERT_GT(PopAccesses, 0u);
  for (std::uint32_t K = 0; K < PopAccesses; ++K) {
    auto Obj = A::make(StressThreads, SmallCapacity);
    ASSERT_EQ(A::push(*Obj, 0, 1), PushResult::Done);
    ASSERT_EQ(A::push(*Obj, 0, 2), PushResult::Done);
    runAndCrashAt([&] { (void)A::pop(*Obj, 0); }, K);
    ASSERT_EQ(A::push(*Obj, 1, 3), PushResult::Done)
        << "survivor push blocked; crash point " << K;
    std::uint32_t Total = 0, Seen3 = 0;
    for (std::uint32_t Guard = 0; Guard <= SmallCapacity + 1; ++Guard) {
      const PopResult<std::uint32_t> R = A::pop(*Obj, 1);
      ASSERT_FALSE(R.isAbort()) << "survivor drain aborted; crash point " << K;
      if (!R.isValue())
        break;
      ++Total;
      if (R.value() == 3)
        ++Seen3;
    }
    EXPECT_EQ(Seen3, 1u) << "crash point " << K;
    EXPECT_TRUE(Total == 2u || Total == 3u)
        << "crashed pop must be all-or-nothing; crash point " << K
        << " drained " << Total;
  }
}

/// Crash-tolerant entries: generalizes the crash_test slow-path sweep to
/// any CrashTolerant* object — crash a forced-slow operation at every
/// access point; the survivor completes, degrading (degradation counter
/// nonzero) exactly when the corpse held the lease.
template <typename CT> void crashTolerantSweepCell() {
  std::size_t Accesses = 0;
  {
    auto Probe = CT::makeForSweep();
    Accesses = runAndCrashAt(
        [&] {
          (void)CT::skeleton(*Probe).strongApply(0, CT::forcedSlow(*Probe, 7));
        },
        100000);
  }
  ASSERT_GT(Accesses, 10u); // Sanity: the slow path is well past the fast 6.

  for (std::uint32_t K = 0; K < Accesses; ++K) {
    auto Obj = CT::makeForSweep();
    runAndCrashAt(
        [&] {
          (void)CT::skeleton(*Obj).strongApply(0, CT::forcedSlow(*Obj, 7));
        },
        K);
    auto &Skel = CT::skeleton(*Obj);
    auto &Lock = Skel.slowPath().lock();
    const bool CorpseHeldLock = Lock.inner().holderForTesting() == 1;

    const PushResult First = Skel.strongApply(1, CT::forcedSlow(*Obj, 99));
    ASSERT_EQ(First, PushResult::Done) << "crash point " << K;

    const DegradationStats Stats = Lock.statsForTesting();
    if (CorpseHeldLock) {
      EXPECT_EQ(Stats.Degradations, 1u) << "crash point " << K;
      EXPECT_EQ(Stats.Revocations, 1u) << "crash point " << K;
      EXPECT_TRUE(Lock.suspects().isSuspectForTesting(0))
          << "crash point " << K;
    } else {
      EXPECT_EQ(Stats.Degradations, 0u) << "crash point " << K;
      EXPECT_EQ(Stats.ProtectedOps, 1u) << "crash point " << K;
    }

    const PushResult Second = Skel.strongApply(1, CT::forcedSlow(*Obj, 100));
    ASSERT_EQ(Second, PushResult::Done) << "crash point " << K;
    EXPECT_GE(Lock.statsForTesting().ProtectedOps, 1u) << "crash point " << K;
    EXPECT_FALSE(Skel.contentionForTesting()) << "crash point " << K;
    EXPECT_EQ(Lock.inner().holderForTesting(), 0u) << "crash point " << K;
    EXPECT_GE(CT::drainCount(*Obj), 2u) << "crash point " << K;
  }
}

/// HLM deque (lock-free, positional): crash tryPushRight and tryPopLeft
/// at every access point; state stays all-or-nothing and solo survivors
/// never abort.
inline void ofDequeCrashSweep() {
  std::size_t PushAccesses = 0;
  {
    ObstructionFreeDeque Probe(SmallCapacity, SmallLeftSlots);
    PushAccesses =
        runAndCrashAt([&] { (void)Probe.tryPushRight(7); }, 100000);
  }
  ASSERT_GT(PushAccesses, 2u);
  for (std::uint32_t K = 0; K < PushAccesses; ++K) {
    ObstructionFreeDeque Deque(SmallCapacity, SmallLeftSlots);
    runAndCrashAt([&] { (void)Deque.tryPushRight(7); }, K);
    ASSERT_LE(Deque.sizeForTesting(), 1u) << "crash point " << K;
    ASSERT_EQ(Deque.tryPushLeft(5), PushResult::Done) << "crash point " << K;
    ASSERT_EQ(Deque.tryPushRight(6), PushResult::Done) << "crash point " << K;
    const auto Right = Deque.tryPopRight();
    ASSERT_TRUE(Right.isValue()) << "crash point " << K;
    ASSERT_EQ(Right.value(), 6u) << "crash point " << K;
    const auto Left = Deque.tryPopLeft();
    ASSERT_TRUE(Left.isValue()) << "crash point " << K;
    ASSERT_EQ(Left.value(), 5u) << "crash point " << K;
  }

  std::size_t PopAccesses = 0;
  {
    ObstructionFreeDeque Probe(SmallCapacity, SmallLeftSlots);
    ASSERT_EQ(Probe.tryPushLeft(3), PushResult::Done);
    PopAccesses = runAndCrashAt([&] { (void)Probe.tryPopLeft(); }, 100000);
  }
  ASSERT_GT(PopAccesses, 2u);
  for (std::uint32_t K = 0; K < PopAccesses; ++K) {
    ObstructionFreeDeque Deque(SmallCapacity, SmallLeftSlots);
    ASSERT_EQ(Deque.tryPushLeft(3), PushResult::Done);
    runAndCrashAt([&] { (void)Deque.tryPopLeft(); }, K);
    const std::uint32_t Size = Deque.sizeForTesting();
    ASSERT_LE(Size, 1u) << "crash point " << K;
    const auto R = Deque.tryPopLeft();
    if (Size == 1) {
      ASSERT_TRUE(R.isValue()) << "crash point " << K;
      ASSERT_EQ(R.value(), 3u) << "crash point " << K;
    } else {
      ASSERT_FALSE(R.isValue()) << "crash point " << K;
    }
    ASSERT_TRUE(Deque.tryPopLeft().isEmpty()) << "crash point " << K;
  }
}

/// Leasable StarvationFreeLock: non-RAII crash sweep at the lock level
/// (RAII-locked objects cannot be crash-swept — the unwind would release
/// the lock). Victim takes the lock, writes a register, unlocks; crash
/// at every access point. A survivor's unbounded lock() must terminate,
/// revoking the corpse's lease exactly when it held one, and the lock is
/// healed for a third process afterwards.
inline void leasableLockCrashSweep() {
  using LockT = StarvationFreeLock<LeasableTag<16>>;
  std::size_t Accesses = 0;
  {
    LockT Probe(3);
    AtomicRegister<std::uint32_t> Reg;
    Accesses = runAndCrashAt(
        [&] {
          Probe.lock(0);
          Reg.write(1);
          Probe.unlock(0);
        },
        100000);
  }
  ASSERT_GT(Accesses, 3u);

  for (std::uint32_t K = 0; K < Accesses; ++K) {
    LockT Lock(3);
    AtomicRegister<std::uint32_t> Reg;
    runAndCrashAt(
        [&] {
          Lock.lock(0);
          Reg.write(1);
          Lock.unlock(0);
        },
        K);
    const bool CorpseHeldLock = Lock.inner().holderForTesting() == 1;

    // Survivor: the unbounded lock() terminates whatever the corpse left
    // behind (raised flag, parked turn, held lease).
    Lock.lock(1);
    Reg.write(2);
    Lock.unlock(1);
    if (CorpseHeldLock) {
      EXPECT_GE(Lock.inner().revocations(), 1u) << "crash point " << K;
      EXPECT_TRUE(Lock.suspects().isSuspectForTesting(0))
          << "crash point " << K;
    }

    // Healed: a third process acquires cleanly and the lock ends free.
    Lock.lock(2);
    Lock.unlock(2);
    EXPECT_EQ(Lock.inner().holderForTesting(), 0u) << "crash point " << K;
    EXPECT_EQ(Reg.peekForTesting(), 2u) << "crash point " << K;
  }
}

//===----------------------------------------------------------------------===
// Cell: AccessBound (solo shared-access counts)
//===----------------------------------------------------------------------===

struct AccessBounds {
  std::uint32_t Push = 0;
  std::uint32_t Pop = 0;
  bool Exact = false;
};

template <typename A> void accessBoundCell(AccessBounds B) {
  auto Obj = A::make(StressThreads, SmallCapacity);
  const AccessCounts PushCounts =
      countAccesses([&] { (void)A::push(*Obj, 0, 7); });
  const AccessCounts PopCounts = countAccesses([&] { (void)A::pop(*Obj, 0); });
  EXPECT_GT(PushCounts.total(), 0u);
  if (B.Exact) {
    EXPECT_EQ(PushCounts.total(), B.Push);
    EXPECT_EQ(PopCounts.total(), B.Pop);
  } else {
    EXPECT_LE(PushCounts.total(), B.Push);
    EXPECT_LE(PopCounts.total(), B.Pop);
  }
}

template <typename A> void dequeAccessBoundCell(AccessBounds B) {
  auto Obj = A::make(StressThreads);
  const AccessCounts PushCounts =
      countAccesses([&] { (void)A::push(*Obj, 0, /*Left=*/false, 7); });
  const AccessCounts PopCounts =
      countAccesses([&] { (void)A::pop(*Obj, 0, /*Left=*/false); });
  EXPECT_GT(PushCounts.total(), 0u);
  if (B.Exact) {
    EXPECT_EQ(PushCounts.total(), B.Push);
    EXPECT_EQ(PopCounts.total(), B.Pop);
  } else {
    EXPECT_LE(PushCounts.total(), B.Push);
    EXPECT_LE(PopCounts.total(), B.Pop);
  }
}

//===----------------------------------------------------------------------===
// Counter cells (custom: returns are prefix sums, not push/pop codes)
//===----------------------------------------------------------------------===

inline void counterSpecReplayCell() {
  ContentionSensitiveCounter<> C(1);
  std::uint64_t Expect = 0;
  for (std::uint32_t I = 1; I <= 10; ++I) {
    Expect += I;
    EXPECT_EQ(C.add(0, I), Expect);
  }
  EXPECT_EQ(C.valueForTesting(), Expect);
}

/// Unit adds from every thread: linearizability of a counter whose add
/// returns the new value means the returns are exactly {1..total}.
inline void counterStressRounds(AsyncMode Mode) {
  const std::uint32_t Rounds =
      Mode == AsyncMode::None ? StressRounds : ChaosRounds;
  for (std::uint32_t Round = 0; Round < Rounds; ++Round) {
    ContentionSensitiveCounter<> C(StressThreads);
    std::vector<std::vector<std::uint64_t>> Returns(StressThreads);
    SpinBarrier Barrier(StressThreads);
    FaultClock Clock;
    const FaultPlan Plan = asyncPlan(Mode, 0xC07EFull * (Round + 1));

    std::vector<std::thread> Threads;
    for (std::uint32_t T = 0; T < StressThreads; ++T) {
      Threads.emplace_back([&, T] {
        FaultScope Faults(Plan, T, Clock);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < StressOpsPerThread; ++I)
          Returns[T].push_back(C.add(T, 1));
      });
    }
    for (auto &Th : Threads)
      Th.join();

    std::vector<std::uint64_t> All;
    for (const auto &Per : Returns)
      All.insert(All.end(), Per.begin(), Per.end());
    std::sort(All.begin(), All.end());
    ASSERT_EQ(All.size(),
              static_cast<std::size_t>(StressThreads) * StressOpsPerThread);
    for (std::size_t I = 0; I < All.size(); ++I)
      ASSERT_EQ(All[I], I + 1) << "round " << Round;
    EXPECT_EQ(C.valueForTesting(), All.size());
  }
}

inline void counterExploreCell() {
  const auto Factory = [] {
    auto Obj = std::make_shared<ContentionSensitiveCounter<>>(2);
    auto Returns = std::make_shared<std::vector<std::uint64_t>>();
    ScenarioRun Run;
    for (std::uint32_t T = 0; T < 2; ++T)
      Run.Bodies.push_back([Obj, Returns, T] {
        // The scheduler serializes bodies between accesses, so the
        // shared vector needs no extra synchronization.
        for (std::uint32_t I = 0; I < 2; ++I)
          Returns->push_back(Obj->add(T, 1));
      });
    Run.PostCheck = [Obj, Returns] {
      std::vector<std::uint64_t> Sorted = *Returns;
      std::sort(Sorted.begin(), Sorted.end());
      ASSERT_EQ(Sorted.size(), 4u);
      for (std::size_t I = 0; I < Sorted.size(); ++I)
        ASSERT_EQ(Sorted[I], I + 1);
      ASSERT_EQ(Obj->valueForTesting(), 4u);
    };
    return Run;
  };
  ScheduleExplorer Explorer;
  const ExploreResult R =
      Explorer.randomWalks(Factory, RandomWalkRuns, 0xC07E5ull);
  EXPECT_GT(R.Runs, 0u);
  EXPECT_EQ(R.CappedRuns, 0u);
}

inline void counterAccessBoundCell() {
  ContentionSensitiveCounter<> C(StressThreads);
  // Paper Theorem: a solo add costs 1 CONTENTION read + the 2-access
  // weak add — 3 shared accesses, exactly.
  EXPECT_EQ(countAccesses([&] { (void)C.add(0, 1); }).total(), 3u);
}

//===----------------------------------------------------------------------===
// Ordered-map cells (custom: keyed get/insert/erase over OrderedMapSpec)
//===----------------------------------------------------------------------===
// Adapter contract: using Object; static constexpr bool Strong;
// make(Threads, Capacity); get/insert/erase(Object&, Tid, Key[, Value]).
// Concurrent cells run over MapStressKeys keys against MapCapacity so the
// racy capacity edge stays unreachable (Params.h); the sequential replay
// cell crosses the Full and erase-frees-capacity edges at SmallCapacity.

struct CsMapAdapter {
  using Object = ContentionSensitiveMap<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity, MapRegions);
  }
  static PopResult<std::uint32_t> get(Object &O, std::uint32_t Tid,
                                      std::uint32_t K) {
    return O.get(Tid, K);
  }
  static PushResult insert(Object &O, std::uint32_t Tid, std::uint32_t K,
                           std::uint32_t V) {
    return O.insert(Tid, K, V);
  }
  static PopResult<std::uint32_t> erase(Object &O, std::uint32_t Tid,
                                        std::uint32_t K) {
    return O.erase(Tid, K);
  }
};

struct LockedMapAdapter {
  using Object = LockedMap<>;
  static constexpr bool Strong = true;
  static std::unique_ptr<Object> make(std::uint32_t Threads,
                                      std::uint32_t Capacity) {
    return std::make_unique<Object>(Threads, Capacity);
  }
  static PopResult<std::uint32_t> get(Object &O, std::uint32_t Tid,
                                      std::uint32_t K) {
    return O.get(Tid, K);
  }
  static PushResult insert(Object &O, std::uint32_t Tid, std::uint32_t K,
                           std::uint32_t V) {
    return O.insert(Tid, K, V);
  }
  static PopResult<std::uint32_t> erase(Object &O, std::uint32_t Tid,
                                        std::uint32_t K) {
    return O.erase(Tid, K);
  }
};

/// Records one completed map operation (map ops never abort through the
/// strong interface; weak aborts are absorbed by the Fig-3 skeleton).
inline void recordMapInsert(HistoryRecorder &Rec, std::uint32_t K,
                            std::uint32_t V, PushResult R, std::uint64_t T0,
                            std::uint64_t T1) {
  Rec.recordOp(OpCode::Insert, K,
               R == PushResult::Full ? ResCode::Full : ResCode::Done, V, T0,
               T1);
}

inline void recordMapValueOp(HistoryRecorder &Rec, OpCode Code,
                             std::uint32_t K,
                             const PopResult<std::uint32_t> &R,
                             std::uint64_t T0, std::uint64_t T1) {
  Rec.recordOp(Code, K, R.isValue() ? ResCode::Value : ResCode::Empty,
               R.isValue() ? R.value() : 0, T0, T1);
}

/// Solo replay crossing every sequential edge of the ordered-map spec:
/// miss, fresh insert, update, erase, reinsert-after-erase, the
/// live-key Full boundary, update-at-capacity, and the erase-frees-
/// exactly-one-slot rule — every answer validated against
/// OrderedMapSpec.
template <typename A> void mapSpecReplayCell() {
  auto Obj = A::make(1, SmallCapacity);
  OrderedMapSpec Spec(SmallCapacity);

  const auto Insert = [&](std::uint32_t K, std::uint32_t V,
                          PushResult Want) {
    const PushResult R = A::insert(*Obj, 0, K, V);
    EXPECT_EQ(R, Want) << "insert(" << K << ", " << V << ")";
    ASSERT_NE(R, PushResult::Abort);
    Operation Op;
    Op.Code = OpCode::Insert;
    Op.Arg = K;
    Op.RetValue = V;
    Op.Result = R == PushResult::Full ? ResCode::Full : ResCode::Done;
    ASSERT_TRUE(Spec.apply(Op)) << "spec rejected insert(" << K << ")";
  };
  const auto ValueOp = [&](OpCode Code, std::uint32_t K,
                           std::optional<std::uint32_t> Want) {
    const PopResult<std::uint32_t> R = Code == OpCode::Get
                                           ? A::get(*Obj, 0, K)
                                           : A::erase(*Obj, 0, K);
    ASSERT_FALSE(R.isAbort());
    if (Want.has_value()) {
      ASSERT_TRUE(R.isValue()) << "op(" << K << ") found nothing";
      EXPECT_EQ(R.value(), *Want);
    } else {
      EXPECT_TRUE(R.isEmpty()) << "op(" << K << ") found " << R.value();
    }
    Operation Op;
    Op.Code = Code;
    Op.Arg = K;
    Op.Result = R.isValue() ? ResCode::Value : ResCode::Empty;
    Op.RetValue = R.isValue() ? R.value() : 0;
    ASSERT_TRUE(Spec.apply(Op)) << "spec rejected keyed op on " << K;
  };

  ValueOp(OpCode::Get, 5, std::nullopt);   // miss on empty
  ValueOp(OpCode::Erase, 5, std::nullopt); // erase miss
  Insert(1, 11, PushResult::Done);         // fresh
  Insert(2, 22, PushResult::Done);
  Insert(1, 12, PushResult::Done);         // update
  ValueOp(OpCode::Get, 1, 12);
  ValueOp(OpCode::Erase, 1, 12);           // physical removal
  ValueOp(OpCode::Get, 1, std::nullopt);
  Insert(1, 13, PushResult::Done);         // reinsert after erase
  ValueOp(OpCode::Get, 1, 13);
  Insert(3, 33, PushResult::Done);
  Insert(4, 44, PushResult::Done);         // Live = {1,2,3,4} == capacity
  Insert(5, 55, PushResult::Full);         // fresh key at the boundary
  Insert(2, 23, PushResult::Done);         // update at capacity
  ValueOp(OpCode::Erase, 2, 23);           // frees exactly one slot
  Insert(5, 55, PushResult::Done);         // erase freed capacity
  Insert(2, 24, PushResult::Full);         // full again; 2 is gone now
  ValueOp(OpCode::Get, 2, std::nullopt);
  ValueOp(OpCode::Get, 5, 55);
  if constexpr (requires { Obj->sizeForTesting(); })
    EXPECT_EQ(Obj->sizeForTesting(), 4u);
  assertPathConservation(*Obj, 0, 19);
}

/// Randomized keyed rounds (the stress workhorse shape over
/// get/insert/erase), each round checked for linearizability against
/// OrderedMapSpec and for path conservation.
template <typename A> void mapStressRounds(AsyncMode Mode) {
  const std::uint32_t Rounds =
      Mode == AsyncMode::None ? StressRounds : ChaosRounds;
  for (std::uint32_t Round = 0; Round < Rounds; ++Round) {
    auto Obj = A::make(StressThreads, MapCapacity);
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < StressThreads; ++T)
      Recorders.emplace_back(T);
    SpinBarrier Barrier(StressThreads);
    FaultClock Clock;
    const FaultPlan Plan = asyncPlan(Mode, 0x9AB5Eull * (Round + 1));

    std::vector<std::thread> Threads;
    for (std::uint32_t T = 0; T < StressThreads; ++T) {
      Threads.emplace_back([&, T] {
        FaultScope Faults(Plan, T, Clock);
        SplitMix64 Rng(0x3A9D0ull * (Round + 1) + T);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < StressOpsPerThread; ++I) {
          const std::uint32_t K =
              static_cast<std::uint32_t>(Rng.below(MapStressKeys));
          const std::uint64_t Kind = Rng.below(4);
          const std::uint64_t T0 = HistoryRecorder::now();
          if (Kind < 2) {
            const PopResult<std::uint32_t> R = A::get(*Obj, T, K);
            recordMapValueOp(Recorders[T], OpCode::Get, K, R, T0,
                             HistoryRecorder::now());
          } else if (Kind == 2) {
            const std::uint32_t V = randomValue(Rng);
            const PushResult R = A::insert(*Obj, T, K, V);
            recordMapInsert(Recorders[T], K, V, R, T0,
                            HistoryRecorder::now());
          } else {
            const PopResult<std::uint32_t> R = A::erase(*Obj, T, K);
            recordMapValueOp(Recorders[T], OpCode::Erase, K, R, T0,
                             HistoryRecorder::now());
          }
        }
      });
    }
    for (auto &Th : Threads)
      Th.join();

    if constexpr (requires { Obj->core().checkLanesForTesting(); }) {
      ASSERT_EQ(Obj->core().checkLanesForTesting(), "") << "round " << Round;
    }
    assertPathConservation(
        *Obj, Round,
        static_cast<std::uint64_t>(StressThreads) * StressOpsPerThread);
    if (::testing::Test::HasFatalFailure())
      return;
    History H = mergeHistories(Recorders);
    ASSERT_TRUE(H.wellFormed());
    OrderedMapSpec Spec(MapCapacity);
    const CheckResult R = checkLinearizable(H, Spec);
    ASSERT_FALSE(R.HitSearchCap) << "round " << Round;
    ASSERT_TRUE(R.Linearizable)
        << "round " << Round << ": " << R.FailureNote << "\n"
        << H.describe();
  }
}

/// Schedule-space random walks over the two conflict shapes that matter:
/// two writers in the same key region (doorway serialization) and an
/// insert racing an erase of the same key (ValState CAS interference),
/// with a concurrent reader in both. Every walk's history must
/// linearize.
template <typename A> void mapExploreCell() {
  // Keys 0 and MapRegions share region 0 under `key % MapRegions`.
  const auto Scenario = [](std::uint32_t KeyA, std::uint32_t KeyB,
                           bool EraseRace) {
    return [KeyA, KeyB, EraseRace] {
      auto Obj = std::shared_ptr<typename A::Object>(
          A::make(3, MapCapacity).release());
      auto Recs = std::make_shared<std::vector<HistoryRecorder>>();
      for (std::uint32_t T = 0; T < 3; ++T)
        Recs->emplace_back(T);
      ScenarioRun Run;
      Run.Bodies.push_back([Obj, Recs, KeyA] {
        const std::uint64_t T0 = HistoryRecorder::now();
        const PushResult R = A::insert(*Obj, 0, KeyA, 11);
        recordMapInsert((*Recs)[0], KeyA, 11, R, T0,
                        HistoryRecorder::now());
      });
      Run.Bodies.push_back([Obj, Recs, KeyA, KeyB, EraseRace] {
        const std::uint64_t T0 = HistoryRecorder::now();
        if (EraseRace) {
          const PopResult<std::uint32_t> R = A::erase(*Obj, 1, KeyA);
          recordMapValueOp((*Recs)[1], OpCode::Erase, KeyA, R, T0,
                           HistoryRecorder::now());
        } else {
          const PushResult R = A::insert(*Obj, 1, KeyB, 22);
          recordMapInsert((*Recs)[1], KeyB, 22, R, T0,
                          HistoryRecorder::now());
        }
      });
      Run.Bodies.push_back([Obj, Recs, KeyA] {
        const std::uint64_t T0 = HistoryRecorder::now();
        const PopResult<std::uint32_t> R = A::get(*Obj, 2, KeyA);
        recordMapValueOp((*Recs)[2], OpCode::Get, KeyA, R, T0,
                         HistoryRecorder::now());
      });
      Run.PostCheck = [Obj, Recs] {
        History H = mergeHistories(*Recs);
        ASSERT_TRUE(H.wellFormed());
        OrderedMapSpec Spec(MapCapacity);
        const CheckResult R = checkLinearizable(H, Spec);
        ASSERT_FALSE(R.HitSearchCap);
        ASSERT_TRUE(R.Linearizable) << R.FailureNote << "\n"
                                    << H.describe();
        assertPathConservation(*Obj, 0, 3);
      };
      return Run;
    };
  };
  ScheduleExplorer Explorer;
  const ExploreResult Writers = Explorer.randomWalks(
      Scenario(0, MapRegions, /*EraseRace=*/false), RandomWalkRuns,
      0x3A9E1ull);
  EXPECT_GT(Writers.Runs, 0u);
  EXPECT_EQ(Writers.CappedRuns, 0u);
  const ExploreResult Race = Explorer.randomWalks(
      Scenario(0, MapRegions, /*EraseRace=*/true), RandomWalkRuns,
      0x3A9E2ull);
  EXPECT_GT(Race.Runs, 0u);
  EXPECT_EQ(Race.CappedRuns, 0u);
}

/// Solo access bounds for the four op shapes. Exact for the cs-map: the
/// search reads MaxLevel links top-down (one per level on a tiny map),
/// so with a height-1 key
///   get            = 8 search + 1 ValState read               =  9
///   insert (fresh) = 1 CONTENTION + 8 search + 1 admission
///                    read + 1 link C&S (allocation and init of
///                    unreachable storage are uncounted)         = 11
///   insert (update)= 1 CONTENTION + 8 search + 1 read + 1 C&S = 11
///   erase          = 1 CONTENTION + 8 search + 1 read + 1 C&S = 11
///                    (physical removal is uncounted reclamation)
/// — the map's constant-solo-cost analogue of the stack's 6.
struct MapAccessBounds {
  std::uint64_t Get = 0;
  std::uint64_t InsertFresh = 0;
  std::uint64_t Update = 0;
  std::uint64_t Erase = 0;
  bool Exact = false;
};

template <typename A> void mapAccessBoundCell(MapAccessBounds B) {
  auto Obj = A::make(StressThreads, MapCapacity);
  // A deterministic height-1 key keeps the fresh-insert count minimal.
  std::uint32_t K = 0;
  while (SkipListCore<>::heightOf(K) != 1)
    ++K;
  const std::uint64_t Fresh =
      countAccesses([&] { (void)A::insert(*Obj, 0, K, 7); }).total();
  const std::uint64_t Get =
      countAccesses([&] { (void)A::get(*Obj, 0, K); }).total();
  const std::uint64_t Update =
      countAccesses([&] { (void)A::insert(*Obj, 0, K, 8); }).total();
  const std::uint64_t Erase =
      countAccesses([&] { (void)A::erase(*Obj, 0, K); }).total();
  if (B.Exact) {
    EXPECT_EQ(Fresh, B.InsertFresh);
    EXPECT_EQ(Get, B.Get);
    EXPECT_EQ(Update, B.Update);
    EXPECT_EQ(Erase, B.Erase);
  } else {
    EXPECT_LE(Fresh, B.InsertFresh);
    EXPECT_LE(Get, B.Get);
    EXPECT_LE(Update, B.Update);
    EXPECT_LE(Erase, B.Erase);
  }
}

/// Crash sweep over the cs-map's *shortcut* shapes (fresh insert,
/// update, erase). A solo update never aborts, so it never reaches the
/// region's doorway+lock — every crash point below lands in lock-free
/// code and the survivor must find the key all-or-nothing and retain
/// full use of the key's region. (A crash *inside* the region lock is
/// the documented stall-only class — map_test pins that boundary with a
/// directed schedule; conservation is not asserted here because a
/// killed op books its entry but no terminal path.)
inline void mapCrashSweep() {
  using Map = ContentionSensitiveMap<>;
  constexpr std::uint32_t K = 0;
  constexpr std::uint32_t K2 = K + MapRegions; // same region as K

  const auto SurvivorOwnsRegion = [&](Map &M) {
    ASSERT_EQ(M.insert(1, K2, 99u), PushResult::Done);
    const PopResult<std::uint32_t> G = M.get(1, K2);
    ASSERT_TRUE(G.isValue());
    EXPECT_EQ(G.value(), 99u);
    ASSERT_TRUE(M.erase(1, K2).isValue());
  };

  // Fresh-insert sweep: get(K) afterwards sees the value or nothing.
  const std::size_t FreshAccesses = runAndCrashAt(
      [] {
        Map M(2, MapCapacity, MapRegions);
        (void)M.insert(0, K, 7);
      },
      100000);
  ASSERT_GT(FreshAccesses, 0u);
  for (std::size_t C = 0; C < FreshAccesses; ++C) {
    Map M(2, MapCapacity, MapRegions);
    runAndCrashAt([&M] { (void)M.insert(0, K, 7); },
                  static_cast<std::uint32_t>(C));
    const PopResult<std::uint32_t> G = M.get(1, K);
    if (G.isValue())
      EXPECT_EQ(G.value(), 7u) << "crash at " << C << " tore the insert";
    ASSERT_EQ(M.insert(1, K, 8), PushResult::Done) << "crash at " << C;
    ASSERT_TRUE(M.get(1, K).isValue());
    SurvivorOwnsRegion(M);
    if (::testing::Test::HasFatalFailure())
      return;
  }

  // Update sweep: the old or the new value, never a mix.
  const std::size_t UpdateAccesses = runAndCrashAt(
      [] {
        Map M(2, MapCapacity, MapRegions);
        (void)M.insert(1, K, 7);
        (void)M.insert(0, K, 9);
      },
      100000);
  const std::size_t PrefillAccesses = runAndCrashAt(
      [] {
        Map M(2, MapCapacity, MapRegions);
        (void)M.insert(1, K, 7);
      },
      100000);
  for (std::size_t C = PrefillAccesses; C < UpdateAccesses; ++C) {
    Map M(2, MapCapacity, MapRegions);
    ASSERT_EQ(M.insert(1, K, 7), PushResult::Done);
    runAndCrashAt([&M] { (void)M.insert(0, K, 9); },
                  static_cast<std::uint32_t>(C));
    const PopResult<std::uint32_t> G = M.get(1, K);
    ASSERT_TRUE(G.isValue()) << "crash at " << C << " lost the key";
    EXPECT_TRUE(G.value() == 7u || G.value() == 9u)
        << "crash at " << C << " tore the update: " << G.value();
    SurvivorOwnsRegion(M);
    if (::testing::Test::HasFatalFailure())
      return;
  }

  // Erase sweep: the value or a tombstone; a revive still works.
  for (std::size_t C = PrefillAccesses; C < UpdateAccesses; ++C) {
    Map M(2, MapCapacity, MapRegions);
    ASSERT_EQ(M.insert(1, K, 7), PushResult::Done);
    runAndCrashAt([&M] { (void)M.erase(0, K); },
                  static_cast<std::uint32_t>(C));
    const PopResult<std::uint32_t> G = M.get(1, K);
    if (G.isValue())
      EXPECT_EQ(G.value(), 7u) << "crash at " << C << " tore the erase";
    ASSERT_EQ(M.insert(1, K, 8), PushResult::Done);
    const PopResult<std::uint32_t> After = M.get(1, K);
    ASSERT_TRUE(After.isValue());
    EXPECT_EQ(After.value(), 8u);
    SurvivorOwnsRegion(M);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

//===----------------------------------------------------------------------===
// Spec point: an eliminated pair linearizes back-to-back, off TOP
//===----------------------------------------------------------------------===

/// The acceleration layer's headline claim, pinned by a directed
/// schedule: when a push and a pop meet in the elimination array, the
/// pair linearizes as push immediately followed by pop at the matcher's
/// gate read, the pop returns exactly the pushed value, and TOP is never
/// touched (its <index, value, seqnb> triple is bit-identical before and
/// after). The rescue's force-first knob routes both operations through the
/// rendezvous first so the slot accesses are the leading accesses and
/// the schedule below is exact: the popper gets two accesses (slot read,
/// park C&S), then the pusher runs to completion (slot read sees the
/// parked taker, gate read of TOP, match C&S), then the popper drains.
inline void eliminationPairSpecPoint() {
  using Stack = EliminatingContentionSensitiveStack<>;
  {
    Stack S(2, SmallCapacity, /*SlotCount=*/1, /*SpinBudget=*/8);
    ASSERT_EQ(S.push(0, 3), PushResult::Done); // seed: TOP = <1, 3, _>
    S.rescue().forceFirstForTesting(true);
    const auto Before = S.abortable().topForTesting();

    std::optional<PushResult> PushRes;
    std::optional<PopResult<std::uint32_t>> PopRes;
    std::uint32_t PopGrants = 0;
    InterleaveScheduler Scheduler(2);
    Scheduler.run(
        {[&] { PushRes = S.push(0, 7); }, [&] { PopRes = S.pop(1); }},
        [&](std::size_t, const std::vector<std::uint32_t> &Parked)
            -> std::uint32_t {
          const bool HasPush =
              std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
          const bool HasPop =
              std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
          if (PopGrants < 2 && HasPop) {
            ++PopGrants;
            return 1;
          }
          if (HasPush)
            return 0;
          return Parked.front();
        });

    ASSERT_TRUE(PushRes.has_value());
    EXPECT_EQ(*PushRes, PushResult::Done);
    ASSERT_TRUE(PopRes.has_value());
    ASSERT_TRUE(PopRes->isValue());
    EXPECT_EQ(PopRes->value(), 7u) << "pop must return the eliminated value";
    // Both operations finished via the rendezvous (the counter counts
    // operations, so a matched pair contributes two).
    EXPECT_EQ(S.rescue().array().exchangesForTesting(), 2u);
    const auto After = S.abortable().topForTesting();
    EXPECT_EQ(After.Index, Before.Index) << "eliminated pair touched TOP";
    EXPECT_EQ(After.Value, Before.Value) << "eliminated pair touched TOP";
    EXPECT_EQ(After.Seq, Before.Seq) << "eliminated pair touched TOP";
    EXPECT_EQ(S.sizeForTesting(), 1u);
  }

  // The same rendezvous under unconstrained random walks: every walk
  // stays linearizable and a healthy fraction eliminates.
  std::uint64_t TotalExchanges = 0;
  const auto Factory = [&TotalExchanges] {
    auto Obj = std::make_shared<Stack>(2, SmallCapacity, /*SlotCount=*/1,
                                       /*SpinBudget=*/8);
    Obj->rescue().forceFirstForTesting(true);
    auto Recs = std::make_shared<std::vector<HistoryRecorder>>();
    Recs->emplace_back(0);
    Recs->emplace_back(1);
    auto Aborted = std::make_shared<std::uint32_t>(0);
    ScenarioRun Run;
    Run.Bodies.push_back([Obj, Recs, Aborted] {
      const std::uint64_t T0 = HistoryRecorder::now();
      const PushResult R = Obj->push(0, 7);
      const std::uint64_t T1 = HistoryRecorder::now();
      if (R == PushResult::Abort)
        ++*Aborted;
      else
        (*Recs)[0].recordPush(7, R == PushResult::Full, T0, T1);
    });
    Run.Bodies.push_back([Obj, Recs, Aborted] {
      const std::uint64_t T0 = HistoryRecorder::now();
      const PopResult<std::uint32_t> R = Obj->pop(1);
      const std::uint64_t T1 = HistoryRecorder::now();
      if (R.isAbort())
        ++*Aborted;
      else if (R.isValue())
        (*Recs)[1].recordPopValue(R.value(), T0, T1);
      else
        (*Recs)[1].recordPopEmpty(T0, T1);
    });
    Run.PostCheck = [Obj, Recs, Aborted, &TotalExchanges] {
      TotalExchanges += Obj->rescue().array().exchangesForTesting();
      drainAndCheck<EliminatingCsStackAdapter>(*Obj, *Recs, *Aborted);
    };
    return Run;
  };
  ScheduleExplorer Explorer;
  const ExploreResult R =
      Explorer.randomWalks(Factory, RandomWalkRuns, 0xE71Aull);
  EXPECT_GT(R.Runs, 0u);
  EXPECT_EQ(R.CappedRuns, 0u);
  EXPECT_GT(TotalExchanges, 0u)
      << "no random walk ever eliminated a pair";
}

//===----------------------------------------------------------------------===
// Registry
//===----------------------------------------------------------------------===

/// One object's row in the battery matrix: a display name, the src/core
/// headers it certifies (the registry-exhaustiveness test requires every
/// core header to appear in some entry), and the six cells.
struct BatteryEntry {
  std::string Name;
  std::vector<std::string> CoveredHeaders;
  std::function<void()> SpecReplay;
  std::function<void()> LincheckStress;
  std::function<void()> Explore;
  std::function<void()> Chaos;
  std::function<void()> CrashOrStall;
  std::function<void()> AccessBound;
};

template <typename A>
BatteryEntry pushPopEntry(std::string Name,
                          std::vector<std::string> Headers, bool Exhaustive,
                          AccessBounds Bounds,
                          std::function<void()> ExtraCrash = nullptr) {
  BatteryEntry E;
  E.Name = std::move(Name);
  E.CoveredHeaders = std::move(Headers);
  E.SpecReplay = [] { specReplayCell<A>(); };
  E.LincheckStress = [] { stressRounds<A>(AsyncMode::None); };
  E.Explore = [Exhaustive] { exploreCell<A>(Exhaustive); };
  E.Chaos = [] { stressRounds<A>(AsyncMode::Chaos); };
  E.CrashOrStall = [Extra = std::move(ExtraCrash)] {
    stressRounds<A>(AsyncMode::StallPlan);
    if (Extra && !::testing::Test::HasFatalFailure())
      Extra();
  };
  E.AccessBound = [Bounds] { accessBoundCell<A>(Bounds); };
  return E;
}

template <typename A>
BatteryEntry dequeEntry(std::string Name, std::vector<std::string> Headers,
                        bool Exhaustive, AccessBounds Bounds,
                        std::function<void()> ExtraCrash = nullptr) {
  BatteryEntry E;
  E.Name = std::move(Name);
  E.CoveredHeaders = std::move(Headers);
  E.SpecReplay = [] { dequeSpecReplayCell<A>(); };
  E.LincheckStress = [] { dequeStressRounds<A>(AsyncMode::None); };
  E.Explore = [Exhaustive] { dequeExploreCell<A>(Exhaustive); };
  E.Chaos = [] { dequeStressRounds<A>(AsyncMode::Chaos); };
  E.CrashOrStall = [Extra = std::move(ExtraCrash)] {
    dequeStressRounds<A>(AsyncMode::StallPlan);
    if (Extra && !::testing::Test::HasFatalFailure())
      Extra();
  };
  E.AccessBound = [Bounds] { dequeAccessBoundCell<A>(Bounds); };
  return E;
}

template <typename A>
BatteryEntry mapEntry(std::string Name, std::vector<std::string> Headers,
                      MapAccessBounds Bounds,
                      std::function<void()> ExtraCrash = nullptr) {
  BatteryEntry E;
  E.Name = std::move(Name);
  E.CoveredHeaders = std::move(Headers);
  E.SpecReplay = [] { mapSpecReplayCell<A>(); };
  E.LincheckStress = [] { mapStressRounds<A>(AsyncMode::None); };
  E.Explore = [] { mapExploreCell<A>(); };
  E.Chaos = [] { mapStressRounds<A>(AsyncMode::Chaos); };
  E.CrashOrStall = [Extra = std::move(ExtraCrash)] {
    mapStressRounds<A>(AsyncMode::StallPlan);
    if (Extra && !::testing::Test::HasFatalFailure())
      Extra();
  };
  E.AccessBound = [Bounds] { mapAccessBoundCell<A>(Bounds); };
  return E;
}

inline BatteryEntry counterEntry() {
  BatteryEntry E;
  E.Name = "cs-counter";
  E.CoveredHeaders = {"ContentionSensitiveCounter.h"};
  E.SpecReplay = [] { counterSpecReplayCell(); };
  E.LincheckStress = [] { counterStressRounds(AsyncMode::None); };
  E.Explore = [] { counterExploreCell(); };
  E.Chaos = [] { counterStressRounds(AsyncMode::Chaos); };
  E.CrashOrStall = [] { counterStressRounds(AsyncMode::StallPlan); };
  E.AccessBound = [] { counterAccessBoundCell(); };
  return E;
}

/// The battery matrix. Crash modes per entry:
///  * lock-free objects (abortable/nonblocking/HLM/wait-free): full
///    victim-crash sweep in addition to the stall plan;
///  * crash-tolerant objects: the forced-slow crash sweep (degradation
///    counter nonzero iff the corpse held the lease);
///  * leasable-locked baselines: the non-RAII lock-level crash sweep;
///  * everything lock-based or announcement-based (plain Figure 3,
///    boxed, boosted, plain locked): stall plan only — a crash inside a
///    ScopedLock region would be released by the unwind (meaningless) or
///    terminate in the noexcept unlock, and a crashed TimestampBoost
///    announcement blocks all later operations by design.
inline const std::vector<BatteryEntry> &batteryRegistry() {
  static const std::vector<BatteryEntry> Registry = [] {
    std::vector<BatteryEntry> R;
    // Stacks.
    R.push_back(pushPopEntry<AbortableStackAdapter>(
        "abortable-stack", {"AbortableStack.h", "Results.h"},
        /*Exhaustive=*/true, AccessBounds{5, 5, true},
        [] { crashSweepCell<AbortableStackAdapter>(); }));
    R.push_back(pushPopEntry<NonBlockingStackAdapter>(
        "nonblocking-stack", {"NonBlockingStack.h"}, /*Exhaustive=*/false,
        AccessBounds{8, 8, false},
        [] { crashSweepCell<NonBlockingStackAdapter>(); }));
    R.push_back(pushPopEntry<CsStackAdapter>(
        "cs-stack",
        {"ContentionSensitiveStack.h", "ContentionSensitive.h",
         "ContentionSensitiveObject.h"},
        /*Exhaustive=*/false, AccessBounds{6, 6, true}));
    R.push_back(pushPopEntry<CtStackAdapter>(
        "ct-stack", {"CrashTolerantStack.h"},
        /*Exhaustive=*/false, AccessBounds{6, 6, true},
        [] { crashTolerantSweepCell<CtStackAdapter>(); }));
    R.push_back(pushPopEntry<UnboundedStackAdapter>(
        "unbounded-stack", {"AbortableStack.h"}, /*Exhaustive=*/false,
        AccessBounds{5, 5, true},
        [] { crashSweepCell<UnboundedStackAdapter>(); }));
    R.push_back(pushPopEntry<UnboundedCsStackAdapter>(
        "unbounded-cs-stack", {}, /*Exhaustive=*/false,
        AccessBounds{6, 6, true}));
    R.push_back(pushPopEntry<BoxedStackAdapter>(
        "boxed-stack", {"BoxedStack.h"}, /*Exhaustive=*/false,
        AccessBounds{32, 32, false}));
    R.push_back(pushPopEntry<BoostedStackAdapter>(
        "boosted-stack", {"TimestampBoost.h"}, /*Exhaustive=*/false,
        AccessBounds{6, 6, true}));
    R.push_back(pushPopEntry<WaitFreeStackAdapter>(
        "wait-free-stack", {"WaitFreeUniversal.h"}, /*Exhaustive=*/false,
        AccessBounds{256, 256, false},
        [] { crashSweepCell<WaitFreeStackAdapter>(); }));
    R.push_back(pushPopEntry<LockedStackAdapter<TtasLock>>(
        "locked-stack", {}, /*Exhaustive=*/false, AccessBounds{16, 16, false}));
    R.push_back(pushPopEntry<LockedStackAdapter<StarvationFreeLock<Leasable>>>(
        "locked-stack-leased", {}, /*Exhaustive=*/false,
        AccessBounds{64, 64, false}, [] { leasableLockCrashSweep(); }));
    // Queues.
    R.push_back(pushPopEntry<AbortableQueueAdapter>(
        "abortable-queue", {"AbortableQueue.h"}, /*Exhaustive=*/true,
        AccessBounds{6, 6, true},
        [] { crashSweepCell<AbortableQueueAdapter>(); }));
    R.push_back(pushPopEntry<NonBlockingQueueAdapter>(
        "nonblocking-queue", {"NonBlockingQueue.h"}, /*Exhaustive=*/false,
        AccessBounds{10, 10, false},
        [] { crashSweepCell<NonBlockingQueueAdapter>(); }));
    R.push_back(pushPopEntry<CsQueueAdapter>(
        "cs-queue", {"ContentionSensitiveQueue.h"}, /*Exhaustive=*/false,
        AccessBounds{7, 7, true}));
    R.push_back(pushPopEntry<CtQueueAdapter>(
        "ct-queue", {"CrashTolerantQueue.h"}, /*Exhaustive=*/false,
        AccessBounds{7, 7, true},
        [] { crashTolerantSweepCell<CtQueueAdapter>(); }));
    R.push_back(pushPopEntry<UnboundedQueueAdapter>(
        "unbounded-queue", {"AbortableQueue.h"}, /*Exhaustive=*/false,
        AccessBounds{6, 6, true},
        [] { crashSweepCell<UnboundedQueueAdapter>(); }));
    R.push_back(pushPopEntry<UnboundedCsQueueAdapter>(
        "unbounded-cs-queue", {}, /*Exhaustive=*/false,
        AccessBounds{7, 7, true}));
    R.push_back(pushPopEntry<LockedQueueAdapter<TtasLock>>(
        "locked-queue", {}, /*Exhaustive=*/false, AccessBounds{16, 16, false}));
    R.push_back(pushPopEntry<LockedQueueAdapter<StarvationFreeLock<Leasable>>>(
        "locked-queue-leased", {}, /*Exhaustive=*/false,
        AccessBounds{64, 64, false}, [] { leasableLockCrashSweep(); }));
    // Deques.
    R.push_back(dequeEntry<OfDequeAdapter>(
        "of-deque", {"ObstructionFreeDeque.h"}, /*Exhaustive=*/true,
        AccessBounds{16, 16, false}, [] { ofDequeCrashSweep(); }));
    R.push_back(dequeEntry<CsDequeAdapter>(
        "cs-deque", {"ContentionSensitiveDeque.h"}, /*Exhaustive=*/false,
        AccessBounds{24, 24, false}));
    R.push_back(dequeEntry<CtDequeAdapter>(
        "ct-deque", {"CrashTolerantDeque.h"}, /*Exhaustive=*/false,
        AccessBounds{24, 24, false},
        [] { crashTolerantSweepCell<CtDequeAdapter>(); }));
    // Counter.
    R.push_back(counterEntry());
    // Acceleration layer (perf/). All stall-plan-only: the eliminating
    // and sharded stacks fall back to Figure 3 lock paths, and a killed
    // combiner strands its publication list (DESIGN.md, "Acceleration
    // layer").
    {
      BatteryEntry E = pushPopEntry<EliminatingCsStackAdapter>(
          "eliminating-stack", {}, /*Exhaustive=*/false,
          AccessBounds{6, 6, true});
      const auto Base = std::move(E.Explore);
      E.Explore = [Base] {
        Base();
        eliminationPairSpecPoint();
      };
      R.push_back(std::move(E));
    }
    R.push_back(pushPopEntry<CombiningStackAdapter>(
        "combining-stack", {}, /*Exhaustive=*/false, AccessBounds{6, 6, true}));
    R.push_back(pushPopEntry<CombiningQueueAdapter>(
        "combining-queue", {}, /*Exhaustive=*/false, AccessBounds{7, 7, true}));
    R.push_back(dequeEntry<CombiningDequeAdapter>(
        "combining-deque", {}, /*Exhaustive=*/false,
        AccessBounds{24, 24, false}));
    R.push_back(pushPopEntry<ShardedStackAdapter>(
        "sharded-stack", {}, /*Exhaustive=*/false, AccessBounds{6, 6, true}));
    // Adaptive facade, twice: the default controller (mask moves come
    // only from grow-on-full) and the churn controller (the obs loop
    // grows and shrinks mid-round). Stall-plan-only like every sharded
    // entry; the access-bound cell runs at the one-shard mask, where a
    // solo op is a plain Figure 3 shortcut — exactly six accesses.
    R.push_back(pushPopEntry<AdaptiveStackAdapter>(
        "adaptive-stack", {}, /*Exhaustive=*/false, AccessBounds{6, 6, true}));
    R.push_back(pushPopEntry<AdaptiveChurnStackAdapter>(
        "adaptive-stack-churn", {}, /*Exhaustive=*/false,
        AccessBounds{6, 6, true}));
    // Ordered maps. The cs-map's slow path is a per-region RAII lock, so
    // stress-crash coverage is stall-plan-only like every Fig-3 entry;
    // the extra sweep crashes only shortcut shapes, which never hold a
    // lock (mapCrashSweep's banner states the boundary).
    R.push_back(mapEntry<CsMapAdapter>(
        "cs-map", {"ContentionSensitiveMap.h", "SkipListCore.h"},
        MapAccessBounds{9, 11, 11, 11, /*Exact=*/true},
        [] { mapCrashSweep(); }));
    R.push_back(mapEntry<LockedMapAdapter>(
        "locked-map", {}, MapAccessBounds{16, 16, 16, 16, /*Exact=*/false}));
    return R;
  }();
  return Registry;
}

} // namespace conformance
} // namespace csobj

#endif // CSOBJ_TESTS_CONFORMANCE_BATTERY_H
