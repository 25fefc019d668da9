//===- tests/conformance/Battery.h - Spec-driven conformance cells -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conformance battery: every concurrent object in src/core and
/// src/baselines runs through one shared matrix of checks instead of
/// hand-written per-object suites. The matrix is written over two things.
///
/// A *shape* says once how a family's operations are drawn, applied and
/// checked: PushPop (stacks, queues and bags), DequeShape, MapShape and
/// CounterShape. It names the sequential spec, the stress mix and its
/// seeds, the SpecReplay script, the Explore races, the solo ops whose
/// accesses AccessBound counts, and what a quiescent object must satisfy
/// beyond its history. Operations travel as lincheck Operations, so
/// applying, recording and checking one is written once for all shapes.
/// A shape reaches an object's operations by their names (push or
/// enqueue, with or without a process id, strong or weak), so no object
/// needs an adapter.
///
/// A *row* is one object: its name, the src/ headers it covers, its
/// shape, a factory, its solo access bounds, the crash sweep its
/// CrashOrStall cell adds, and whether Explore may enumerate every
/// schedule. The six cells have one body each:
///
///   SpecReplay     a solo script crossing Full/Empty edges, every
///                  answer validated against the sequential spec
///   LincheckStress randomized multi-thread rounds, each checked for
///                  linearizability (Wing & Gong); a row whose spec
///                  capacity is SmallCapacity then runs as many
///                  capacity-boundary rounds (fill to Full, drain to
///                  Empty, repeat)
///   Explore        schedule-space search over the shape's races
///                  (exhaustive DFS where the schedule tree is bounded,
///                  random walks otherwise)
///   Chaos          the stress rounds under FaultPlan::chaos yield/stall
///                  noise
///   CrashOrStall   the stress rounds under a stall plan, plus the row's
///                  crash sweep (lock-free objects, the crash-tolerant
///                  skeleton, the leasable lock, the HLM deque, the map)
///   AccessBound    solo shared-access counts (exact for the paper's
///                  documented fast paths, upper bounds elsewhere)
///
/// Crash modes: RAII-locked baselines must never be crash-swept — the
/// SimulatedCrash unwind releases their ScopedLock, and a kill landing in
/// the noexcept unlock would terminate — so lock-based rows get stall
/// plans only, and leasable-lock crash coverage runs as a dedicated
/// non-RAII sweep (leasableLockCrashSweep). TimestampBoost's slow path
/// defers forever to a crashed announced process, so boosted rows are
/// stall-only too.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_TESTS_CONFORMANCE_BATTERY_H
#define CSOBJ_TESTS_CONFORMANCE_BATTERY_H

#include "CrashAt.h"
#include "conformance/Params.h"

#include "baselines/EliminationBackoffStack.h"
#include "baselines/LockedMap.h"
#include "baselines/LockedQueue.h"
#include "baselines/LockedStack.h"
#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
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

/// An operation to apply: \p Arg is the pushed value, the key or the
/// delta, and \p Value the value an insert writes.
inline Operation op(OpCode Code, std::uint32_t Arg = 0,
                    std::uint32_t Value = 0) {
  Operation Op;
  Op.Code = Code;
  Op.Arg = Arg;
  Op.RetValue = Value;
  return Op;
}

inline std::string describe(const Operation &Op) {
  History H;
  H.Ops.push_back(Op);
  return H.describe();
}

/// Records the answered \p Op, invoked at \p T0 and responded now: the
/// response is stamped here, after the operation returned.
inline void record(HistoryRecorder &Rec, const Operation &Op,
                   std::uint64_t T0) {
  const std::uint64_t T1 = HistoryRecorder::now();
  Rec.recordOp(Op.Code, Op.Arg, Op.Result, Op.RetValue, T0, T1);
}

/// Folds an object's answer into \p Op; false when the operation aborted.
inline bool answer(Operation &Op, PushResult R) {
  Op.Result = R == PushResult::Full ? ResCode::Full : ResCode::Done;
  return R != PushResult::Abort;
}
inline bool answer(Operation &Op, const PopResult<std::uint32_t> &R) {
  Op.Result = R.isValue() ? ResCode::Value : ResCode::Empty;
  Op.RetValue = R.isValue() ? R.value() : 0;
  return !R.isAbort();
}

/// BoxedStack answers a push with a bool and a pop with an optional.
inline PushResult asPush(PushResult R) { return R; }
inline PushResult asPush(bool Pushed) {
  return Pushed ? PushResult::Done : PushResult::Full;
}
inline PopResult<std::uint32_t> asPop(const PopResult<std::uint32_t> &R) {
  return R;
}
inline PopResult<std::uint32_t> asPop(const std::optional<std::uint32_t> &R) {
  return R ? PopResult<std::uint32_t>::value(*R)
           : PopResult<std::uint32_t>::empty();
}

/// A stack, queue or bag's push and pop: the first of its strong
/// push/enqueue (with a process id, then without) or weak
/// weakPush/weakEnqueue that the object has.
template <typename O>
PushResult pushOn(O &Obj, std::uint32_t Tid, std::uint32_t V) {
  if constexpr (requires { Obj.push(Tid, V); })
    return asPush(Obj.push(Tid, V));
  else if constexpr (requires { Obj.enqueue(Tid, V); })
    return Obj.enqueue(Tid, V);
  else if constexpr (requires { Obj.push(V); })
    return Obj.push(V);
  else if constexpr (requires { Obj.enqueue(V); })
    return Obj.enqueue(V);
  else if constexpr (requires { Obj.weakPush(Tid, V); })
    return Obj.weakPush(Tid, V);
  else
    return Obj.weakEnqueue(Tid, V);
}

template <typename O>
PopResult<std::uint32_t> popOn(O &Obj, std::uint32_t Tid) {
  if constexpr (requires { Obj.pop(Tid); })
    return asPop(Obj.pop(Tid));
  else if constexpr (requires { Obj.dequeue(Tid); })
    return Obj.dequeue(Tid);
  else if constexpr (requires { Obj.pop(); })
    return Obj.pop();
  else if constexpr (requires { Obj.dequeue(); })
    return Obj.dequeue();
  else if constexpr (requires { Obj.weakPop(Tid); })
    return Obj.weakPop(Tid);
  else
    return Obj.weakDequeue(Tid);
}

/// An object the battery reaches through abortable attempts (weakPush,
/// weakEnqueue, tryPush*): only such an object may answer Abort.
template <typename O>
concept Abortable =
    requires(O &Obj, std::uint32_t V) { Obj.weakPush(V, V); } ||
    requires(O &Obj, std::uint32_t V) { Obj.weakEnqueue(V, V); } ||
    requires(O &Obj, std::uint32_t V) { Obj.tryPushRight(V); };

/// Metrics-as-oracle: once a run quiesces, an object exposing a path
/// snapshot must satisfy the conservation laws (obs::PathSnapshot::
/// conserves — every entered op retired through exactly one path,
/// pairings balance, degradations have causes), and with metrics compiled
/// in it must have seen every operation the run issued (>= because a
/// sharded facade op enters several skeletons). Degradations are NOT
/// asserted zero: the small-patience rows legitimately degrade.
template <typename ObjT>
void assertPathConservation(const ObjT &Obj, std::uint64_t OpsIssued) {
  if constexpr (requires { Obj.pathSnapshot(); }) {
    const obs::PathSnapshot S = Obj.pathSnapshot();
    ASSERT_TRUE(S.conserves())
        << "path conservation violated (ops=" << S.Ops
        << " pathTotal=" << S.pathTotal()
        << " elimPush=" << S.event(obs::Event::EliminatedPush)
        << " elimPop=" << S.event(obs::Event::EliminatedPop)
        << " degraded=" << S.path(obs::Path::Degraded)
        << " doorwayTO=" << S.event(obs::Event::DoorwayTimeout)
        << " leaseTO=" << S.event(obs::Event::LeaseTimeout) << ")";
    if constexpr (obs::MetricsEnabled) {
      ASSERT_GE(S.Ops, OpsIssued) << "sink missed operations";
    }
  } else {
    (void)OpsIssued;
  }
}

//===----------------------------------------------------------------------===
// Shapes
//===----------------------------------------------------------------------===
// Each shape provides: Capacity (what the factory gets in the concurrent
// cells), ReplayThreads, the stress seeds PlanSeed and MixSeed, bounded(),
// spec(Capacity), draw(Rng, Phase), apply(Obj, Tid, Op) (false when the
// op aborted), replay(), races(), solo() and settled(Obj, History). The
// two container shapes also name their solo push (In), solo pop (Out)
// and the pop that drains an object after a race (Drain).

/// What a stress thread draws: the random mix, or, in a capacity-boundary
/// round, pushes until Full (Fill) and pops until Empty (Drain).
enum class Phase { Mix, Fill, Drain };

/// One solo step of a SpecReplay script. A Checked step also states the
/// answer: Result, and the value returned (or, for an insert, written).
struct Step {
  Operation Op;
  bool Checked = false;
};

inline Step expect(OpCode Code, std::uint32_t Arg, ResCode Result,
                   std::uint32_t Value = 0) {
  Operation Op = op(Code, Arg, Value);
  Op.Result = Result;
  return {Op, true};
}

/// One Explore scenario: a solo prefix by process 0, then one op list per
/// process raced under the explorer (random walks start from Seed).
struct Race {
  std::uint64_t Seed;
  std::vector<Operation> Before;
  std::vector<std::vector<Operation>> Bodies;
};

/// Stacks, queues and bags: push(V) and pop() under SpecT at
/// SpecCapacity: SmallCapacity for the bounded objects, the codec's
/// envelope for the unbounded ones (the battery stays far below it, so
/// Full is unreachable: the "unbounded" contract).
template <typename SpecT> struct PushPop {
  std::uint32_t SpecCapacity = SmallCapacity;

  static constexpr std::uint32_t Capacity = SmallCapacity;
  static constexpr std::uint32_t ReplayThreads = StressThreads;
  static constexpr std::uint64_t PlanSeed = 0xC4A05ull;
  static constexpr std::uint64_t MixSeed = 0xBA77E59ull;
  /// The solo push and pop, and the pop that drains after a race.
  static constexpr OpCode In = OpCode::Push, Out = OpCode::Pop,
                          Drain = OpCode::Pop;

  bool bounded() const { return SpecCapacity == SmallCapacity; }
  SpecT spec(std::uint32_t) const { return SpecT(SpecCapacity); }

  static Operation draw(SplitMix64 &Rng, Phase P) {
    const bool IsPush = P == Phase::Mix ? Rng.chance(1, 2) : P == Phase::Fill;
    const std::uint32_t V = randomValue(Rng);
    return IsPush ? op(In, V) : op(Out);
  }

  template <typename O>
  static bool apply(O &Obj, std::uint32_t Tid, Operation &Op) {
    return Op.Code == In ? answer(Op, pushOn(Obj, Tid, Op.Arg))
                         : answer(Op, popOn(Obj, Tid));
  }

  /// Cross the Full edge, then the Empty edge, then a random solo mix.
  static std::vector<Step> replay() {
    std::vector<Step> Script;
    for (std::uint32_t V = 1; V <= SmallCapacity + 2; ++V)
      Script.push_back({op(In, V)});
    for (std::uint32_t I = 0; I <= SmallCapacity + 2; ++I)
      Script.push_back({op(Out)});
    SplitMix64 Rng(0xC0FFEEull);
    for (std::uint32_t I = 0; I < 32; ++I)
      Script.push_back({Rng.chance(1, 2) ? op(In, randomValue(Rng)) : op(Out)});
    return Script;
  }

  static std::vector<Race> races() {
    return {// Two concurrent pushes on an empty object.
            {0x5EED5ull + 1, {}, {{op(In, 1)}, {op(In, 2)}}},
            // A push racing a pop on a one-element object.
            {0x5EED5ull + 2, {op(In, 9)}, {{op(In, 1)}, {op(Out)}}}};
  }

  static std::vector<Operation> solo() { return {op(In, 7), op(Out)}; }

  template <typename O> static void settled(O &, const History &) {}
};

/// The HLM deque family: both ends, recorded as PushLeft/PushRight/
/// PopLeft/PopRight over the positional LinearDequeSpec (SmallCapacity
/// with SmallLeftSlots; each end is Full when its own slots run out).
struct DequeShape {
  static constexpr std::uint32_t Capacity = SmallCapacity;
  static constexpr std::uint32_t ReplayThreads = StressThreads;
  static constexpr std::uint64_t PlanSeed = 0xCD0DEull;
  static constexpr std::uint64_t MixSeed = 0xD0DECull;
  /// Solo ops use the right end; a race drains from the left.
  static constexpr OpCode In = OpCode::PushRight, Out = OpCode::PopRight,
                          Drain = OpCode::PopLeft;

  static constexpr bool bounded() { return true; }
  LinearDequeSpec spec(std::uint32_t) const {
    return LinearDequeSpec(SmallCapacity, SmallLeftSlots);
  }

  static Operation at(bool Push, bool Left, std::uint32_t V) {
    if (Push)
      return op(Left ? OpCode::PushLeft : OpCode::PushRight, V);
    return op(Left ? OpCode::PopLeft : OpCode::PopRight);
  }

  static Operation draw(SplitMix64 &Rng, Phase P) {
    const bool IsPush = P == Phase::Mix ? Rng.chance(1, 2) : P == Phase::Fill;
    const bool Left = Rng.chance(1, 2);
    const std::uint32_t V = randomValue(Rng);
    return at(IsPush, Left, V);
  }

  template <typename O>
  static bool apply(O &Obj, std::uint32_t Tid, Operation &Op) {
    const bool Left = Op.Code == OpCode::PushLeft || Op.Code == OpCode::PopLeft;
    const std::uint32_t V = Op.Arg;
    if constexpr (requires { Obj.pushLeft(Tid, V); }) {
      if (isPushLike(Op.Code))
        return answer(Op, Left ? Obj.pushLeft(Tid, V) : Obj.pushRight(Tid, V));
      return answer(Op, Left ? Obj.popLeft(Tid) : Obj.popRight(Tid));
    } else {
      if (isPushLike(Op.Code))
        return answer(Op, Left ? Obj.tryPushLeft(V) : Obj.tryPushRight(V));
      return answer(Op, Left ? Obj.tryPopLeft() : Obj.tryPopRight());
    }
  }

  /// Exhaust both ends (positional Full), drain past Empty, then a random
  /// solo mix over both ends.
  static std::vector<Step> replay() {
    std::vector<Step> Script;
    for (std::uint32_t V = 1; V <= SmallLeftSlots + 1; ++V)
      Script.push_back({op(OpCode::PushLeft, V)});
    for (std::uint32_t V = 10; V <= 10 + (SmallCapacity - SmallLeftSlots); ++V)
      Script.push_back({op(OpCode::PushRight, V)});
    for (std::uint32_t I = 0; I <= SmallCapacity + 1; ++I)
      Script.push_back({op(OpCode::PopLeft)});
    SplitMix64 Rng(0xDEC0DEull);
    for (std::uint32_t I = 0; I < 32; ++I) {
      const bool Left = Rng.chance(1, 2);
      Script.push_back({Rng.chance(1, 2) ? at(true, Left, randomValue(Rng))
                                         : at(false, Left, 0)});
    }
    return Script;
  }

  static std::vector<Race> races() {
    using enum OpCode;
    return {// pushLeft racing pushRight on an empty deque.
            {0xDEC5ull + 1, {}, {{op(PushLeft, 1)}, {op(PushRight, 2)}}},
            // pushRight racing popRight on a one-element deque (same end).
            {0xDEC5ull + 2,
             {op(PushRight, 9)},
             {{op(PushRight, 1)}, {op(PopRight)}}}};
  }

  static std::vector<Operation> solo() { return {op(In, 7), op(Out)}; }

  template <typename O> static void settled(O &, const History &) {}
};

/// Ordered maps: keyed get/insert/erase over OrderedMapSpec. Concurrent
/// cells run over MapStressKeys keys against MapCapacity, so the racy
/// capacity edge stays out of reach (Params.h); the solo script crosses
/// the Full and erase-frees-capacity edges at SmallCapacity.
struct MapShape {
  static constexpr std::uint32_t Capacity = MapCapacity;
  static constexpr std::uint32_t ReplayThreads = 1;
  static constexpr std::uint64_t PlanSeed = 0x9AB5Eull;
  static constexpr std::uint64_t MixSeed = 0x3A9D0ull;

  static constexpr bool bounded() { return false; }
  OrderedMapSpec spec(std::uint32_t C) const { return OrderedMapSpec(C); }

  static Operation draw(SplitMix64 &Rng, Phase) {
    const auto K = static_cast<std::uint32_t>(Rng.below(MapStressKeys));
    const std::uint64_t Kind = Rng.below(4);
    if (Kind < 2)
      return op(OpCode::Get, K);
    if (Kind == 2)
      return op(OpCode::Insert, K, randomValue(Rng));
    return op(OpCode::Erase, K);
  }

  template <typename O>
  static bool apply(O &Obj, std::uint32_t Tid, Operation &Op) {
    if (Op.Code == OpCode::Insert)
      return answer(Op, Obj.insert(Tid, Op.Arg, Op.RetValue));
    return answer(Op, Op.Code == OpCode::Get ? Obj.get(Tid, Op.Arg)
                                             : Obj.erase(Tid, Op.Arg));
  }

  /// Miss, fresh insert, update, erase, reinsert after erase, the
  /// live-key Full boundary, update at capacity, and the erase-frees-
  /// exactly-one-slot rule.
  static std::vector<Step> replay() {
    using enum OpCode;
    using enum ResCode;
    return {expect(Get, 5, Empty),        expect(Erase, 5, Empty),
            expect(Insert, 1, Done, 11),  expect(Insert, 2, Done, 22),
            expect(Insert, 1, Done, 12),  // update
            expect(Get, 1, Value, 12),    expect(Erase, 1, Value, 12),
            expect(Get, 1, Empty),        expect(Insert, 1, Done, 13),
            expect(Get, 1, Value, 13),    expect(Insert, 3, Done, 33),
            expect(Insert, 4, Done, 44),  // Live = {1,2,3,4} == capacity
            expect(Insert, 5, Full, 55),  // fresh key at the boundary
            expect(Insert, 2, Done, 23),  // update at capacity
            expect(Erase, 2, Value, 23),  // frees exactly one slot
            expect(Insert, 5, Done, 55),  // erase freed capacity
            expect(Insert, 2, Full, 24),  // full again; 2 is gone now
            expect(Get, 2, Empty),        expect(Get, 5, Value, 55)};
  }

  /// Two writers in one key region (doorway serialization), and an
  /// insert racing an erase of the same key (ValState C&S interference),
  /// each beside a reader. Keys 0 and MapRegions share region 0.
  static std::vector<Race> races() {
    using enum OpCode;
    return {{0x3A9E1ull,
             {},
             {{op(Insert, 0, 11)}, {op(Insert, MapRegions, 22)}, {op(Get, 0)}}},
            {0x3A9E2ull,
             {},
             {{op(Insert, 0, 11)}, {op(Erase, 0)}, {op(Get, 0)}}}};
  }

  /// A fresh insert, get, update and erase of a height-1 key. Exact for
  /// the cs-map: the search reads MaxLevel links top-down (one per level
  /// on a tiny map), so
  ///   insert (fresh) = 1 CONTENTION + 8 search + 1 admission read
  ///                    + 1 link C&S (allocating and initializing
  ///                    unreachable storage is uncounted)        = 11
  ///   get            = 8 search + 1 ValState read               =  9
  ///   insert (update)= 1 CONTENTION + 8 search + 1 read + 1 C&S = 11
  ///   erase          = 1 CONTENTION + 8 search + 1 read + 1 C&S = 11
  ///                    (physical removal is uncounted reclamation)
  /// — the map's constant-solo-cost analogue of the stack's 6.
  static std::vector<Operation> solo() {
    std::uint32_t K = 0;
    while (SkipListCore<>::heightOf(K) != 1)
      ++K;
    return {op(OpCode::Insert, K, 7), op(OpCode::Get, K),
            op(OpCode::Insert, K, 8), op(OpCode::Erase, K)};
  }

  /// The skip list's lanes stay well formed.
  template <typename O> static void settled(O &Obj, const History &) {
    if constexpr (requires { Obj.core().checkLanesForTesting(); }) {
      ASSERT_EQ(Obj.core().checkLanesForTesting(), "");
    }
  }
};

/// The counter: unit fetch-and-adds under FetchAddSpec, so a history is
/// checked for real-time order, not only for the set of sums returned.
struct CounterShape {
  static constexpr std::uint32_t Capacity = 0; // a counter has none
  static constexpr std::uint32_t ReplayThreads = 1;
  static constexpr std::uint64_t PlanSeed = 0xC07EFull;
  static constexpr std::uint64_t MixSeed = 0; // the mix draws nothing

  static constexpr bool bounded() { return false; }
  FetchAddSpec spec(std::uint32_t) const { return FetchAddSpec(); }

  static Operation draw(SplitMix64 &, Phase) {
    return op(OpCode::FetchAdd, 1);
  }

  template <typename O>
  static bool apply(O &Obj, std::uint32_t Tid, Operation &Op) {
    Op.Result = ResCode::Value;
    Op.RetValue = static_cast<std::uint32_t>(Obj.add(Tid, Op.Arg));
    return true;
  }

  static std::vector<Step> replay() {
    std::vector<Step> Script;
    std::uint32_t Sum = 0;
    for (std::uint32_t I = 1; I <= 10; ++I) {
      Sum += I;
      Script.push_back(expect(OpCode::FetchAdd, I, ResCode::Value, Sum));
    }
    return Script;
  }

  static std::vector<Race> races() {
    const Operation Add = op(OpCode::FetchAdd, 1);
    return {{0xC07E5ull, {}, {{Add, Add}, {Add, Add}}}};
  }

  /// Paper Theorem: a solo add costs 1 CONTENTION read + the 2-access
  /// weak add — 3 shared accesses, exactly.
  static std::vector<Operation> solo() { return {op(OpCode::FetchAdd, 1)}; }

  /// The counter holds the sum of every add.
  template <typename O> static void settled(O &Obj, const History &H) {
    std::uint64_t Sum = 0;
    for (const Operation &Op : H.Ops)
      Sum += Op.Arg;
    EXPECT_EQ(Obj.valueForTesting(), Sum);
  }
};

//===----------------------------------------------------------------------===
// Cells
//===----------------------------------------------------------------------===

/// The checks a concurrent run ends with, once quiescent: a strong object
/// never aborted, the shape's settled state, path conservation over every
/// op issued, and a linearizable history.
template <typename Shape, typename O>
void checkRun(const Shape &S, O &Obj, const std::vector<HistoryRecorder> &Recs,
              std::uint32_t Aborted) {
  if constexpr (!Abortable<O>) {
    ASSERT_EQ(Aborted, 0u) << "a strong object aborted";
  }
  const History H = mergeHistories(Recs);
  Shape::settled(Obj, H);
  assertPathConservation(Obj, H.Ops.size() + Aborted);
  if (::testing::Test::HasFatalFailure())
    return;
  ASSERT_TRUE(H.wellFormed());
  const CheckResult Result = checkLinearizable(H, S.spec(Shape::Capacity));
  ASSERT_FALSE(Result.HitSearchCap);
  ASSERT_TRUE(Result.Linearizable) << Result.FailureNote;
}

/// SpecReplay: the shape's script, solo, each answer validated against
/// the spec (and against the script where it states one). The object
/// ends in the spec's state and its paths conserve.
template <typename Shape, typename Make>
void specReplayCell(const Shape &S, const Make &M) {
  auto Obj = M(Shape::ReplayThreads, SmallCapacity);
  auto Spec = S.spec(SmallCapacity);
  History H;
  for (const Step &St : Shape::replay()) {
    Operation Op = St.Op;
    ASSERT_TRUE(Shape::apply(*Obj, 0, Op))
        << "solo op aborted at step " << H.Ops.size();
    if (St.Checked) {
      EXPECT_EQ(Op.Result, St.Op.Result) << describe(Op);
      EXPECT_EQ(Op.RetValue, St.Op.RetValue) << describe(Op);
    }
    Op.InvokeNs = 2 * H.Ops.size();
    Op.ResponseNs = Op.InvokeNs + 1;
    ASSERT_TRUE(Spec.apply(Op))
        << describe(Op) << "disagrees with the sequential spec";
    H.Ops.push_back(Op);
  }
  if constexpr (requires { Spec.size(); }) {
    EXPECT_EQ(Obj->sizeForTesting(), Spec.size());
  }
  Shape::settled(*Obj, H);
  assertPathConservation(*Obj, H.Ops.size());
}

/// LincheckStress, Chaos and the stall-plan rounds of CrashOrStall:
/// StressThreads threads run the shape's random mix for StressRounds
/// rounds without faults, ChaosRounds under them. A row whose spec
/// capacity is SmallCapacity then runs as many capacity-boundary rounds:
/// each thread pushes until it is answered Full, pops until it is
/// answered Empty, and repeats, for 2·(SmallCapacity+1) ops (one fill and
/// one drain when it runs alone). Round r draws from MixSeed·(r+1)+tid
/// and PlanSeed·(r+1), boundary rounds numbered on after the mix rounds.
template <typename Shape, typename Make>
void stressCell(const Shape &S, const Make &M, AsyncMode Mode) {
  const std::uint32_t Rounds =
      Mode == AsyncMode::None ? StressRounds : ChaosRounds;
  const std::uint32_t AllRounds = S.bounded() ? 2 * Rounds : Rounds;
  for (std::uint32_t Round = 0; Round < AllRounds; ++Round) {
    SCOPED_TRACE(::testing::Message() << "round " << Round);
    const bool Boundary = Round >= Rounds;
    const std::uint32_t OpsPerThread =
        Boundary ? 2 * (SmallCapacity + 1) : StressOpsPerThread;
    auto Obj = M(StressThreads, Shape::Capacity);
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < StressThreads; ++T)
      Recorders.emplace_back(T);
    std::atomic<std::uint32_t> Aborts{0};
    SpinBarrier Barrier(StressThreads);
    FaultClock Clock;
    const FaultPlan Plan = asyncPlan(Mode, Shape::PlanSeed * (Round + 1));

    std::vector<std::thread> Threads;
    for (std::uint32_t T = 0; T < StressThreads; ++T) {
      Threads.emplace_back([&, T] {
        FaultScope Faults(Plan, T, Clock);
        SplitMix64 Rng(Shape::MixSeed * (Round + 1) + T);
        Phase P = Boundary ? Phase::Fill : Phase::Mix;
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
          Operation Op = Shape::draw(Rng, P);
          const std::uint64_t T0 = HistoryRecorder::now();
          if (!Shape::apply(*Obj, T, Op)) {
            Aborts.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          record(Recorders[T], Op, T0);
          if (P == Phase::Fill && Op.Result == ResCode::Full)
            P = Phase::Drain;
          else if (P == Phase::Drain && Op.Result == ResCode::Empty)
            P = Phase::Fill;
        }
      });
    }
    for (auto &Th : Threads)
      Th.join();
    checkRun(S, *Obj, Recorders, Aborts.load());
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

/// After a race, process 0 pops the shape's Drain end until Empty,
/// recording every pop (the map and the counter have nothing to drain).
template <typename Shape, typename O>
void drain(O &Obj, HistoryRecorder &Rec) {
  if constexpr (requires { Shape::Drain; }) {
    for (std::uint32_t Guard = 0;; ++Guard) {
      ASSERT_LE(Guard, SmallCapacity + 1u) << "drain did not terminate";
      Operation Op = op(Shape::Drain);
      const std::uint64_t T0 = HistoryRecorder::now();
      ASSERT_TRUE(Shape::apply(Obj, 0, Op)) << "solo drain aborted";
      record(Rec, Op, T0);
      if (Op.Result == ResCode::Empty)
        break;
    }
  }
}

/// Explore: each of the shape's races over a fresh object for as many
/// processes as it has bodies, every schedule drained and checked.
template <typename Shape, typename Make>
void exploreCell(const Shape &S, const Make &M, bool Exhaustive) {
  using O = typename decltype(M(0u, 0u))::element_type;
  for (const Race &Rc : Shape::races()) {
    const auto N = static_cast<std::uint32_t>(Rc.Bodies.size());
    const auto Factory = [&] {
      std::shared_ptr<O> Obj = M(N, Shape::Capacity);
      auto Recs = std::make_shared<std::vector<HistoryRecorder>>();
      for (std::uint32_t T = 0; T < N; ++T)
        Recs->emplace_back(T);
      auto Aborted = std::make_shared<std::uint32_t>(0);
      for (Operation Op : Rc.Before) {
        const std::uint64_t T0 = HistoryRecorder::now();
        EXPECT_TRUE(Shape::apply(*Obj, 0, Op));
        EXPECT_EQ(Op.Result, ResCode::Done);
        record((*Recs)[0], Op, T0);
      }
      ScenarioRun Run;
      for (std::uint32_t T = 0; T < N; ++T)
        Run.Bodies.push_back([Obj, Recs, Aborted, T, Ops = Rc.Bodies[T]] {
          for (Operation Op : Ops) {
            const std::uint64_t T0 = HistoryRecorder::now();
            if (Shape::apply(*Obj, T, Op))
              record((*Recs)[T], Op, T0);
            else
              ++*Aborted;
          }
        });
      Run.PostCheck = [&S, Obj, Recs, Aborted] {
        drain<Shape>(*Obj, (*Recs)[0]);
        if (!::testing::Test::HasFatalFailure())
          checkRun(S, *Obj, *Recs, *Aborted);
      };
      return Run;
    };
    ScheduleExplorer Explorer;
    const ExploreResult R =
        Exhaustive ? Explorer.exploreAll(Factory)
                   : Explorer.randomWalks(Factory, RandomWalkRuns, Rc.Seed);
    EXPECT_GT(R.Runs, 0u);
    EXPECT_EQ(R.CappedRuns, 0u);
    if (Exhaustive) {
      EXPECT_TRUE(R.Complete);
    }
  }
}

/// A row's solo access bounds, one per op of its shape's solo().
struct AccessBounds {
  std::vector<std::uint64_t> PerOp;
  bool Exact = false;
};

inline AccessBounds exactly(std::vector<std::uint64_t> PerOp) {
  return {std::move(PerOp), true};
}
inline AccessBounds atMost(std::vector<std::uint64_t> PerOp) {
  return {std::move(PerOp), false};
}

template <typename Shape, typename Make>
void accessBoundCell(const Make &M, const AccessBounds &B) {
  auto Obj = M(StressThreads, Shape::Capacity);
  const std::vector<Operation> Ops = Shape::solo();
  ASSERT_EQ(Ops.size(), B.PerOp.size());
  for (std::size_t I = 0; I < Ops.size(); ++I) {
    Operation Op = Ops[I];
    const std::uint64_t Accesses =
        countAccesses([&] { (void)Shape::apply(*Obj, 0, Op); }).total();
    if (I == 0) {
      EXPECT_GT(Accesses, 0u);
    }
    if (B.Exact) {
      EXPECT_EQ(Accesses, B.PerOp[I]) << describe(Op);
    } else {
      EXPECT_LE(Accesses, B.PerOp[I]) << describe(Op);
    }
  }
}

//===----------------------------------------------------------------------===
// Crash sweeps (the extra half of CrashOrStall)
//===----------------------------------------------------------------------===

/// After a crash, the survivor pushes 4s until Full and returns how
/// many landed. A bounded row must then hold exactly its capacity: a
/// crashed operation may strand a node, but only its process's own
/// spare, so a capacity that shrank is a phantom Full.
template <typename O> std::uint32_t fillToFull(O &Obj) {
  std::uint32_t Filled = 0;
  while (Filled <= SmallCapacity) {
    const PushResult R = pushOn(Obj, 1, 4);
    EXPECT_NE(R, PushResult::Abort) << "survivor fill aborted";
    if (R != PushResult::Done)
      break;
    ++Filled;
  }
  return Filled;
}

/// Lock-free stacks and queues: crash a push (then a pop) at every
/// shared-access point; the survivor completes solo, the crashed
/// operation is all-or-nothing, and a bounded row (spec capacity
/// SmallCapacity; the unbounded ones are not filled) still fills to its
/// capacity.
template <typename SpecT, typename Make>
void crashSweepCell(const PushPop<SpecT> &S, const Make &M) {
  const bool Bounded = S.bounded();
  std::size_t PushAccesses = 0;
  {
    auto Probe = M(StressThreads, SmallCapacity);
    EXPECT_EQ(pushOn(*Probe, 0, 1), PushResult::Done);
    PushAccesses =
        runAndCrashAt([&] { (void)pushOn(*Probe, 0, 2); }, 100000);
  }
  ASSERT_GT(PushAccesses, 0u);
  for (std::uint32_t K = 0; K < PushAccesses; ++K) {
    auto Obj = M(StressThreads, SmallCapacity);
    ASSERT_EQ(pushOn(*Obj, 0, 1), PushResult::Done);
    runAndCrashAt([&] { (void)pushOn(*Obj, 0, 2); }, K);
    ASSERT_EQ(pushOn(*Obj, 1, 3), PushResult::Done)
        << "survivor push blocked; crash point " << K;
    const std::uint32_t Filled = Bounded ? fillToFull(*Obj) : 0;
    std::uint32_t Seen1 = 0, Seen2 = 0, Seen3 = 0, Total = 0;
    for (std::uint32_t Guard = 0; Guard <= SmallCapacity + 1; ++Guard) {
      const PopResult<std::uint32_t> R = popOn(*Obj, 1);
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
    EXPECT_EQ(Total, 2u + Seen2 + Filled)
        << "crashed push must be all-or-nothing; crash point " << K;
    if (Bounded) {
      EXPECT_EQ(Total, SmallCapacity)
          << "survivor could not fill to capacity; crash point " << K;
    }
  }

  std::size_t PopAccesses = 0;
  {
    auto Probe = M(StressThreads, SmallCapacity);
    EXPECT_EQ(pushOn(*Probe, 0, 1), PushResult::Done);
    EXPECT_EQ(pushOn(*Probe, 0, 2), PushResult::Done);
    PopAccesses = runAndCrashAt([&] { (void)popOn(*Probe, 0); }, 100000);
  }
  ASSERT_GT(PopAccesses, 0u);
  for (std::uint32_t K = 0; K < PopAccesses; ++K) {
    auto Obj = M(StressThreads, SmallCapacity);
    ASSERT_EQ(pushOn(*Obj, 0, 1), PushResult::Done);
    ASSERT_EQ(pushOn(*Obj, 0, 2), PushResult::Done);
    runAndCrashAt([&] { (void)popOn(*Obj, 0); }, K);
    ASSERT_EQ(pushOn(*Obj, 1, 3), PushResult::Done)
        << "survivor push blocked; crash point " << K;
    const std::uint32_t Filled = Bounded ? fillToFull(*Obj) : 0;
    std::uint32_t Total = 0, Seen3 = 0;
    for (std::uint32_t Guard = 0; Guard <= SmallCapacity + 1; ++Guard) {
      const PopResult<std::uint32_t> R = popOn(*Obj, 1);
      ASSERT_FALSE(R.isAbort()) << "survivor drain aborted; crash point " << K;
      if (!R.isValue())
        break;
      ++Total;
      if (R.value() == 3)
        ++Seen3;
    }
    EXPECT_EQ(Seen3, 1u) << "crash point " << K;
    EXPECT_TRUE(Total - Filled == 2u || Total - Filled == 3u)
        << "crashed pop must be all-or-nothing; crash point " << K
        << " drained " << Total << " after filling " << Filled;
    if (Bounded) {
      EXPECT_EQ(Total, SmallCapacity)
          << "survivor could not fill to capacity; crash point " << K;
    }
  }
}

/// Crash-tolerant rows: generalizes the crash_test slow-path sweep to any
/// CrashTolerant* object — crash a forced-slow operation (its first weak
/// attempt aborts; later ones run the shape's solo push on the object's
/// abortable) at every access point; the survivor completes, degrading
/// (degradation counter nonzero) exactly when the corpse held the lease.
/// \p M builds the object for two processes.
template <typename Shape, typename Make>
void crashTolerantSweepCell(const Shape &, const Make &M) {
  const auto ForcedSlow = [](auto &Obj, std::uint32_t V) {
    return [&Obj, V, Attempts = 0]() mutable -> std::optional<PushResult> {
      Operation Op = op(Shape::In, V);
      if (Attempts++ == 0 || !Shape::apply(Obj.abortable(), 0, Op))
        return std::nullopt;
      return Op.Result == ResCode::Full ? PushResult::Full : PushResult::Done;
    };
  };
  const auto DrainCount = [](auto &Obj) {
    std::uint32_t Seen = 0;
    for (Operation Op = op(Shape::Out);
         Shape::apply(Obj.abortable(), 0, Op) && Op.Result == ResCode::Value;
         Op = op(Shape::Out))
      ++Seen;
    return Seen;
  };

  std::size_t Accesses = 0;
  {
    auto Probe = M(2, SmallCapacity);
    Accesses = runAndCrashAt(
        [&] {
          (void)Probe->skeleton().strongApply(0, ForcedSlow(*Probe, 7));
        },
        100000);
  }
  ASSERT_GT(Accesses, 10u); // Sanity: the slow path is well past the fast 6.

  for (std::uint32_t K = 0; K < Accesses; ++K) {
    auto Obj = M(2, SmallCapacity);
    runAndCrashAt(
        [&] { (void)Obj->skeleton().strongApply(0, ForcedSlow(*Obj, 7)); },
        K);
    auto &Skel = Obj->skeleton();
    auto &Lock = Skel.slowPath().lock();
    const bool CorpseHeldLock = Lock.inner().holderForTesting() == 1;

    const PushResult First = Skel.strongApply(1, ForcedSlow(*Obj, 99));
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

    const PushResult Second = Skel.strongApply(1, ForcedSlow(*Obj, 100));
    ASSERT_EQ(Second, PushResult::Done) << "crash point " << K;
    EXPECT_GE(Lock.statsForTesting().ProtectedOps, 1u) << "crash point " << K;
    EXPECT_FALSE(Skel.contentionForTesting()) << "crash point " << K;
    EXPECT_EQ(Lock.inner().holderForTesting(), 0u) << "crash point " << K;
    EXPECT_GE(DrainCount(*Obj), 2u) << "crash point " << K;
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
    if (G.isValue()) {
      EXPECT_EQ(G.value(), 7u) << "crash at " << C << " tore the insert";
    }
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
    if (G.isValue()) {
      EXPECT_EQ(G.value(), 7u) << "crash at " << C << " tore the erase";
    }
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
  using Shape = PushPop<BoundedStackSpec>;
  const Shape Spec;
  std::uint64_t TotalExchanges = 0;
  const auto Factory = [&] {
    auto Obj = std::make_shared<Stack>(2, SmallCapacity, /*SlotCount=*/1,
                                       /*SpinBudget=*/8);
    Obj->rescue().forceFirstForTesting(true);
    auto Recs = std::make_shared<std::vector<HistoryRecorder>>();
    Recs->emplace_back(0);
    Recs->emplace_back(1);
    auto Aborted = std::make_shared<std::uint32_t>(0);
    ScenarioRun Run;
    for (std::uint32_t T = 0; T < 2; ++T)
      Run.Bodies.push_back([Obj, Recs, Aborted, T] {
        Operation Op = T == 0 ? op(OpCode::Push, 7) : op(OpCode::Pop);
        const std::uint64_t T0 = HistoryRecorder::now();
        if (Shape::apply(*Obj, T, Op))
          record((*Recs)[T], Op, T0);
        else
          ++*Aborted;
      });
    Run.PostCheck = [&, Obj, Recs, Aborted] {
      TotalExchanges += Obj->rescue().array().exchangesForTesting();
      drain<Shape>(*Obj, (*Recs)[0]);
      if (!::testing::Test::HasFatalFailure())
        checkRun(Spec, *Obj, *Recs, *Aborted);
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
/// and src/baselines headers it certifies (the registry-exhaustiveness
/// test requires every such header to appear in some row), and the six
/// cells.
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

/// The factory of an object built as T(Threads, Capacity, Extra...), the
/// constructor most rows share.
template <typename T, typename... Args> auto sized(Args... Extra) {
  return [=](std::uint32_t Threads, std::uint32_t Capacity) {
    return std::make_unique<T>(Threads, Capacity, Extra...);
  };
}

/// The crash sweep a row's CrashOrStall cell runs after its stall-plan
/// rounds: none, one of the two written over the row's shape and
/// factory, or a sweep with a body of its own.
inline constexpr auto NoSweep = [](const auto &, const auto &) {};
inline constexpr auto LockFreeSweep = [](const auto &S, const auto &M) {
  crashSweepCell(S, M);
};
inline constexpr auto TolerantSweep = [](const auto &S, const auto &M) {
  crashTolerantSweepCell(S, M);
};
inline auto ownSweep(void (*Sweep)()) {
  return [Sweep](const auto &, const auto &) { Sweep(); };
}

template <typename Shape, typename Make, typename Sweep = decltype(NoSweep)>
BatteryEntry row(std::string Name, std::vector<std::string> Headers, Shape S,
                 Make M, AccessBounds Bounds, Sweep Extra = NoSweep,
                 bool Exhaustive = false) {
  BatteryEntry E;
  E.Name = std::move(Name);
  E.CoveredHeaders = std::move(Headers);
  E.SpecReplay = [S, M] { specReplayCell(S, M); };
  E.LincheckStress = [S, M] { stressCell(S, M, AsyncMode::None); };
  E.Explore = [S, M, Exhaustive] { exploreCell(S, M, Exhaustive); };
  E.Chaos = [S, M] { stressCell(S, M, AsyncMode::Chaos); };
  E.CrashOrStall = [S, M, Extra] {
    stressCell(S, M, AsyncMode::StallPlan);
    if (!::testing::Test::HasFatalFailure())
      Extra(S, M);
  };
  E.AccessBound = [M, Bounds] { accessBoundCell<Shape>(M, Bounds); };
  return E;
}

/// The battery matrix. Crash modes per row:
///  * lock-free objects (abortable/nonblocking/HLM/wait-free, and the
///    Treiber, HSY and Michael-Scott baselines): full victim-crash sweep
///    in addition to the stall plan;
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
    const PushPop<BoundedStackSpec> Stack;
    const PushPop<BoundedQueueSpec> Queue;
    const PushPop<BoundedStackSpec> EnvelopeStack{
        UnboundedStack<>::TopC::MaxIndex};
    const PushPop<BoundedQueueSpec> EnvelopeQueue{
        UnboundedQueue<>::TopC::MaxIndex};
    // A bag, not a stack: a sharded stack's pops return some element
    // (per-shard LIFO only).
    const PushPop<BoundedBagSpec> Bag;
    const DequeShape Deque;
    std::vector<BatteryEntry> R;

    // Stacks. Small patience in every crash-tolerant row: false
    // revocation is linearizable for crash-tolerant objects
    // (linearization points live in the weak C&S), and it buys
    // degraded-path coverage in every cell.
    R.push_back(row(
        "abortable-stack", {"AbortableStack.h", "Results.h"}, Stack,
        [](std::uint32_t, std::uint32_t C) {
          return std::make_unique<AbortableStack<>>(C);
        },
        exactly({5, 5}), LockFreeSweep, /*Exhaustive=*/true));
    R.push_back(row(
        "nonblocking-stack", {"NonBlockingStack.h"}, Stack,
        [](std::uint32_t, std::uint32_t C) {
          return std::make_unique<NonBlockingStack<>>(C);
        },
        atMost({8, 8}), LockFreeSweep));
    R.push_back(row("cs-stack",
                    {"ContentionSensitiveStack.h", "ContentionSensitive.h",
                     "ContentionSensitiveObject.h"},
                    Stack, sized<ContentionSensitiveStack<>>(),
                    exactly({6, 6})));
    R.push_back(row("ct-stack", {"CrashTolerantStack.h"}, Stack,
                    sized<CrashTolerantStack<>>(SmallPatience),
                    exactly({6, 6}), TolerantSweep));
    R.push_back(row(
        "unbounded-stack", {"AbortableStack.h"}, EnvelopeStack,
        [](std::uint32_t N, std::uint32_t) {
          return std::make_unique<UnboundedStack<>>(N);
        },
        exactly({5, 5}), LockFreeSweep));
    R.push_back(row("unbounded-cs-stack", {}, EnvelopeStack,
                    [](std::uint32_t N, std::uint32_t) {
                      return std::make_unique<
                          ContentionSensitiveUnboundedStack<>>(N);
                    },
                    exactly({6, 6})));
    R.push_back(row("boxed-stack", {"BoxedStack.h"}, Stack,
                    sized<BoxedStack<std::uint32_t>>(), atMost({32, 32})));
    R.push_back(row("boosted-stack", {"TimestampBoost.h"}, Stack,
                    sized<BoostedStack<>>(), exactly({6, 6})));
    R.push_back(row(
        "wait-free-stack", {"WaitFreeUniversal.h"}, Stack,
        [](std::uint32_t N, std::uint32_t C) {
          EXPECT_EQ(C, SmallCapacity) << "compile-time capacity";
          return std::make_unique<WaitFreeStack<SmallCapacity, 8>>(N);
        },
        atMost({256, 256}), LockFreeSweep));
    R.push_back(row("locked-stack", {"LockedStack.h"}, Stack,
                    sized<LockedStack<TtasLock>>(), atMost({16, 16})));
    R.push_back(row("locked-stack-leased", {}, Stack,
                    sized<LockedStack<StarvationFreeLock<Leasable>>>(),
                    atMost({64, 64}), ownSweep(leasableLockCrashSweep)));
    R.push_back(row("treiber-stack", {"TreiberStack.h"}, Stack,
                    sized<TreiberStack>(), exactly({7, 7}), LockFreeSweep));
    // Hendler-Shavit-Yerushalmi: two slots and a short spin, so contended
    // rounds keep crossing the rendezvous.
    R.push_back(row("hsy-stack", {"EliminationBackoffStack.h"}, Stack,
                    sized<EliminationBackoffStack>(/*SlotCount=*/2,
                                                   /*SpinBudget=*/16),
                    exactly({7, 7}), LockFreeSweep));

    // Queues.
    R.push_back(row(
        "abortable-queue", {"AbortableQueue.h"}, Queue,
        [](std::uint32_t, std::uint32_t C) {
          return std::make_unique<AbortableQueue<>>(C);
        },
        exactly({6, 6}), LockFreeSweep, /*Exhaustive=*/true));
    R.push_back(row(
        "nonblocking-queue", {"NonBlockingQueue.h"}, Queue,
        [](std::uint32_t, std::uint32_t C) {
          return std::make_unique<NonBlockingQueue<>>(C);
        },
        atMost({10, 10}), LockFreeSweep));
    R.push_back(row("cs-queue", {"ContentionSensitiveQueue.h"}, Queue,
                    sized<ContentionSensitiveQueue<>>(), exactly({7, 7})));
    R.push_back(row("ct-queue", {"CrashTolerantQueue.h"}, Queue,
                    sized<CrashTolerantQueue<>>(SmallPatience),
                    exactly({7, 7}), TolerantSweep));
    R.push_back(row(
        "unbounded-queue", {"AbortableQueue.h"}, EnvelopeQueue,
        [](std::uint32_t N, std::uint32_t) {
          return std::make_unique<UnboundedQueue<>>(N);
        },
        exactly({6, 6}), LockFreeSweep));
    R.push_back(row("unbounded-cs-queue", {}, EnvelopeQueue,
                    [](std::uint32_t N, std::uint32_t) {
                      return std::make_unique<
                          ContentionSensitiveUnboundedQueue<>>(N);
                    },
                    exactly({7, 7})));
    R.push_back(row("locked-queue", {"LockedQueue.h"}, Queue,
                    sized<LockedQueue<TtasLock>>(), atMost({16, 16})));
    R.push_back(row("locked-queue-leased", {}, Queue,
                    sized<LockedQueue<StarvationFreeLock<Leasable>>>(),
                    atMost({64, 64}), ownSweep(leasableLockCrashSweep)));
    R.push_back(row("ms-queue", {"MichaelScottQueue.h"}, Queue,
                    sized<MichaelScottQueue>(), exactly({12, 9}),
                    LockFreeSweep));

    // Deques.
    R.push_back(row(
        "of-deque", {"ObstructionFreeDeque.h"}, Deque,
        [](std::uint32_t, std::uint32_t C) {
          return std::make_unique<ObstructionFreeDeque>(C, SmallLeftSlots);
        },
        atMost({16, 16}), ownSweep(ofDequeCrashSweep), /*Exhaustive=*/true));
    R.push_back(row("cs-deque", {"ContentionSensitiveDeque.h"}, Deque,
                    sized<ContentionSensitiveDeque<>>(SmallLeftSlots),
                    atMost({24, 24})));
    R.push_back(row(
        "ct-deque", {"CrashTolerantDeque.h"}, Deque,
        sized<CrashTolerantDeque<>>(SmallLeftSlots, SmallPatience),
        atMost({24, 24}), [](const DequeShape &S, const auto &) {
          // All slots on the right, so the survivor's two healing pushes
          // fit whether or not the corpse's landed.
          crashTolerantSweepCell(
              S, sized<CrashTolerantDeque<>>(/*InitialLeftSlots=*/0u,
                                             SmallPatience));
        }));

    // Counter.
    R.push_back(row("cs-counter", {"ContentionSensitiveCounter.h"},
                    CounterShape(),
                    [](std::uint32_t N, std::uint32_t) {
                      return std::make_unique<ContentionSensitiveCounter<>>(N);
                    },
                    exactly({3})));

    // Acceleration layer (perf/). Tiny elimination arrays (one slot,
    // short spin budget) keep the stress rendezvous rate high and the
    // schedule trees small. All stall-plan-only: the eliminating and
    // sharded stacks fall back to Figure 3 lock paths, and a killed
    // combiner strands its publication list (DESIGN.md, "Acceleration
    // layer").
    {
      BatteryEntry E =
          row("eliminating-stack", {}, Stack,
              sized<EliminatingContentionSensitiveStack<>>(
                  /*SlotCount=*/1, /*SpinBudget=*/8),
              exactly({6, 6}));
      const auto Base = std::move(E.Explore);
      E.Explore = [Base] {
        Base();
        eliminationPairSpecPoint();
      };
      R.push_back(std::move(E));
    }
    R.push_back(row("combining-stack", {}, Stack, sized<CombiningStack<>>(),
                    exactly({6, 6})));
    R.push_back(row("combining-queue", {}, Queue, sized<CombiningQueue<>>(),
                    exactly({7, 7})));
    R.push_back(row("combining-deque", {}, Deque,
                    sized<CombiningDeque>(SmallLeftSlots), atMost({24, 24})));
    // The static two-shard bag: the adaptive facade at its full mask
    // with the controller off, so the mask and the epoch never move.
    R.push_back(row("sharded-stack", {}, Bag,
                    sized<AdaptiveShardedStack<2>>(
                        /*InitialShards=*/2, /*SlotCount=*/1,
                        /*SpinBudget=*/8, ShardControllerConfig{.TickOps = 0}),
                    exactly({6, 6})));
    // Adaptive facade, twice. The default controller: the mask starts at
    // one shard and widens only through op-driven grow-on-full, so this
    // row certifies that reconfiguration epochs preserve the bag's
    // answers (observable capacity is TotalCapacity from the first
    // operation, Empty spans retired shards). The churn controller (tick
    // every 4 ops, act on 8-op deltas, shrink at a 50% shortcut ratio)
    // grows AND shrinks the mask many times per round, so conservation
    // and the boundary certificates are exercised across live
    // reconfiguration epochs. AccessBound runs at the one-shard mask,
    // where a solo op is a plain Figure 3 shortcut — exactly six
    // accesses.
    R.push_back(row("adaptive-stack", {}, Bag,
                    sized<AdaptiveShardedStack<2>>(/*InitialShards=*/1,
                                                   /*SlotCount=*/1,
                                                   /*SpinBudget=*/8),
                    exactly({6, 6})));
    R.push_back(row("adaptive-stack-churn", {}, Bag,
                    sized<AdaptiveShardedStack<2>>(
                        /*InitialShards=*/2, /*SlotCount=*/1,
                        /*SpinBudget=*/8,
                        ShardControllerConfig{.TickOps = 4,
                                              .MinDeltaOps = 8,
                                              .GrowLockRatio = 0.01,
                                              .ShrinkShortcutRatio = 0.5}),
                    exactly({6, 6})));

    // Ordered maps, bounds in solo() order: fresh insert, get, update,
    // erase. The cs-map's slow path is a per-region RAII lock, so its
    // stress-crash coverage is stall-plan-only like every Figure 3 row;
    // the extra sweep crashes only shortcut shapes, which never hold a
    // lock (mapCrashSweep's banner states the boundary).
    R.push_back(row("cs-map", {"ContentionSensitiveMap.h", "SkipListCore.h"},
                    MapShape(), sized<ContentionSensitiveMap<>>(MapRegions),
                    exactly({11, 9, 11, 11}), ownSweep(mapCrashSweep)));
    R.push_back(row("locked-map", {"LockedMap.h"}, MapShape(),
                    sized<LockedMap<>>(), atMost({16, 16, 16, 16})));
    return R;
  }();
  return Registry;
}

} // namespace conformance
} // namespace csobj

#endif // CSOBJ_TESTS_CONFORMANCE_BATTERY_H
