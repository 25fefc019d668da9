//===- tests/lincheck_test.cpp - Linearizability checker tests -----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First validates the checker itself on hand-built histories with known
/// verdicts, then uses it as the oracle over real concurrent runs of
/// every stack and queue implementation in the library (the paper's
/// safety property — linearizability — checked mechanically).
///
//===----------------------------------------------------------------------===//

#include "HistoryRecording.h"

#include "lincheck/Checker.h"
#include "lincheck/History.h"
#include "lincheck/Spec.h"

#include "baselines/EliminationBackoffStack.h"
#include "baselines/LockedStack.h"
#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
#include "core/AbortableQueue.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "core/NonBlockingQueue.h"
#include "core/NonBlockingStack.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace csobj {
namespace {

Operation makeOp(std::uint32_t Tid, OpCode Code, std::uint32_t Arg,
                 ResCode Result, std::uint32_t Ret, std::uint64_t Invoke,
                 std::uint64_t Response) {
  Operation Op;
  Op.Tid = Tid;
  Op.Code = Code;
  Op.Arg = Arg;
  Op.Result = Result;
  Op.RetValue = Ret;
  Op.InvokeNs = Invoke;
  Op.ResponseNs = Response;
  return Op;
}

//===----------------------------------------------------------------------===
// Checker on known histories
//===----------------------------------------------------------------------===

TEST(CheckerTest, EmptyHistoryIsLinearizable) {
  History H;
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, SequentialHistoryIsLinearizable) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Push, 2, ResCode::Done, 0, 2, 3));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 4, 5));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 6, 7));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Empty, 0, 8, 9));
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, WrongPopOrderIsNotLinearizable) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Push, 2, ResCode::Done, 0, 2, 3));
  // FIFO answer from a stack: impossible.
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 4, 5));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 6, 7));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, SameHistoryLinearizableAsQueue) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Push, 2, ResCode::Done, 0, 2, 3));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 4, 5));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 6, 7));
  EXPECT_TRUE(checkLinearizable(H, BoundedQueueSpec(4)).Linearizable);
}

TEST(CheckerTest, OverlappingOpsMayReorder) {
  History H;
  // Two overlapping pushes, then pops that only fit one push order.
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 10));
  H.Ops.push_back(makeOp(1, OpCode::Push, 2, ResCode::Done, 0, 0, 10));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 11, 12));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 13, 14));
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, RealTimeOrderIsRespected) {
  History H;
  // push(1) finishes before push(2) starts; pops claim 1 on top: illegal.
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(1, OpCode::Push, 2, ResCode::Done, 0, 2, 3));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 1, 4, 5));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 2, 6, 7));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, PopEmptyOnNonEmptyStackIsIllegal) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Empty, 0, 2, 3));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, PopEmptyLegalWhenOverlappingThePush) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 10));
  H.Ops.push_back(makeOp(1, OpCode::Pop, 0, ResCode::Empty, 0, 1, 2));
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, FullAnswerRequiresFullStack) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Push, 2, ResCode::Full, 0, 2, 3));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(2)).Linearizable);
  // With capacity 1 the same history is fine.
  EXPECT_TRUE(checkLinearizable(H, BoundedStackSpec(1)).Linearizable);
}

TEST(CheckerTest, DuplicatedPopIsCaught) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 7, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(0, OpCode::Pop, 0, ResCode::Value, 7, 2, 3));
  H.Ops.push_back(makeOp(1, OpCode::Pop, 0, ResCode::Value, 7, 2, 3));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

TEST(CheckerTest, LostPushIsCaught) {
  History H;
  // Push completes, later lone pop says empty: the push was lost.
  H.Ops.push_back(makeOp(0, OpCode::Push, 7, ResCode::Done, 0, 0, 1));
  H.Ops.push_back(makeOp(1, OpCode::Pop, 0, ResCode::Empty, 0, 5, 6));
  EXPECT_FALSE(checkLinearizable(H, BoundedStackSpec(4)).Linearizable);
}

//===----------------------------------------------------------------------===
// BoundedDequeSpec end-discipline
//===----------------------------------------------------------------------===

TEST(DequeSpecTest, PlainPushAndPopAreRejected) {
  // The deque spec only speaks the four end-qualified codes; an adapter
  // that records a plain Push/Pop against it is a harness bug and must be
  // rejected outright, not silently folded onto one end.
  BoundedDequeSpec Spec(4);
  EXPECT_FALSE(
      Spec.apply(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1)));
  EXPECT_FALSE(
      Spec.apply(makeOp(0, OpCode::Pop, 0, ResCode::Empty, 0, 2, 3)));
}

TEST(DequeSpecTest, EndQualifiedSequenceIsAccepted) {
  BoundedDequeSpec Spec(4);
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushLeft, 1, ResCode::Done, 0, 0, 1)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushRight, 2, ResCode::Done, 0, 2, 3)));
  // [1, 2]: left pop sees 1, right pop sees 2, then the deque is empty.
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PopLeft, 0, ResCode::Value, 1, 4, 5)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PopRight, 0, ResCode::Value, 2, 6, 7)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PopLeft, 0, ResCode::Empty, 0, 8, 9)));
}

TEST(DequeSpecTest, FullEdgeAtCapacity) {
  BoundedDequeSpec Spec(2);
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushLeft, 1, ResCode::Done, 0, 0, 1)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushRight, 2, ResCode::Done, 0, 2, 3)));
  // At capacity: Done is illegal, Full is the only legal answer.
  EXPECT_FALSE(
      Spec.apply(makeOp(0, OpCode::PushLeft, 3, ResCode::Done, 0, 4, 5)));
  EXPECT_TRUE(
      Spec.apply(makeOp(0, OpCode::PushRight, 3, ResCode::Full, 0, 4, 5)));
}

TEST(DequeSpecTest, CheckerRejectsPlainPushHistoryAgainstDequeSpec) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  EXPECT_FALSE(checkLinearizable(H, BoundedDequeSpec(2)).Linearizable);
}

//===----------------------------------------------------------------------===
// Oracle over real concurrent executions
//===----------------------------------------------------------------------===

/// Runs Rounds independent rounds. Each round constructs a fresh object
/// via MakeObject, runs Threads x OpsPerThread random operations through
/// Apply(Object, Tid, IsPush, Value, Recorder) — which records every
/// non-bottom completion — and checks the merged history against a fresh
/// spec (the object and the spec both start empty each round).
template <typename MakeObjFn, typename ApplyFn, typename SpecT>
void runAndCheck(std::uint32_t Threads, std::uint32_t OpsPerThread,
                 std::uint32_t Rounds, MakeObjFn MakeObject, ApplyFn Apply,
                 SpecT MakeSpec) {
  for (std::uint32_t Round = 0; Round < Rounds; ++Round) {
    auto Object = MakeObject();
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Recorders.emplace_back(T);
    SpinBarrier Barrier(Threads);
    std::vector<std::thread> Workers;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        SplitMix64 Rng(Round * 1000 + T);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
          const bool IsPush = Rng.chance(1, 2);
          const auto V =
              static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
          Apply(*Object, T, IsPush, V, Recorders[T]);
        }
      });
    for (auto &W : Workers)
      W.join();
    const History H = mergeHistories(Recorders);
    ASSERT_TRUE(H.wellFormed());
    const CheckResult Result = checkLinearizable(H, MakeSpec());
    ASSERT_FALSE(Result.HitSearchCap) << "inconclusive check";
    ASSERT_TRUE(Result.Linearizable) << Result.FailureNote;
  }
}

TEST(LincheckStress, AbortableStackLinearizesAndAbortsHaveNoEffect) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<AbortableStack<>>(4); },
      [](AbortableStack<> &Stack, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Stack.weakPush(V), V, T0);
        else
          recordPop(Rec, Stack.weakPop(), T0);
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, NonBlockingStackLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<NonBlockingStack<>>(4); },
      [](NonBlockingStack<> &Stack, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Stack.push(V), V, T0);
        else
          recordPop(Rec, Stack.pop(), T0);
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, ContentionSensitiveStackLinearizes) {
  runAndCheck(
      3, 6, 40,
      [] { return std::make_unique<ContentionSensitiveStack<>>(3, 4); },
      [](ContentionSensitiveStack<> &Stack, std::uint32_t Tid, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Stack.push(Tid, V), V, T0);
        else
          recordPop(Rec, Stack.pop(Tid), T0);
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, AbortableQueueLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<AbortableQueue<>>(4); },
      [](AbortableQueue<> &Queue, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Queue.weakEnqueue(V), V, T0);
        else
          recordPop(Rec, Queue.weakDequeue(), T0);
      },
      [] { return BoundedQueueSpec(4); });
}

TEST(LincheckStress, NonBlockingQueueLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<NonBlockingQueue<>>(4); },
      [](NonBlockingQueue<> &Queue, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Queue.enqueue(V), V, T0);
        else
          recordPop(Rec, Queue.dequeue(), T0);
      },
      [] { return BoundedQueueSpec(4); });
}

TEST(LincheckStress, ContentionSensitiveQueueLinearizes) {
  runAndCheck(
      3, 6, 40,
      [] { return std::make_unique<ContentionSensitiveQueue<>>(3, 4); },
      [](ContentionSensitiveQueue<> &Queue, std::uint32_t Tid, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Queue.enqueue(Tid, V), V, T0);
        else
          recordPop(Rec, Queue.dequeue(Tid), T0);
      },
      [] { return BoundedQueueSpec(4); });
}

TEST(LincheckStress, TreiberStackLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<TreiberStack>(4); },
      [](TreiberStack &Stack, std::uint32_t, bool IsPush, std::uint32_t V,
         HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Stack.push(V), V, T0);
        else
          recordPop(Rec, Stack.pop(), T0);
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, EliminationStackLinearizes) {
  runAndCheck(
      3, 6, 40,
      [] {
        return std::make_unique<EliminationBackoffStack>(4, /*SlotCount=*/2,
                                                         /*SpinBudget=*/16);
      },
      [](EliminationBackoffStack &Stack, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Stack.push(V), V, T0);
        else
          recordPop(Rec, Stack.pop(), T0);
      },
      [] { return BoundedStackSpec(4); });
}

TEST(LincheckStress, MichaelScottQueueLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<MichaelScottQueue>(4); },
      [](MichaelScottQueue &Queue, std::uint32_t, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Queue.enqueue(V), V, T0);
        else
          recordPop(Rec, Queue.dequeue(), T0);
      },
      [] { return BoundedQueueSpec(4); });
}

TEST(LincheckStress, LockedStackLinearizes) {
  runAndCheck(
      3, 6, 40, [] { return std::make_unique<LockedStack<>>(3, 4); },
      [](LockedStack<> &Stack, std::uint32_t Tid, bool IsPush,
         std::uint32_t V, HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          recordPush(Rec, Stack.push(Tid, V), V, T0);
        else
          recordPop(Rec, Stack.pop(Tid), T0);
      },
      [] { return BoundedStackSpec(4); });
}

} // namespace
} // namespace csobj
