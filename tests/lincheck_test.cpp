//===- tests/lincheck_test.cpp - Linearizability checker tests -----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the checker and the sequential specifications on
/// hand-built histories with known verdicts. The checker's use as the
/// oracle over real concurrent runs of every stack and queue (the
/// paper's safety property — linearizability — checked mechanically)
/// lives in the conformance battery's LincheckStress, Chaos and
/// CrashOrStall cells (tests/conformance/Battery.h).
///
//===----------------------------------------------------------------------===//

#include "lincheck/Checker.h"
#include "lincheck/History.h"
#include "lincheck/Spec.h"

#include <gtest/gtest.h>

#include <cstdint>

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
// LinearDequeSpec end-discipline
//===----------------------------------------------------------------------===

TEST(DequeSpecTest, PlainPushAndPopAreRejected) {
  // The deque spec only speaks the four end-qualified codes; an adapter
  // that records a plain Push/Pop against it is a harness bug and must be
  // rejected outright, not silently folded onto one end.
  LinearDequeSpec Spec(4, 2);
  EXPECT_FALSE(
      Spec.apply(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1)));
  EXPECT_FALSE(
      Spec.apply(makeOp(0, OpCode::Pop, 0, ResCode::Empty, 0, 2, 3)));
}

TEST(DequeSpecTest, CheckerRejectsPlainPushHistoryAgainstDequeSpec) {
  History H;
  H.Ops.push_back(makeOp(0, OpCode::Push, 1, ResCode::Done, 0, 0, 1));
  EXPECT_FALSE(checkLinearizable(H, LinearDequeSpec(2, 1)).Linearizable);
}

//===----------------------------------------------------------------------===
// FetchAddSpec: answers in real-time order
//===----------------------------------------------------------------------===

TEST(FetchAddSpecTest, AnswersMustFollowRealTimeOrder) {
  // Two sequential unit adds: the first must answer 1, the second 2.
  // The swapped answers are the same set {1, 2}, which a sorted-returns
  // check accepts; the spec must not.
  const auto Add = [](std::uint32_t Tid, std::uint32_t Sum,
                      std::uint64_t Invoke, std::uint64_t Response) {
    return makeOp(Tid, OpCode::FetchAdd, 1, ResCode::Value, Sum, Invoke,
                  Response);
  };
  History InOrder;
  InOrder.Ops = {Add(0, 1, 0, 1), Add(1, 2, 2, 3)};
  EXPECT_TRUE(checkLinearizable(InOrder, FetchAddSpec()).Linearizable);

  History Swapped;
  Swapped.Ops = {Add(0, 2, 0, 1), Add(1, 1, 2, 3)};
  EXPECT_FALSE(checkLinearizable(Swapped, FetchAddSpec()).Linearizable);

  // Overlapping, either order linearizes.
  Swapped.Ops[1].InvokeNs = 0;
  EXPECT_TRUE(checkLinearizable(Swapped, FetchAddSpec()).Linearizable);
}

} // namespace
} // namespace csobj
