//===- tests/obs_test.cpp - Path-attributed metrics unit tests -----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for src/obs/PathCounters.h: the MetricSink counter blocks,
// the PathSnapshot conservation laws, and deterministic path attribution
// through real objects (solo operations are Shortcuts; forced rescues
// book Eliminated; concurrent stress conserves at quiesce). Every
// expectation that reads a nonzero counter is gated on
// obs::MetricsEnabled so the suite also passes under -DCSOBJ_NO_METRICS,
// where the same tests instead prove the sink is inert.
//
//===----------------------------------------------------------------------===//

#include "core/ContentionSensitiveStack.h"
#include "obs/PathCounters.h"
#include "perf/EliminatingStack.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// MetricSink: per-thread blocks, snapshot aggregation, lastPath, reset
//===----------------------------------------------------------------------===

TEST(MetricSink, CountsPerThreadAndAggregates) {
  obs::MetricSink Sink(3);
  Sink.onOp(0);
  Sink.onPath(0, obs::Path::Shortcut);
  Sink.onOp(2);
  Sink.onPath(2, obs::Path::Lock);
  Sink.onEvent(2, obs::Event::ShortcutAbort);
  Sink.onEvent(2, obs::Event::ProtectedRetry, 3);

  const obs::PathSnapshot S = Sink.snapshot();
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.Ops, 2u);
    EXPECT_EQ(S.path(obs::Path::Shortcut), 1u);
    EXPECT_EQ(S.path(obs::Path::Lock), 1u);
    EXPECT_EQ(S.path(obs::Path::Eliminated), 0u);
    EXPECT_EQ(S.event(obs::Event::ShortcutAbort), 1u);
    EXPECT_EQ(S.event(obs::Event::ProtectedRetry), 3u);
    EXPECT_TRUE(S.conserves());
  } else {
    // Compiled out: the sink swallows everything.
    EXPECT_EQ(S.Ops, 0u);
    EXPECT_EQ(S.pathTotal(), 0u);
    EXPECT_TRUE(S.conserves());
  }
}

TEST(MetricSink, LastPathTracksPerThread) {
  obs::MetricSink Sink(2);
  EXPECT_EQ(Sink.lastPath(0), obs::Path::None);
  EXPECT_EQ(Sink.lastPath(1), obs::Path::None);
  Sink.onPath(0, obs::Path::Shortcut);
  Sink.onPath(1, obs::Path::Degraded);
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(Sink.lastPath(0), obs::Path::Shortcut);
    EXPECT_EQ(Sink.lastPath(1), obs::Path::Degraded);
    Sink.onPath(0, obs::Path::Lock);
    EXPECT_EQ(Sink.lastPath(0), obs::Path::Lock);
    EXPECT_EQ(Sink.lastPath(1), obs::Path::Degraded)
        << "thread 1's last path must not be disturbed by thread 0";
  } else {
    EXPECT_EQ(Sink.lastPath(0), obs::Path::None);
  }
}

TEST(MetricSink, ResetZeroesEverything) {
  obs::MetricSink Sink(2);
  Sink.onOp(0);
  Sink.onPath(0, obs::Path::Shortcut);
  Sink.onEvent(1, obs::Event::CombinerBatch, 5);
  Sink.reset();
  const obs::PathSnapshot S = Sink.snapshot();
  EXPECT_EQ(S.Ops, 0u);
  EXPECT_EQ(S.pathTotal(), 0u);
  for (unsigned I = 0; I < obs::NumEvents; ++I)
    EXPECT_EQ(S.Events[I], 0u);
  EXPECT_EQ(Sink.lastPath(0), obs::Path::None);
}

TEST(MetricSink, ConcurrentIncrementsSumExactly) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint64_t PerThread = 20000;
  obs::MetricSink Sink(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint64_t I = 0; I < PerThread; ++I) {
        Sink.onOp(T);
        Sink.onPath(T, obs::Path::Shortcut);
      }
    });
  for (auto &W : Workers)
    W.join();
  const obs::PathSnapshot S = Sink.snapshot();
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.Ops, Threads * PerThread);
    EXPECT_EQ(S.path(obs::Path::Shortcut), Threads * PerThread);
  }
  EXPECT_TRUE(S.conserves());
}

TEST(MetricSink, MidRunSnapshotsBracketRetiredOps) {
  // Regression: snapshot() read each block's Ops before its path
  // counters, so an op completing between the two reads showed up as
  // retired but not entered, and the soak's per-window bound failed
  // spuriously. A reader now snapshots while three workers book ops:
  // no snapshot retires more than it entered, and the ops entered by
  // the first read but not retired are at most one per worker.
  constexpr std::uint32_t Threads = 3;
  constexpr std::uint64_t PerThread = 200000;
  obs::MetricSink Sink(Threads);
  SpinBarrier Barrier(Threads + 1);
  std::atomic<std::uint32_t> Running{Threads};
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint64_t I = 0; I < PerThread; ++I) {
        Sink.onOp(T);
        Sink.onPath(T, obs::Path::Shortcut);
      }
      Running.fetch_sub(1, std::memory_order_release);
    });
  Barrier.arriveAndWait();
  std::uint64_t Snapshots = 0, Torn = 0, Overdue = 0;
  do {
    const obs::PathSnapshot S = Sink.snapshot();
    ++Snapshots;
    Torn += S.Ops < S.pathTotal();
    Overdue += S.OpsBefore > S.pathTotal() + Threads;
  } while (Running.load(std::memory_order_acquire) != 0);
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Torn, 0u) << "of " << Snapshots << " mid-run snapshots";
  EXPECT_EQ(Overdue, 0u) << "of " << Snapshots << " mid-run snapshots";
  const obs::PathSnapshot Final = Sink.snapshot();
  EXPECT_TRUE(Final.conserves());
  EXPECT_EQ(Final.OpsBefore, Final.Ops);
}

//===----------------------------------------------------------------------===
// PathSnapshot: conservation-law algebra and accumulation
//===----------------------------------------------------------------------===

TEST(PathSnapshot, ConservationLawsHoldAndBreak) {
  obs::PathSnapshot S;
  EXPECT_TRUE(S.conserves()) << "the empty snapshot trivially conserves";

  // A well-formed mixed execution: 10 ops, 6 shortcut, 2 eliminated
  // (one pairing), 1 lock, 1 degraded caused by one doorway timeout.
  S.Ops = 10;
  S.Paths[static_cast<unsigned>(obs::Path::Shortcut)] = 6;
  S.Paths[static_cast<unsigned>(obs::Path::Eliminated)] = 2;
  S.Paths[static_cast<unsigned>(obs::Path::Lock)] = 1;
  S.Paths[static_cast<unsigned>(obs::Path::Degraded)] = 1;
  S.Events[static_cast<unsigned>(obs::Event::EliminatedPush)] = 1;
  S.Events[static_cast<unsigned>(obs::Event::EliminatedPop)] = 1;
  S.Events[static_cast<unsigned>(obs::Event::DoorwayTimeout)] = 1;
  EXPECT_EQ(S.pathTotal(), 10u);
  EXPECT_TRUE(S.conserves());

  // Each law individually broken must be caught.
  obs::PathSnapshot Lost = S;
  Lost.Ops = 11; // one entered op never retired
  EXPECT_FALSE(Lost.conserves());

  obs::PathSnapshot Unpaired = S;
  Unpaired.Events[static_cast<unsigned>(obs::Event::EliminatedPop)] = 0;
  EXPECT_FALSE(Unpaired.conserves());

  obs::PathSnapshot Causeless = S;
  Causeless.Events[static_cast<unsigned>(obs::Event::DoorwayTimeout)] = 0;
  EXPECT_FALSE(Causeless.conserves());
}

TEST(PathSnapshot, AccumulationSumsFieldwise) {
  obs::PathSnapshot A;
  A.Ops = 3;
  A.Paths[static_cast<unsigned>(obs::Path::Shortcut)] = 3;
  obs::PathSnapshot B;
  B.Ops = 2;
  B.Paths[static_cast<unsigned>(obs::Path::Lock)] = 2;
  B.Events[static_cast<unsigned>(obs::Event::ProtectedRetry)] = 4;
  A += B;
  EXPECT_EQ(A.Ops, 5u);
  EXPECT_EQ(A.path(obs::Path::Shortcut), 3u);
  EXPECT_EQ(A.path(obs::Path::Lock), 2u);
  EXPECT_EQ(A.event(obs::Event::ProtectedRetry), 4u);
  EXPECT_TRUE(A.conserves());
}

TEST(PathSnapshot, PathNamesAreStable) {
  // JSON field names derive from these; renaming one breaks every
  // consumer of BENCH_*.json, so pin them.
  EXPECT_STREQ(pathName(obs::Path::Shortcut), "shortcut");
  EXPECT_STREQ(pathName(obs::Path::Eliminated), "eliminated");
  EXPECT_STREQ(pathName(obs::Path::Combined), "combined");
  EXPECT_STREQ(pathName(obs::Path::Lock), "lock");
  EXPECT_STREQ(pathName(obs::Path::Degraded), "degraded");
  EXPECT_STREQ(pathName(obs::Path::None), "none");
}

//===----------------------------------------------------------------------===
// Attribution through real objects
//===----------------------------------------------------------------------===

TEST(PathAttribution, SoloOpsAreAllShortcuts) {
  ContentionSensitiveStack<> Stack(/*NumThreads=*/2, /*Capacity=*/8);
  constexpr std::uint64_t Ops = 6;
  for (std::uint32_t I = 0; I < 3; ++I)
    ASSERT_EQ(Stack.push(0, I + 1), PushResult::Done);
  for (std::uint32_t I = 0; I < 3; ++I)
    ASSERT_TRUE(Stack.pop(0).isValue());
  const obs::PathSnapshot S = Stack.pathSnapshot();
  EXPECT_TRUE(S.conserves());
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.Ops, Ops);
    EXPECT_EQ(S.path(obs::Path::Shortcut), Ops)
        << "a solo thread must never leave the six-access fast path";
    EXPECT_EQ(S.event(obs::Event::ShortcutAbort), 0u);
    EXPECT_EQ(Stack.lastPath(0), obs::Path::Shortcut);
  } else {
    EXPECT_EQ(S.Ops, 0u);
    EXPECT_EQ(Stack.lastPath(0), obs::Path::None);
  }
}

TEST(PathAttribution, ForcedRescueBooksEliminated) {
  // One rendezvous slot, generous spin budget: a pushing and a popping
  // thread in force-rescue mode meet with near certainty within a few
  // hundred rounds. Whatever mix of eliminations and fallbacks occurs,
  // the conservation laws must hold at quiesce.
  EliminatingContentionSensitiveStack<> S(/*NumThreads=*/2, /*Capacity=*/64,
                                          /*SlotCount=*/1,
                                          /*SpinBudget=*/4096);
  S.rescue().forceFirstForTesting(true);
  constexpr std::uint32_t Rounds = 400;
  SpinBarrier Barrier(2);
  std::thread Pusher([&] {
    Barrier.arriveAndWait();
    for (std::uint32_t I = 0; I < Rounds; ++I)
      (void)S.push(0, I + 1);
  });
  std::thread Popper([&] {
    Barrier.arriveAndWait();
    for (std::uint32_t I = 0; I < Rounds; ++I)
      (void)S.pop(1);
  });
  Pusher.join();
  Popper.join();

  const obs::PathSnapshot Snap = S.pathSnapshot();
  EXPECT_TRUE(Snap.conserves());
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(Snap.Ops, 2u * Rounds);
    EXPECT_GT(Snap.path(obs::Path::Eliminated), 0u)
        << "force-rescue on a single slot should pair at least once in "
        << Rounds << " rounds";
    EXPECT_EQ(Snap.event(obs::Event::EliminatedPush),
              Snap.event(obs::Event::EliminatedPop));
  }
}

TEST(PathAttribution, ConcurrentStressConservesAtQuiesce) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint64_t PerThread = 2000;
  ContentionSensitiveStack<> Stack(Threads, /*Capacity=*/64);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(0x0B5E55ull + T);
      Barrier.arriveAndWait();
      for (std::uint64_t I = 0; I < PerThread; ++I) {
        if (Rng.chance(1, 2))
          (void)Stack.push(T, static_cast<std::uint32_t>(I + 1));
        else
          (void)Stack.pop(T);
      }
    });
  for (auto &W : Workers)
    W.join();
  const obs::PathSnapshot S = Stack.pathSnapshot();
  EXPECT_TRUE(S.conserves())
      << "ops=" << S.Ops << " pathTotal=" << S.pathTotal();
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.Ops, Threads * PerThread);
    // Under real contention some operations must have left the fast
    // path; the breakdown is the observable the layer exists to expose.
    EXPECT_EQ(S.path(obs::Path::Shortcut) + S.path(obs::Path::Lock) +
                  S.path(obs::Path::Eliminated),
              Threads * PerThread);
  }
}

} // namespace
} // namespace csobj
