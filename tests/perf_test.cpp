//===- tests/perf_test.cpp - Acceleration layer unit tests ---------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for src/perf/ beyond what the conformance battery covers:
// the elimination slot machine driven through directed schedules, the
// flat-combining publication protocol, the sharded stack's boundary
// answers, the solo access-count regressions for every accelerated
// object (the 6-access claim must survive acceleration), and the
// static false-sharing audit of every new hot word.
//
//===----------------------------------------------------------------------===//

#include "baselines/EliminationBackoffStack.h"
#include "baselines/LockedMap.h"
#include "core/AbortableStack.h"
#include "core/CrashTolerantStack.h"
#include "core/SkipListCore.h"
#include "core/TimestampBoost.h"
#include "faults/FaultInjector.h"
#include "faults/FaultPlan.h"
#include "locks/LeasedLock.h"
#include "locks/RecoverableArbiter.h"
#include "locks/RoundRobinArbiter.h"
#include "locks/StarvationFreeLock.h"
#include "locks/TicketLock.h"
#include "memory/AccessCounter.h"
#include "memory/HazardDomain.h"
#include "perf/AdaptiveShardedStack.h"
#include "perf/CombiningObjects.h"
#include "perf/EliminatingStack.h"
#include "perf/EliminationArray.h"
#include "perf/ShardController.h"
#include "runtime/SpinBarrier.h"
#include "sched/InterleaveScheduler.h"
#include "support/CacheLine.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// False-sharing audit (satellite of the CacheLinePadded sweep): every hot
// word the acceleration layer adds must own its cache line(s).
//===----------------------------------------------------------------------===

static_assert(occupiesWholeCacheLines<EliminationArray::PaddedSlot>,
              "elimination slots must not share cache lines");
static_assert(
    occupiesWholeCacheLines<CombiningSlowPath<>::Record>,
    "combiner publication records must not share cache lines");
// The skeleton-shared words (CONTENTION, CombinerBusy, the arbiter's TURN
// and FLAG[] elements) all use CacheLinePadded; pin the predicate on the
// element type they share.
static_assert(occupiesWholeCacheLines<CacheLinePadded<
                  AtomicRegister<std::uint8_t, DefaultRegisterPolicy>>>,
              "padded register elements must round up to full lines");
static_assert(occupiesWholeCacheLines<AdaptiveShardedStack<2>::TickSlot>,
              "per-thread tick slots must not share cache lines");

TEST(FalseSharing, AdjacentEliminationSlotsAreLineDisjoint) {
  EliminationArray A(/*SlotCount=*/4, /*SpinBudget=*/4);
  // The static_asserts above make adjacent array elements line-disjoint;
  // double-check the runtime layout of the slot type.
  EXPECT_EQ(sizeof(EliminationArray::PaddedSlot) % CacheLineSize, 0u);
  EXPECT_GE(alignof(EliminationArray::PaddedSlot), CacheLineSize);
}

//===----------------------------------------------------------------------===
// EliminationArray: the slot machine under directed schedules
//===----------------------------------------------------------------------===

TEST(EliminationArray, SoloGiveWithdraws) {
  EliminationArray A(1, /*SpinBudget=*/4);
  const bool Matched = A.tryGive(7, 0, [] { return true; });
  EXPECT_FALSE(Matched) << "no partner: the giver must withdraw";
  EXPECT_EQ(A.exchangesForTesting(), 0u);
  // The slot is usable again after the withdrawal.
  EXPECT_FALSE(A.tryTake(0, [] { return true; }).has_value());
}

TEST(EliminationArray, SoloTakeWithdraws) {
  EliminationArray A(1, /*SpinBudget=*/4);
  EXPECT_FALSE(A.tryTake(0, [] { return true; }).has_value());
  EXPECT_EQ(A.exchangesForTesting(), 0u);
}

/// Directed rendezvous: the taker parks (slot read + park C&S), then the
/// giver runs to completion (slot read, gate, match C&S), then the taker
/// drains the Done slot.
TEST(EliminationArray, DirectedPairExchanges) {
  EliminationArray A(1, /*SpinBudget=*/8);
  bool Gave = false;
  std::optional<std::uint32_t> Took;
  std::uint32_t TakerGrants = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Gave = A.tryGive(42, 0, [] { return true; }); },
       [&] { Took = A.tryTake(0, [] { return true; }); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool HasGiver =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool HasTaker =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        if (TakerGrants < 2 && HasTaker) {
          ++TakerGrants;
          return 1;
        }
        if (HasGiver)
          return 0;
        return Parked.front();
      });
  EXPECT_TRUE(Gave);
  ASSERT_TRUE(Took.has_value());
  EXPECT_EQ(*Took, 42u);
  EXPECT_EQ(A.exchangesForTesting(), 2u); // one per matched operation
}

/// Same schedule, but the matcher's gate declines: no match may happen,
/// both sides fail, and the slot returns to Empty.
TEST(EliminationArray, GateDeclineBlocksMatch) {
  EliminationArray A(1, /*SpinBudget=*/8);
  bool Gave = true;
  std::optional<std::uint32_t> Took;
  std::uint32_t TakerGrants = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Gave = A.tryGive(42, 0, [] { return false; }); },
       [&] { Took = A.tryTake(0, [] { return true; }); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool HasGiver =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool HasTaker =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        if (TakerGrants < 2 && HasTaker) {
          ++TakerGrants;
          return 1;
        }
        if (HasGiver)
          return 0;
        return Parked.front();
      });
  EXPECT_FALSE(Gave) << "gate declined: the give must not match";
  EXPECT_FALSE(Took.has_value());
  EXPECT_EQ(A.exchangesForTesting(), 0u);
  // Slot healthy afterwards.
  EXPECT_FALSE(A.tryGive(1, 0, [] { return true; }));
}

//===----------------------------------------------------------------------===
// Flat combining: publication protocol and batch accounting
//===----------------------------------------------------------------------===

/// Directed abort-into-combine: T0 is interrupted mid weak push so its
/// TOP C&S fails, diverting it into the publication list; with nobody
/// else publishing, T0 wins CombinerBusy and serves itself.
TEST(Combining, AbortedFastPathBecomesCombiner) {
  CombiningStack<> S(2, 4);
  std::optional<PushResult> Res0;
  std::optional<PushResult> Res1;
  std::uint32_t Grants0 = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Res0 = S.push(0, 1); }, [&] { Res1 = S.push(1, 2); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool Has0 =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool Has1 =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        // T0: CONTENTION read + the first 4 weak-push accesses, stopping
        // just before its TOP C&S...
        if (Grants0 < 5 && Has0) {
          ++Grants0;
          return 0;
        }
        // ...then T1 pushes to completion, invalidating T0's snapshot...
        if (Has1)
          return 1;
        // ...then T0: failed C&S -> publish -> combine -> done.
        return Parked.front();
      });
  ASSERT_TRUE(Res0.has_value());
  ASSERT_TRUE(Res1.has_value());
  EXPECT_EQ(*Res0, PushResult::Done);
  EXPECT_EQ(*Res1, PushResult::Done);
  EXPECT_EQ(S.sizeForTesting(), 2u);
  EXPECT_EQ(S.skeleton().slowPath().batchesForTesting(), 1u);
  EXPECT_EQ(S.skeleton().slowPath().combinedOpsForTesting(), 1u);
  EXPECT_FALSE(S.skeleton().contentionForTesting())
      << "combiner must lower CONTENTION before retiring";
}

/// Counter exact-sum under real threads: unit adds return each value in
/// {1..total} exactly once regardless of how often combining kicks in.
TEST(Combining, CounterExactSumUnderThreads) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t OpsPerThread = 256;
  CombiningCounter C(Threads);
  std::vector<std::vector<std::uint64_t>> Returns(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (std::uint32_t I = 0; I < OpsPerThread; ++I)
        Returns[T].push_back(C.add(T, 1));
    });
  for (auto &W : Workers)
    W.join();

  std::vector<std::uint64_t> All;
  for (const auto &Per : Returns)
    All.insert(All.end(), Per.begin(), Per.end());
  std::sort(All.begin(), All.end());
  ASSERT_EQ(All.size(), static_cast<std::size_t>(Threads) * OpsPerThread);
  for (std::size_t I = 0; I < All.size(); ++I)
    ASSERT_EQ(All[I], I + 1);
  EXPECT_EQ(C.valueForTesting(), All.size());
}

//===----------------------------------------------------------------------===
// Sharded stack: bag semantics at the boundaries
//===----------------------------------------------------------------------===

/// The static N-shard bag is the sharded facade built at its full mask
/// (InitialShards == N) with this controller: no auto-ticks, so the mask
/// and the epoch never move.
constexpr ShardControllerConfig ControllerOff{.TickOps = 0};

TEST(ShardedStack, SoloFillDrainCrossesBothEdges) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/4, ControllerOff);
  EXPECT_EQ(S.capacity(), 4u);
  EXPECT_EQ(S.shardCapacity(), 2u);
  for (std::uint32_t V = 1; V <= 4; ++V)
    EXPECT_EQ(S.push(0, V), PushResult::Done) << "value " << V;
  EXPECT_EQ(S.sizeForTesting(), 4u);
  // All shards full: the all-full double collect certifies Full.
  EXPECT_EQ(S.push(0, 5), PushResult::Full);
  EXPECT_EQ(S.push(1, 6), PushResult::Full);

  std::vector<std::uint32_t> Popped;
  for (std::uint32_t I = 0; I < 4; ++I) {
    const PopResult<std::uint32_t> R = S.pop(0);
    ASSERT_TRUE(R.isValue());
    Popped.push_back(R.value());
  }
  std::sort(Popped.begin(), Popped.end());
  EXPECT_EQ(Popped, (std::vector<std::uint32_t>{1, 2, 3, 4}))
      << "bag conservation: every pushed value popped exactly once";
  // All shards empty: the all-empty double collect certifies Empty.
  EXPECT_TRUE(S.pop(0).isEmpty());
  EXPECT_TRUE(S.pop(1).isEmpty());
}

TEST(ShardedStack, OverflowSpillsToNeighbourShard) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/4, ControllerOff);
  // All pushes from thread 0 (home shard 0): the third and fourth must
  // spill into shard 1.
  for (std::uint32_t V = 1; V <= 4; ++V)
    ASSERT_EQ(S.push(0, V), PushResult::Done);
  EXPECT_EQ(S.shard(0).sizeForTesting(), 2u);
  EXPECT_EQ(S.shard(1).sizeForTesting(), 2u);
}

TEST(ShardedStack, StressConservesElements) {
  constexpr std::uint32_t Threads = 4;
  constexpr std::uint32_t OpsPerThread = 512;
  AdaptiveShardedStack<2> S(Threads, 8, /*InitialShards=*/2,
                            /*SlotCount=*/2, /*SpinBudget=*/16,
                            ControllerOff);
  std::vector<std::int64_t> Balance(Threads, 0);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      SplitMix64 Rng(0x5AA5ull + T);
      for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
        if (Rng.chance(1, 2)) {
          const std::uint32_t V =
              static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
          if (S.push(T, V) == PushResult::Done)
            ++Balance[T];
        } else {
          if (S.pop(T).isValue())
            --Balance[T];
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  std::int64_t Net = 0;
  for (const std::int64_t B : Balance)
    Net += B;
  ASSERT_GE(Net, 0);
  EXPECT_EQ(S.sizeForTesting(), static_cast<std::uint32_t>(Net))
      << "pushes minus pops must equal the residual size";
  // The controller stayed off: a change to the control loop must not
  // start moving the static rows of E12 and E18.
  EXPECT_EQ(S.activeShards(), 2u);
  EXPECT_EQ(S.reconfigEpoch(), 0u);
  const obs::PathSnapshot Snap = S.pathSnapshot();
  EXPECT_EQ(Snap.event(obs::Event::ShardGrow), 0u);
  EXPECT_EQ(Snap.event(obs::Event::ShardShrink), 0u);
  EXPECT_EQ(Snap.event(obs::Event::GateWiden), 0u);
  EXPECT_EQ(Snap.event(obs::Event::GateNarrow), 0u);
}

//===----------------------------------------------------------------------===
// Sharded stack: the inter-shard balancer actually exchanges
//===----------------------------------------------------------------------===

/// Directed exchange through the forced balancer: the push parks its
/// value in the elimination slot, then the pop matches it — the pair
/// never touches any shard. This is the facade seam in isolation.
TEST(ShardedBalancer, ForcedDirectedPairExchanges) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/8, ControllerOff);
  S.forceBalancerForTesting(true);
  std::optional<PushResult> Pushed;
  PopResult<std::uint32_t> Popped = PopResult<std::uint32_t>::empty();
  std::uint32_t GiverGrants = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { Pushed = S.push(0, 42); }, [&] { Popped = S.pop(1); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        const bool HasGiver =
            std::find(Parked.begin(), Parked.end(), 0u) != Parked.end();
        const bool HasTaker =
            std::find(Parked.begin(), Parked.end(), 1u) != Parked.end();
        // Giver: slot read + park C&S, leaving 42 waiting in the slot...
        if (GiverGrants < 2 && HasGiver) {
          ++GiverGrants;
          return 0;
        }
        // ...then the taker matches it (slot read, gate read, pair C&S).
        if (HasTaker)
          return 1;
        return Parked.front();
      });
  ASSERT_TRUE(Pushed.has_value());
  EXPECT_EQ(*Pushed, PushResult::Done);
  ASSERT_TRUE(Popped.isValue());
  EXPECT_EQ(Popped.value(), 42u);
  EXPECT_EQ(S.eliminationExchangesForTesting(), 2u)
      << "one exchange per matched operation";
  EXPECT_EQ(S.sizeForTesting(), 0u) << "the pair bypassed every shard";
  if constexpr (obs::MetricsEnabled) {
    const obs::PathSnapshot Snap = S.pathSnapshot();
    EXPECT_EQ(Snap.Ops, 2u);
    EXPECT_EQ(Snap.path(obs::Path::Eliminated), 2u);
    EXPECT_TRUE(Snap.conserves());
  }
}

/// Directed exchange through the *rescue-window* seam — the production
/// balancer path, no test knob: T2's completed pop invalidates both
/// T0's pop snapshot and T1's push snapshot; T1's failed shortcut parks
/// its value in the slot via the rescue window, and T0's failed
/// shortcut takes it via its own rescue window. Mid-bag load (neither
/// full nor empty), so the old boundary-only seam would never fire —
/// this is the regression test for the E12 "0 exchanges" finding.
TEST(ShardedBalancer, RescueWindowDirectedPairExchanges) {
  AdaptiveShardedStack<1> S(3, 4, /*InitialShards=*/1, /*SlotCount=*/1,
                            /*SpinBudget=*/8, ControllerOff);
  ASSERT_EQ(S.push(0, 5), PushResult::Done);
  ASSERT_EQ(S.push(0, 6), PushResult::Done);
  PopResult<std::uint32_t> Pop0 = PopResult<std::uint32_t>::empty();
  std::optional<PushResult> Push1;
  PopResult<std::uint32_t> Pop2 = PopResult<std::uint32_t>::empty();
  std::uint32_t Grants0 = 0;
  std::uint32_t Grants1 = 0;
  InterleaveScheduler Scheduler(3);
  Scheduler.run(
      {[&] { Pop0 = S.pop(0); }, [&] { Push1 = S.push(1, 9); },
       [&] { Pop2 = S.pop(2); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        auto Has = [&](std::uint32_t Tid) {
          return std::find(Parked.begin(), Parked.end(), Tid) !=
                 Parked.end();
        };
        // T0 (pop) and T1 (push) park just before their TOP C&S...
        if (Grants0 < 5 && Has(0)) {
          ++Grants0;
          return 0;
        }
        if (Grants1 < 5 && Has(1)) {
          ++Grants1;
          return 1;
        }
        // ...T2's pop completes, invalidating both snapshots...
        if (Has(2))
          return 2;
        // ...T1's C&S fails; its rescue window parks 9 in the slot
        // (failed C&S + slot read + park C&S)...
        if (Grants1 < 8 && Has(1)) {
          ++Grants1;
          return 1;
        }
        // ...T0's C&S fails; its rescue window matches (failed C&S +
        // slot read + gate read + pair C&S) and T0 runs to completion...
        if (Has(0))
          return 0;
        // ...then T1 notices Done and completes its give.
        return Parked.front();
      });
  ASSERT_TRUE(Push1.has_value());
  EXPECT_EQ(*Push1, PushResult::Done) << "push eliminated via rescue";
  ASSERT_TRUE(Pop0.isValue());
  EXPECT_EQ(Pop0.value(), 9u) << "pop received the eliminated value";
  ASSERT_TRUE(Pop2.isValue());
  EXPECT_EQ(Pop2.value(), 6u);
  EXPECT_EQ(S.eliminationExchangesForTesting(), 2u);
  EXPECT_EQ(S.sizeForTesting(), 1u)
      << "the eliminated pair must not disturb the shard";
  if constexpr (obs::MetricsEnabled) {
    const obs::PathSnapshot Snap = S.pathSnapshot();
    EXPECT_EQ(Snap.path(obs::Path::Eliminated), 2u);
    EXPECT_TRUE(Snap.conserves());
  }
}

/// The same seam on a probe that is not the home shard's: every shard
/// carries the rescue. T0's push finds its home shard 0 full and moves to
/// shard 1, where id 3's completed pop invalidates both T0's push
/// snapshot and id 1's pop snapshot; T0's failed shortcut parks its value
/// in the slot via shard 1's rescue window, and id 1's failed shortcut
/// takes it via its own. Shard 1's TOP gates the match: room there is
/// room in the bag.
TEST(ShardedBalancer, NonHomeRescueWindowPairExchanges) {
  // Ids 0 and 2 are homed on shard 0, ids 1 and 3 on shard 1.
  AdaptiveShardedStack<2> S(4, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/8, ControllerOff);
  ASSERT_EQ(S.push(0, 5), PushResult::Done);
  ASSERT_EQ(S.push(0, 6), PushResult::Done); // shard 0 is full
  ASSERT_EQ(S.push(1, 7), PushResult::Done); // shard 1 holds one
  using Top = std::vector<std::uint64_t>;
  auto Tops = [&S] {
    Top T;
    for (std::uint32_t Sh = 0; Sh < 2; ++Sh) {
      const auto F = S.shard(Sh).abortable().topForTesting();
      T.insert(T.end(), {F.Index, F.Value, F.Seq});
    }
    return T;
  };
  std::optional<PushResult> Push0;
  PopResult<std::uint32_t> Pop1 = PopResult<std::uint32_t>::empty();
  PopResult<std::uint32_t> Pop3 = PopResult<std::uint32_t>::empty();
  std::optional<Top> BeforePair;
  std::uint32_t Grants0 = 0;
  std::uint32_t Grants1 = 0;
  InterleaveScheduler Scheduler(3);
  Scheduler.run(
      {[&] { Push0 = S.push(0, 9); }, [&] { Pop1 = S.pop(1); },
       [&] { Pop3 = S.pop(3); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        auto Has = [&](std::uint32_t Tid) {
          return std::find(Parked.begin(), Parked.end(), Tid) !=
                 Parked.end();
        };
        // T0's push answers Full on shard 0 (CONTENTION read, TOP read,
        // help read and C&S), then parks just before its TOP C&S on
        // shard 1 (the same four plus the slot read)...
        if (Grants0 < 9 && Has(0)) {
          ++Grants0;
          return 0;
        }
        // ...id 1's pop parks just before its TOP C&S on shard 1...
        if (Grants1 < 5 && Has(1)) {
          ++Grants1;
          return 1;
        }
        // ...id 3's pop completes on shard 1, invalidating both...
        if (Has(2))
          return 2;
        if (!BeforePair)
          BeforePair = Tops();
        // ...T0's C&S fails; shard 1's rescue window parks 9 in the slot
        // (failed C&S + slot read + park C&S)...
        if (Grants0 < 12 && Has(0)) {
          ++Grants0;
          return 0;
        }
        // ...id 1's C&S fails; its rescue window matches (failed C&S +
        // slot read + gate read + pair C&S) and the pop completes...
        if (Has(1))
          return 1;
        // ...then T0 notices Done and completes its give.
        return Parked.front();
      });
  ASSERT_TRUE(Push0.has_value());
  EXPECT_EQ(*Push0, PushResult::Done) << "push eliminated via rescue";
  ASSERT_TRUE(Pop1.isValue());
  EXPECT_EQ(Pop1.value(), 9u) << "pop received the eliminated value";
  ASSERT_TRUE(Pop3.isValue());
  EXPECT_EQ(Pop3.value(), 7u);
  EXPECT_EQ(S.eliminationExchangesForTesting(), 2u);
  ASSERT_TRUE(BeforePair.has_value());
  EXPECT_EQ(Tops(), *BeforePair)
      << "the eliminated pair must not touch any shard's TOP";
  EXPECT_TRUE(S.pathSnapshot().conserves());
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.pathSnapshot().path(obs::Path::Eliminated), 2u);
  }
}

/// Wall-clock sanity for the same seam: chaos-injected preemption makes
/// shortcut aborts (hence rescue windows) frequent; paired push/pop
/// traffic through them must produce nonzero exchanges within a few
/// rounds — the balancer works under load, not only under direction.
TEST(ShardedBalancer, RescueWindowExchangesUnderChaosLoad) {
  for (std::uint32_t Round = 0; Round < 20; ++Round) {
    constexpr std::uint32_t Threads = 4;
    AdaptiveShardedStack<2> S(Threads, 8, /*InitialShards=*/2,
                              /*SlotCount=*/2, /*SpinBudget=*/64,
                              ControllerOff);
    FaultPlan Chaos = FaultPlan::chaos(Threads, /*YieldPermille=*/350);
    Chaos.RateSeed = 0xE11Full + Round * 31;
    FaultClock Clock;
    SpinBarrier Barrier(Threads);
    std::vector<std::thread> Workers;
    for (std::uint32_t T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        FaultScope Faults(Chaos, T, Clock);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < 400; ++I) {
          if ((T + I) % 2 == 0)
            (void)S.push(T, (I % 1000) + 1);
          else
            (void)S.pop(T);
        }
      });
    for (auto &W : Workers)
      W.join();
    EXPECT_TRUE(S.pathSnapshot().conserves());
    if (S.eliminationExchangesForTesting() > 0)
      return; // seam exercised under real threads
  }
  FAIL() << "no elimination exchange in 20 chaos rounds";
}

//===----------------------------------------------------------------------===
// Solo access-count regressions: acceleration must not tax the fast path
//===----------------------------------------------------------------------===

TEST(SoloAccessCounts, EliminatingStackStaysAtSix) {
  EliminatingContentionSensitiveStack<> S(2, 4);
  EXPECT_EQ(countAccesses([&] { (void)S.push(0, 7); }).total(), 6u);
  EXPECT_EQ(countAccesses([&] { (void)S.pop(0); }).total(), 6u);
  // Empty-pop short-circuit: 1 CONTENTION read + 3 weak accesses.
  EXPECT_EQ(countAccesses([&] { (void)S.pop(0); }).total(), 4u);
}

TEST(SoloAccessCounts, CombiningObjectsMatchFigureThree) {
  CombiningStack<> S(2, 4);
  EXPECT_EQ(countAccesses([&] { (void)S.push(0, 7); }).total(), 6u);
  EXPECT_EQ(countAccesses([&] { (void)S.pop(0); }).total(), 6u);
  CombiningQueue<> Q(2, 4);
  EXPECT_EQ(countAccesses([&] { (void)Q.enqueue(0, 7); }).total(), 7u);
  EXPECT_EQ(countAccesses([&] { (void)Q.dequeue(0); }).total(), 7u);
  CombiningCounter C(2);
  EXPECT_EQ(countAccesses([&] { (void)C.add(0, 1); }).total(), 3u);
}

TEST(SoloAccessCounts, ShardedStackStaysAtSix) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/4,
                            /*SpinBudget=*/64, ControllerOff);
  EXPECT_EQ(countAccesses([&] { (void)S.push(0, 7); }).total(), 6u);
  EXPECT_EQ(countAccesses([&] { (void)S.pop(0); }).total(), 6u);
}

//===----------------------------------------------------------------------===
// Constructor hard checks: bad geometry must throw, not assert (satellite
// audit — an NDEBUG build used to strip these checks entirely)
//===----------------------------------------------------------------------===

TEST(CtorChecks, ShardedFacadesRejectBadGeometry) {
  // Capacity not divisible across shards.
  EXPECT_THROW(AdaptiveShardedStack<2>(2, 5), std::invalid_argument);
  // Zero capacity per shard.
  EXPECT_THROW(AdaptiveShardedStack<4>(2, 0), std::invalid_argument);
  // Initial mask outside [1, MaxShards].
  EXPECT_THROW(AdaptiveShardedStack<2>(2, 4, /*InitialShards=*/0),
               std::invalid_argument);
  EXPECT_THROW(AdaptiveShardedStack<2>(2, 4, /*InitialShards=*/3),
               std::invalid_argument);
  // Zero elimination slots: the first rendezvous would pick a slot
  // modulo zero.
  EXPECT_THROW(AdaptiveShardedStack<2>(2, 4, /*InitialShards=*/1,
                                       /*SlotCount=*/0),
               std::invalid_argument);
}

TEST(CtorChecks, CoreAndBaselineCtorsRejectBadGeometry) {
  // The same audit applied to the other validating constructors: the
  // skip list must reject before sizing its directory (a capacity at the
  // index-space limit would otherwise allocate gigabytes then corrupt
  // links), and the locked baseline must reject a zero-process guard.
  EXPECT_THROW(SkipListCore<>(0, 8), std::invalid_argument);
  EXPECT_THROW(SkipListCore<>(2, SkipListCore<>::NilIdx),
               std::invalid_argument);
  EXPECT_THROW(LockedMap<>(0, 8), std::invalid_argument);
  // Every strong-operation skeleton rejects a zero process count before
  // sizing its doorway, lock or records: an assert alone vanishes under
  // NDEBUG, where the object would construct and its first operation
  // would index past the empty per-process arrays.
  EXPECT_THROW(ContentionSensitive<>(0), std::invalid_argument);
  EXPECT_THROW(SimplifiedContentionSensitive<TicketLock>(0),
               std::invalid_argument);
  EXPECT_THROW(CrashTolerantContentionSensitive<>(0), std::invalid_argument);
  EXPECT_THROW(CombiningContentionSensitive<>(0), std::invalid_argument);
  EXPECT_THROW(ContentionSensitiveStack<>(0, 8), std::invalid_argument);
  EXPECT_THROW(CrashTolerantStack<>(0, 8), std::invalid_argument);
  // The per-process arrays behind the skeleton's slow path check their
  // own bounds. The leased lock keeps one lease note per process in a
  // fixed array of 64: a 65th process would store past its end.
  EXPECT_THROW(CrashTolerantStack<>(65, 8), std::invalid_argument);
  EXPECT_THROW(StarvationFreeLock<Leasable>(65), std::invalid_argument);
  EXPECT_THROW(LeasedLock(0), std::invalid_argument);
  EXPECT_THROW(LeasedLock(65), std::invalid_argument);
  EXPECT_NO_THROW(LeasedLock(64));
  EXPECT_THROW(SuspectSet(0), std::invalid_argument);
  EXPECT_THROW(RoundRobinArbiter(0), std::invalid_argument);
  SuspectSet Suspects(1);
  EXPECT_THROW(RecoverableArbiter(0, Suspects), std::invalid_argument);
  EXPECT_THROW(TimestampBoost(0), std::invalid_argument);
  EXPECT_THROW(HazardDomain(0, 1), std::invalid_argument);
  EXPECT_THROW(UnboundedStack<>(0), std::invalid_argument);
  // An elimination array needs a slot: with none, the first rendezvous
  // would pick one modulo zero (SIGFPE under NDEBUG).
  EXPECT_THROW(EliminatingContentionSensitiveStack<>(2, 8, /*SlotCount=*/0,
                                                     /*SpinBudget=*/8),
               std::invalid_argument);
  EXPECT_THROW(EliminationBackoffStack(8, /*SlotCount=*/0),
               std::invalid_argument);
}

//===----------------------------------------------------------------------===
// Slot-hint decorrelation: unrelated facades must not probe in lockstep
//===----------------------------------------------------------------------===

/// Each stream is observed from a FRESH thread, so the thread_local probe
/// counter restarts at zero for both instances — exactly the state in
/// which the pre-nonce implementation (one counter shared by every
/// facade) emitted identical hint streams for unrelated objects, making
/// their slot probes collide in lockstep.
TEST(SlotHints, StreamsDivergeAcrossInstances) {
  auto Collect = [](auto &S) {
    std::vector<std::uint64_t> Hints;
    std::thread Observer([&] {
      for (std::uint32_t I = 0; I < 8; ++I)
        Hints.push_back(S.slotHintForTesting(0));
    });
    Observer.join();
    return Hints;
  };
  AdaptiveShardedStack<2> A(2, 4), B(2, 4);
  EXPECT_NE(Collect(A), Collect(B))
      << "two facades probed the same slot sequence";
  EliminatingContentionSensitiveStack<> C(2, 4), D(2, 4);
  EXPECT_NE(Collect(C.rescue()), Collect(D.rescue()))
      << "two eliminating stacks probed the same slot sequence";
}

//===----------------------------------------------------------------------===
// ShardController: the control law against synthetic snapshot deltas
//===----------------------------------------------------------------------===

/// Builds a snapshot whose delta against zero retires \p Shortcut ops on
/// the shortcut path, \p Lock on the lock path and \p Eliminated on the
/// elimination path.
obs::PathSnapshot controlWindow(std::uint64_t Shortcut, std::uint64_t Lock,
                                std::uint64_t Eliminated) {
  obs::PathSnapshot S;
  S.Ops = Shortcut + Lock + Eliminated;
  S.Paths[static_cast<unsigned>(obs::Path::Shortcut)] = Shortcut;
  S.Paths[static_cast<unsigned>(obs::Path::Lock)] = Lock;
  S.Paths[static_cast<unsigned>(obs::Path::Eliminated)] = Eliminated;
  return S;
}

TEST(ShardControllerLaw, GrowsOnLockHeavyDeltaUntilFullMask) {
  ShardController Ctl;
  const ShardActions Act =
      Ctl.sample(controlWindow(900, 100, 0), /*BusyShards=*/1, /*Active=*/1,
                 /*MaxShards=*/4, /*SpinBudget=*/64);
  EXPECT_EQ(Act.Mask, ShardActions::MaskMove::Grow)
      << "a 10% lock-path window must widen the mask";
  // The same pressure at the full mask holds (nowhere to grow).
  obs::PathSnapshot Next = controlWindow(1800, 200, 0);
  EXPECT_EQ(Ctl.sample(Next, 4, 4, 4, 64).Mask, ShardActions::MaskMove::Hold);
}

TEST(ShardControllerLaw, ShrinksOnShortcutDominantDeltaToFloorOne) {
  ShardController Ctl;
  EXPECT_EQ(Ctl.sample(controlWindow(990, 10, 0), /*BusyShards=*/1,
                       /*Active=*/2, 4, 64)
                .Mask,
            ShardActions::MaskMove::Shrink)
      << "a 99% shortcut window with an idle shard must retire a shard";
  EXPECT_EQ(Ctl.sample(controlWindow(1980, 20, 0), 0, 1, 4, 64).Mask,
            ShardActions::MaskMove::Hold)
      << "the mask never shrinks below one shard";
}

TEST(ShardControllerLaw, HoldsShortcutDominantMaskWhoseEveryShardMoved) {
  ShardController Ctl;
  const ShardActions Act = Ctl.sample(controlWindow(990, 10, 0),
                                      /*BusyShards=*/2, /*Active=*/2, 4, 64);
  EXPECT_EQ(Act.Mask, ShardActions::MaskMove::Hold)
      << "a mask that keeps busy threads apart must not shrink";
  EXPECT_TRUE(Act.Consumed);
}

TEST(ShardControllerLaw, SubThresholdDeltasAccumulate) {
  ShardController Ctl; // MinDeltaOps = 64.
  const ShardActions Small = Ctl.sample(controlWindow(2, 30, 0), 1, 1, 4, 64);
  EXPECT_EQ(Small.Mask, ShardActions::MaskMove::Hold)
      << "a 32-op window is noise, not a signal";
  EXPECT_FALSE(Small.Consumed);
  EXPECT_EQ(Ctl.lastSample().Ops, 0u)
      << "an unconsumed window must keep accumulating";
  EXPECT_EQ(Ctl.sample(controlWindow(6, 90, 0), 1, 1, 4, 64).Mask,
            ShardActions::MaskMove::Grow)
      << "the accumulated 96-op window carries the decision";
  EXPECT_EQ(Ctl.lastSample().Ops, 96u);
}

TEST(ShardControllerLaw, GateTracksPairingRateWithinClampBounds) {
  ShardController Ctl;
  EXPECT_EQ(Ctl.sample(controlWindow(900, 0, 100), 1, 1, 1, 64).Gate,
            ShardActions::GateMove::Widen)
      << "a 10% pairing window doubles the spin budget";
  EXPECT_EQ(Ctl.sample(controlWindow(1800, 0, 200), 1, 1, 1, 4096).Gate,
            ShardActions::GateMove::Hold)
      << "widening clamps at MaxSpinBudget";
  EXPECT_EQ(Ctl.sample(controlWindow(2800, 0, 200), 1, 1, 1, 64).Gate,
            ShardActions::GateMove::Narrow)
      << "a pairing-free window halves the budget";
  EXPECT_EQ(Ctl.sample(controlWindow(3800, 0, 200), 1, 1, 1, 8).Gate,
            ShardActions::GateMove::Hold)
      << "narrowing clamps at MinSpinBudget";
}

//===----------------------------------------------------------------------===
// AdaptiveShardedStack: mask protocol, certificates, control loop
//===----------------------------------------------------------------------===

TEST(AdaptiveStack, GrowOnFullKeepsObservableCapacityTotal) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/1, /*SlotCount=*/1,
                            /*SpinBudget=*/4);
  EXPECT_EQ(S.capacity(), 4u);
  EXPECT_EQ(S.activeShards(), 1u);
  // Four pushes all land even though the initial mask holds two slots:
  // the third finds every active shard full and grows instead of
  // certifying.
  for (std::uint32_t V = 1; V <= 4; ++V)
    ASSERT_EQ(S.push(0, V), PushResult::Done) << "value " << V;
  EXPECT_EQ(S.activeShards(), 2u);
  EXPECT_GE(S.reconfigEpoch(), 1u);
  // Full only at the full mask, via the epoch-stable all-full witness.
  EXPECT_EQ(S.push(0, 5), PushResult::Full);
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.pathSnapshot().event(obs::Event::ShardGrow), 1u);
  }

  std::vector<std::uint32_t> Popped;
  for (std::uint32_t I = 0; I < 4; ++I) {
    const PopResult<std::uint32_t> R = S.pop(0);
    ASSERT_TRUE(R.isValue());
    Popped.push_back(R.value());
  }
  std::sort(Popped.begin(), Popped.end());
  EXPECT_EQ(Popped, (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_TRUE(S.pop(0).isEmpty());
  if constexpr (obs::MetricsEnabled) {
    EXPECT_TRUE(S.pathSnapshot().conserves());
  }
}

TEST(AdaptiveStack, ShrinkToOneRestoresSixAccessSoloBound) {
  AdaptiveShardedStack<4> S(2, 8, /*InitialShards=*/4, /*SlotCount=*/1,
                            /*SpinBudget=*/4);
  while (S.activeShards() > 1)
    ASSERT_TRUE(S.shrinkForTesting(0));
  EXPECT_FALSE(S.shrinkForTesting(0)) << "the mask floors at one shard";
  EXPECT_EQ(S.activeShards(), 1u);
  // At the one-shard mask a solo op is a plain Figure 3 shortcut: the
  // paper's exact bound, with zero adaptive tax (the mask word and tick
  // counter are configuration state, invisible to the oracle).
  EXPECT_EQ(countAccesses([&] { (void)S.push(0, 7); }).total(), 6u);
  EXPECT_EQ(countAccesses([&] { (void)S.pop(0); }).total(), 6u);
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.pathSnapshot().event(obs::Event::ShardShrink), 3u);
  }
}

TEST(AdaptiveStack, AutoTickShrinksUnderShortcutSoloLoad) {
  ShardControllerConfig Ctl;
  Ctl.TickOps = 8;
  Ctl.MinDeltaOps = 8;
  Ctl.ShrinkShortcutRatio = 0.9;
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/4, Ctl);
  // Solo alternating push/pop retires everything on the shortcut path;
  // the op-cadence tick must observe the shortcut-dominant delta and
  // retire the idle shard without any manual prod.
  for (std::uint32_t I = 0; I < 32; ++I) {
    ASSERT_EQ(S.push(0, I + 1), PushResult::Done);
    ASSERT_TRUE(S.pop(0).isValue());
  }
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.activeShards(), 1u)
        << "the control loop failed to shrink a shortcut-dominant mask";
    EXPECT_GE(S.reconfigEpoch(), 1u);
    EXPECT_GE(S.pathSnapshot().event(obs::Event::ShardShrink), 1u);
  } else {
    // Compiled-out sinks read zero, so the controller never sees a
    // window to act on: the mask and the epoch stay where they began.
    EXPECT_EQ(S.activeShards(), 2u);
    EXPECT_EQ(S.reconfigEpoch(), 0u);
  }
  EXPECT_EQ(countAccesses([&] { (void)S.push(0, 7); }).total(), 6u)
      << "solo cost must stay at the paper's bound";
}

TEST(AdaptiveStack, AutoTickHoldsMaskThatSeparatesBusyThreads) {
  ShardControllerConfig Ctl;
  Ctl.TickOps = 8;
  Ctl.MinDeltaOps = 8;
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/4, Ctl);
  // Threads 0 and 1 take turns, each on its own home shard: every op
  // takes the shortcut, and both shards complete work in every window,
  // so the mask that keeps the two apart must stay.
  for (std::uint32_t I = 0; I < 32; ++I)
    for (std::uint32_t Tid = 0; Tid < 2; ++Tid) {
      ASSERT_EQ(S.push(Tid, I + 1), PushResult::Done);
      ASSERT_TRUE(S.pop(Tid).isValue());
    }
  EXPECT_EQ(S.activeShards(), 2u)
      << "the control loop retired a shard that a busy thread was using";
  EXPECT_EQ(S.reconfigEpoch(), 0u);
  EXPECT_EQ(S.pathSnapshot().event(obs::Event::ShardShrink), 0u);
  // Thread 1 goes quiet: its shard stops moving, so the next
  // shortcut-dominant window has an idle shard to retire.
  for (std::uint32_t I = 0; I < 32; ++I) {
    ASSERT_EQ(S.push(0, I + 1), PushResult::Done);
    ASSERT_TRUE(S.pop(0).isValue());
  }
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.activeShards(), 1u)
        << "the control loop kept a shard no thread was using";
    EXPECT_EQ(S.pathSnapshot().event(obs::Event::ShardShrink), 1u);
  } else {
    EXPECT_EQ(S.activeShards(), 2u); // No signal, no ticks.
  }
  EXPECT_EQ(countAccesses([&] { (void)S.push(0, 7); }).total(), 6u)
      << "solo cost must stay at the paper's bound";
}

TEST(AdaptiveStack, TickGrowsUnderForcedLockHeavySnapshot) {
  if constexpr (!obs::MetricsEnabled)
    GTEST_SKIP() << "forged snapshots need the metric sinks";
  ShardControllerConfig Ctl;
  Ctl.TickOps = 0; // Manual ticks only.
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/1, /*SlotCount=*/1,
                            /*SpinBudget=*/4, Ctl);
  // Forge a lock-heavy window directly into the home shard's sink — the
  // controller consumes snapshot deltas, so a directed test can feed it
  // the exact signal a doorway pile-up would produce.
  obs::MetricSink &M = S.shard(0).skeleton().metrics();
  for (std::uint32_t I = 0; I < 64; ++I) {
    M.onOp(0);
    M.onPath(0, obs::Path::Lock);
  }
  S.tickForTesting(0);
  EXPECT_EQ(S.activeShards(), 2u)
      << "a 100% lock-path window must activate the second shard";
  EXPECT_EQ(S.pathSnapshot().event(obs::Event::ShardGrow), 1u);
}

TEST(AdaptiveStack, TickRetunesEliminationGateBudget) {
  if constexpr (!obs::MetricsEnabled)
    GTEST_SKIP() << "forged snapshots need the metric sinks";
  ShardControllerConfig Ctl;
  Ctl.TickOps = 0;
  Ctl.MinDeltaOps = 8;
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/1, /*SlotCount=*/1,
                            /*SpinBudget=*/64, Ctl);
  obs::MetricSink &M = S.shard(0).skeleton().metrics();
  // A pairing-rich window widens the gate...
  for (std::uint32_t I = 0; I < 16; ++I) {
    M.onOp(0);
    M.onPath(0, obs::Path::Eliminated);
  }
  S.tickForTesting(0);
  EXPECT_EQ(S.eliminationArray().spinBudget(), 128u);
  // ...and a pairing-free window narrows it back.
  for (std::uint32_t I = 0; I < 16; ++I) {
    M.onOp(0);
    M.onPath(0, obs::Path::Shortcut);
  }
  S.tickForTesting(0);
  EXPECT_EQ(S.eliminationArray().spinBudget(), 64u);
  const obs::PathSnapshot Snap = S.pathSnapshot();
  EXPECT_EQ(Snap.event(obs::Event::GateWiden), 1u);
  EXPECT_EQ(Snap.event(obs::Event::GateNarrow), 1u);
}

TEST(AdaptiveStack, StragglerInRetiredShardIsRecovered) {
  AdaptiveShardedStack<2> S(2, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                            /*SpinBudget=*/4);
  for (std::uint32_t V = 1; V <= 4; ++V)
    ASSERT_EQ(S.push(0, V), PushResult::Done);
  ASSERT_EQ(S.shard(1).sizeForTesting(), 2u);
  ASSERT_TRUE(S.shrinkForTesting(0));
  EXPECT_EQ(S.activeShards(), 1u);
  EXPECT_EQ(S.shard(1).sizeForTesting(), 2u)
      << "retirement is lazy: it must move no elements";
  // The drain probes only shard 0, but the Empty-boundary certificate
  // spans the retired shard and routes its elements back out.
  std::vector<std::uint32_t> Popped;
  for (std::uint32_t I = 0; I < 4; ++I) {
    const PopResult<std::uint32_t> R = S.pop(0);
    ASSERT_TRUE(R.isValue()) << "straggler " << I << " not recovered";
    Popped.push_back(R.value());
  }
  std::sort(Popped.begin(), Popped.end());
  EXPECT_EQ(Popped, (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_TRUE(S.pop(0).isEmpty())
      << "Empty must certify across active and retired shards";
  EXPECT_EQ(S.sizeForTesting(), 0u);
  if constexpr (obs::MetricsEnabled) {
    EXPECT_TRUE(S.pathSnapshot().conserves());
  }
}

/// Victim-crash sweep across the post-retirement drain: shrink retires a
/// shard still holding elements, then thread 0 drains under a crash plan
/// swept over every shared-access index. Solo facade pops are shortcut
/// ops and straggler pops never take a lock, so the sweep is safe; the
/// invariant is that a crash anywhere in the drain strands nothing — a
/// survivor recovers every remaining element (the crash itself may
/// swallow at most the one value in transit) and the Empty certificate
/// stays truthful.
TEST(AdaptiveStack, CrashSweepDuringRetirementDrainStrandsNothing) {
  for (std::uint64_t K = 0; K < 40; ++K) {
    AdaptiveShardedStack<2> S(3, 4, /*InitialShards=*/2, /*SlotCount=*/1,
                              /*SpinBudget=*/4);
    for (std::uint32_t V = 1; V <= 4; ++V)
      ASSERT_EQ(S.push(0, V), PushResult::Done);
    ASSERT_TRUE(S.shrinkForTesting(0));
    ASSERT_EQ(S.shard(1).sizeForTesting(), 2u);

    std::vector<std::uint32_t> Got;
    bool Crashed = false;
    {
      FaultClock Clock;
      FaultInjector Injector(FaultPlan::crashAt(0, K), 0, Clock);
      SchedHookScope Scope(Injector);
      try {
        for (std::uint32_t I = 0; I < 4; ++I) {
          const PopResult<std::uint32_t> R = S.pop(0);
          if (!R.isValue())
            break;
          Got.push_back(R.value());
        }
      } catch (const ProcessCrash &) {
        Crashed = true;
      }
    }
    // The survivor drains whatever the corpse left behind.
    while (true) {
      const PopResult<std::uint32_t> R = S.pop(1);
      if (!R.isValue())
        break;
      Got.push_back(R.value());
    }
    EXPECT_TRUE(S.pop(1).isEmpty()) << "crash at access " << K;
    EXPECT_EQ(S.sizeForTesting(), 0u)
        << "crash at access " << K << " stranded an element";
    std::sort(Got.begin(), Got.end());
    ASSERT_TRUE(std::adjacent_find(Got.begin(), Got.end()) == Got.end())
        << "crash at access " << K << " duplicated an element";
    for (const std::uint32_t V : Got)
      ASSERT_TRUE(V >= 1 && V <= 4);
    // A crash may swallow the single value in transit, never more.
    ASSERT_GE(Got.size(), Crashed ? 3u : 4u) << "crash at access " << K;
    if (!Crashed) {
      ASSERT_EQ(Got.size(), 4u);
    }
  }
}

} // namespace
} // namespace csobj
