//===- tests/crash_test.cpp - Process-crash fault injection --------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 5: "these algorithms still work despite process
/// crashes if no process crashes while holding the lock". The scheduler
/// can crash a controlled thread at *any* shared-access point (the
/// access does not execute; the prefix that ran stays in shared memory),
/// so the claim is tested at every crash point of every operation:
///
///  * Figures 1/2 and the companion queue/deque are lock-free: a process
///    crashing anywhere leaves the object fully usable — the next
///    operation's help completes any published-but-lazy write.
///  * Figure 3's fast path (lines 01-03) holds no lock: crashing there
///    is tolerated.
///  * For the *plain* Figure 3, crashing while competing (FLAG raised)
///    or holding the lock is NOT tolerated — TURN can stick on the
///    crashed process. That is the paper's own caveat.
///  * The crash-tolerant variant (CrashTolerantContentionSensitive in
///    core/ContentionSensitive.h) closes that boundary: the sweeps at
///    the bottom of this file crash a slow-path operation at EVERY one
///    of its shared-access points — including flag-raised and
///    lock-holding prefixes — and assert that a survivor always
///    completes, degrading to the lock-free fallback exactly when
///    the corpse held the lease and staying on the starvation-free path
///    otherwise. The group operations get the same sweep: a contended
///    push_all/pop_all victim is crashed at every access of its group
///    phase by a FaultPlan.
///
//===----------------------------------------------------------------------===//

#include "sched/InterleaveScheduler.h"

#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
#include "core/AbortableQueue.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveStack.h"
#include "core/CrashTolerantStack.h"
#include "core/ObstructionFreeDeque.h"
#include "faults/FaultInjector.h"
#include "faults/FaultPlan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace csobj {
namespace {

/// Runs \p Body under the scheduler, crashing it at its (K+1)-th shared
/// access (K = number of accesses that complete first). Returns the
/// number of decision points taken, so callers can discover the access
/// count by passing a huge K.
std::size_t runAndCrashAt(std::function<void()> Body, std::uint32_t K) {
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

//===----------------------------------------------------------------------===
// Figure 1: crash at every prefix of weak_push / weak_pop
//===----------------------------------------------------------------------===

TEST(CrashTest, AbortableStackSurvivesPushCrashAtEveryPoint) {
  // weak_push performs 5 accesses; crash before each and after all.
  for (std::uint32_t K = 0; K <= 5; ++K) {
    AbortableStack<> Stack(8);
    ASSERT_EQ(Stack.weakPush(1), PushResult::Done); // Pre-existing state.
    runAndCrashAt([&Stack] { (void)Stack.weakPush(7); }, K);

    // The survivor must be able to operate normally (solo: no aborts).
    ASSERT_EQ(Stack.weakPush(99), PushResult::Done);
    const auto Top = Stack.weakPop();
    ASSERT_TRUE(Top.isValue());
    ASSERT_EQ(Top.value(), 99u);
    // Next value is 7 iff the crashed push reached its TOP C&S (the
    // 5th access) — all-or-nothing, never a corrupted in-between.
    const auto Second = Stack.weakPop();
    ASSERT_TRUE(Second.isValue());
    if (K >= 5) {
      ASSERT_EQ(Second.value(), 7u);
      const auto Third = Stack.weakPop();
      ASSERT_TRUE(Third.isValue());
      ASSERT_EQ(Third.value(), 1u);
    } else {
      ASSERT_EQ(Second.value(), 1u);
    }
    ASSERT_TRUE(Stack.weakPop().isEmpty());
  }
}

TEST(CrashTest, AbortableStackSurvivesPopCrashAtEveryPoint) {
  for (std::uint32_t K = 0; K <= 5; ++K) {
    AbortableStack<> Stack(8);
    ASSERT_EQ(Stack.weakPush(1), PushResult::Done);
    ASSERT_EQ(Stack.weakPush(2), PushResult::Done);
    runAndCrashAt([&Stack] { (void)Stack.weakPop(); }, K);

    // Either the pop took effect (2 gone) or it did not — drain checks.
    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Stack.weakPop();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    if (K >= 5)
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{1}));
    else
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{2, 1}));
  }
}

//===----------------------------------------------------------------------===
// Queue and deque: crash at every prefix
//===----------------------------------------------------------------------===

TEST(CrashTest, AbortableQueueSurvivesEnqueueCrashAtEveryPoint) {
  for (std::uint32_t K = 0; K <= 6; ++K) {
    AbortableQueue<> Queue(8);
    ASSERT_EQ(Queue.weakEnqueue(1), PushResult::Done);
    runAndCrashAt([&Queue] { (void)Queue.weakEnqueue(7); }, K);

    ASSERT_EQ(Queue.weakEnqueue(99), PushResult::Done);
    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Queue.weakDequeue();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    if (K >= 6)
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{1, 7, 99}));
    else
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{1, 99}));
  }
}

TEST(CrashTest, AbortableQueueSurvivesDequeueCrashAtEveryPoint) {
  for (std::uint32_t K = 0; K <= 6; ++K) {
    AbortableQueue<> Queue(8);
    ASSERT_EQ(Queue.weakEnqueue(1), PushResult::Done);
    ASSERT_EQ(Queue.weakEnqueue(2), PushResult::Done);
    runAndCrashAt([&Queue] { (void)Queue.weakDequeue(); }, K);

    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Queue.weakDequeue();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    if (K >= 6)
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{2}));
    else
      ASSERT_EQ(Drained, (std::vector<std::uint32_t>{1, 2}));
  }
}

TEST(CrashTest, HlmDequeSurvivesPushCrashBetweenItsTwoCas) {
  // The HLM push fences a neighbour (CAS 1) before installing the value
  // (CAS 2); crashing between the two must leave only a harmless
  // counter bump. Sweep every prefix; the op's access count depends on
  // the oracle scan, so discover it first.
  ObstructionFreeDeque Probe(4, 2);
  const std::size_t Accesses =
      runAndCrashAt([&Probe] { (void)Probe.tryPushRight(7); }, 1000);
  ASSERT_GT(Accesses, 2u);

  for (std::uint32_t K = 0; K <= Accesses; ++K) {
    ObstructionFreeDeque Deque(4, 2);
    runAndCrashAt([&Deque] { (void)Deque.tryPushRight(7); }, K);
    // Survivor: solo ops never abort, state is all-or-nothing.
    const std::uint32_t Size = Deque.sizeForTesting();
    ASSERT_LE(Size, 1u);
    ASSERT_EQ(Deque.tryPushLeft(5), PushResult::Done);
    ASSERT_EQ(Deque.tryPushRight(6), PushResult::Done);
    const auto R = Deque.tryPopRight();
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), 6u);
  }
}

//===----------------------------------------------------------------------===
// Lock-free baselines
//===----------------------------------------------------------------------===

/// Pushes through \p Push until it answers Full (at most \p Capacity
/// times) and returns how many pushes landed.
template <typename PushFn>
std::uint32_t fillToFull(PushFn Push, std::uint32_t Capacity) {
  std::uint32_t Filled = 0;
  while (Filled <= Capacity && Push(100 + Filled) == PushResult::Done)
    ++Filled;
  return Filled;
}

TEST(CrashTest, TreiberSurvivesPushCrashAtEveryPoint) {
  // The structure stays consistent, and the node a crash strands is the
  // crashed process's spare (memory/IndexPool.h): the survivor still
  // fills the stack to exactly its capacity.
  for (std::uint32_t K = 0; K <= 8; ++K) {
    TreiberStack Stack(/*NumThreads=*/2, /*Capacity=*/4);
    ASSERT_EQ(Stack.push(1), PushResult::Done);
    runAndCrashAt([&Stack] { (void)Stack.push(7); }, K);

    ASSERT_EQ(Stack.push(99), PushResult::Done);
    const std::uint32_t Filled =
        fillToFull([&Stack](std::uint32_t V) { return Stack.push(V); }, 4);
    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Stack.pop();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    ASSERT_EQ(Drained.size(), 4u) << "crash point " << K;
    ASSERT_EQ(Drained[Filled], 99u);
    ASSERT_EQ(Drained.back(), 1u);
  }
}

TEST(CrashTest, MichaelScottSurvivesEnqueueCrashAtEveryPoint) {
  // Includes the classic window: crash after linking the node but
  // before swinging the tail — the next operation must help. The
  // survivor fills the queue to exactly its capacity.
  for (std::uint32_t K = 0; K <= 12; ++K) {
    MichaelScottQueue Queue(/*NumThreads=*/2, /*Capacity=*/4);
    ASSERT_EQ(Queue.enqueue(1), PushResult::Done);
    runAndCrashAt([&Queue] { (void)Queue.enqueue(7); }, K);

    ASSERT_EQ(Queue.enqueue(99), PushResult::Done);
    const std::uint32_t Filled = fillToFull(
        [&Queue](std::uint32_t V) { return Queue.enqueue(V); }, 4);
    std::vector<std::uint32_t> Drained;
    while (true) {
      const auto R = Queue.dequeue();
      if (!R.isValue())
        break;
      Drained.push_back(R.value());
    }
    ASSERT_EQ(Drained.size(), 4u) << "crash point " << K;
    ASSERT_EQ(Drained.front(), 1u);
    ASSERT_EQ(Drained[3 - Filled], 99u);
  }
}

//===----------------------------------------------------------------------===
// Figure 3: crash on the lock-free fast path is tolerated
//===----------------------------------------------------------------------===

TEST(CrashTest, Figure3SurvivesFastPathCrash) {
  // The fast path is lines 01-03: one CONTENTION read + one weak
  // attempt (6 accesses total when it succeeds). Crashing anywhere in
  // it leaves no lock held and no flag raised.
  for (std::uint32_t K = 0; K <= 6; ++K) {
    ContentionSensitiveStack<> Stack(2, 8);
    runAndCrashAt([&Stack] { (void)Stack.push(0, 7); }, K);

    // The survivor (different process id) proceeds unhindered.
    ASSERT_EQ(Stack.push(1, 99), PushResult::Done);
    const auto R = Stack.pop(1);
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), 99u);
    ASSERT_FALSE(Stack.skeleton().contentionForTesting());
  }
}

//===----------------------------------------------------------------------===
// Crash-tolerant Figure 3: crash the slow path at EVERY access point
//===----------------------------------------------------------------------===

/// Weak push whose first attempt reports bottom without touching shared
/// memory — a zero-cost deterministic detour onto the slow path, so the
/// sweep covers every doorway / lock / protected-retry access.
auto forcedSlowPush(AbortableStack<> &Stack, std::uint32_t V) {
  return [&Stack, V, Attempts = 0]() mutable -> std::optional<PushResult> {
    if (Attempts++ == 0)
      return std::nullopt;
    const PushResult R = Stack.weakPush(V);
    if (R == PushResult::Abort)
      return std::nullopt;
    return R;
  };
}

TEST(CrashTest, CrashTolerantSlowPathSurvivesCrashAtEveryPoint) {
  // Discover the slow-path access count: a full forced-slow strongApply
  // covers line 01, the doorway (04-05), the leased lock (06), the
  // protected retry (07-09), the doorway exit (10-11) and unlock (12).
  std::size_t Accesses = 0;
  {
    CrashTolerantContentionSensitive<> Probe(2, /*Patience=*/8);
    AbortableStack<> Stack(8);
    Accesses = runAndCrashAt(
        [&] { (void)Probe.strongApply(0, forcedSlowPush(Stack, 7)); },
        100000);
  }
  ASSERT_GT(Accesses, 10u); // Sanity: the slow path is well past 6.

  for (std::uint32_t K = 0; K < Accesses; ++K) {
    CrashTolerantContentionSensitive<> Skeleton(2, /*Patience=*/8);
    AbortableStack<> Stack(8);
    // Victim (process 0) runs a forced-slow push and crashes at its
    // (K+1)-th shared access. Whatever prefix ran stays behind: a raised
    // flag, a parked TURN, a held lease, a raised CONTENTION bit.
    runAndCrashAt(
        [&] { (void)Skeleton.strongApply(0, forcedSlowPush(Stack, 7)); }, K);
    auto &Lock = Skeleton.slowPath().lock();
    const bool CorpseHeldLock = Lock.inner().holderForTesting() == 1;

    // Liveness oracle: the survivor (process 1), also forced onto the
    // slow path, must complete regardless of where the victim died...
    const PushResult R = Skeleton.strongApply(1, forcedSlowPush(Stack, 99));
    ASSERT_EQ(R, PushResult::Done) << "crash point " << K;

    // ...degrading to the lock-free fallback exactly when the corpse
    // held the lease, and staying on the starvation-free protected path
    // otherwise (the acceptance criterion's "nonzero exactly in those
    // runs").
    const DegradationStats Stats = Lock.statsForTesting();
    if (CorpseHeldLock) {
      EXPECT_EQ(Stats.Degradations, 1u) << "crash point " << K;
      EXPECT_EQ(Stats.Revocations, 1u) << "crash point " << K;
      EXPECT_TRUE(Lock.suspects().isSuspectForTesting(0));
    } else {
      EXPECT_EQ(Stats.Degradations, 0u) << "crash point " << K;
      EXPECT_EQ(Stats.ProtectedOps, 1u) << "crash point " << K;
    }

    // Healing: the revocation (or clean state) leaves the lock free, so
    // one more slow operation completes protected and lowers CONTENTION;
    // the whole slow path is back to starvation-free service.
    const PushResult R2 = Skeleton.strongApply(1, forcedSlowPush(Stack, 100));
    ASSERT_EQ(R2, PushResult::Done) << "crash point " << K;
    EXPECT_GE(Lock.statsForTesting().ProtectedOps, 1u)
        << "crash point " << K;
    EXPECT_FALSE(Skeleton.contentionForTesting()) << "crash point " << K;
    EXPECT_EQ(Lock.inner().holderForTesting(), 0u)
        << "crash point " << K;

    // The values of completed pushes are all present (the victim's push
    // may or may not have landed depending on the crash point).
    std::uint32_t Seen = 0;
    while (Stack.weakPop().isValue())
      ++Seen;
    EXPECT_GE(Seen, 2u) << "crash point " << K;
  }
}

TEST(CrashTest, CrashTolerantStackSurvivesFastPathCrash) {
  // The six-access fast path of the crash-tolerant stack tolerates a
  // crash at every prefix, exactly like the plain Figure 3 stack.
  for (std::uint32_t K = 0; K <= 6; ++K) {
    CrashTolerantStack<> Stack(2, 8);
    runAndCrashAt([&Stack] { (void)Stack.push(0, 7); }, K);

    ASSERT_EQ(Stack.push(1, 99), PushResult::Done);
    const auto R = Stack.pop(1);
    ASSERT_TRUE(R.isValue());
    ASSERT_EQ(R.value(), 99u);
    ASSERT_FALSE(Stack.skeleton().contentionForTesting());
    EXPECT_EQ(
        Stack.skeleton().slowPath().lock().statsForTesting().Degradations,
        0u);
  }
}

//===----------------------------------------------------------------------===
// Crash-tolerant group operations: crash a contended batch at EVERY access
//===----------------------------------------------------------------------===

/// The victim's CONTENTION read plus the four weak-stack accesses before
/// its first TOP C&S: the victim parks there while the contender moves
/// TOP, so element 0 aborts and the whole group cuts over to the slow
/// path (one bounded acquisition of the leased lock for all of it).
constexpr std::uint32_t GroupPreCas = 5;

/// Values 1..GroupPrefill sit in the stack before each run, enough that
/// the survivor and healer groups still pop values after the victim's.
constexpr std::uint32_t GroupPrefill = 8;

/// Base picking policy for the FaultPlan: victim (0) up to its first
/// TOP C&S, then the contender (1) to completion, then the victim.
InterleaveScheduler::PickFn contendedGroupPick() {
  return [Grants0 = 0u](std::size_t,
                        const std::vector<std::uint32_t> &Parked) mutable
         -> std::uint32_t {
    auto Has = [&](std::uint32_t T) {
      return std::find(Parked.begin(), Parked.end(), T) != Parked.end();
    };
    if (Grants0 < GroupPreCas && Has(0)) {
      ++Grants0;
      return 0;
    }
    if (Has(1))
      return 1;
    return Parked.front();
  };
}

/// A survivor's group attempt: the first call draws bottom without a
/// shared access, so the group always takes the slow path (the batch
/// twin of forcedSlowPush).
template <typename AttemptFn> auto forcedSlowAt(AttemptFn Attempt) {
  return [Attempt, First = true](std::size_t I) mutable {
    if (std::exchange(First, false))
      return decltype(Attempt(I)){};
    return Attempt(I);
  };
}

/// Now - Then, field by field: the operations retired in between.
obs::PathSnapshot since(const obs::PathSnapshot &Now,
                        const obs::PathSnapshot &Then) {
  obs::PathSnapshot D = Now;
  D.Ops -= Then.Ops;
  D.OpsBefore -= Then.OpsBefore;
  for (unsigned I = 0; I < obs::NumPaths; ++I)
    D.Paths[I] -= Then.Paths[I];
  for (unsigned I = 0; I < obs::NumEvents; ++I)
    D.Events[I] -= Then.Events[I];
  for (unsigned I = 0; I < obs::NumBatchBuckets; ++I)
    D.BatchBuckets[I] -= Then.BatchBuckets[I];
  D.BatchOps -= Then.BatchOps;
  return D;
}

/// Crashes \p Victim (process 0's group operation on \p Stack, contended
/// by process 1's push of 99) at every one of its accesses. After each
/// crash process 1 runs two forced-slow groups, \p Survivor then
/// \p Healer (each Survive(Tid) returns its values in completion order),
/// and \p Check(Survivors, K) inspects what the object holds.
/// Asserted here: both groups complete, the survivor degrades exactly
/// when the corpse held the lease, the healer then completes protected
/// and leaves the lock free, and the operations retired after the crash
/// conserve while the corpse leaves at most its group in flight.
template <typename VictimFn, typename SurviveFn, typename CheckFn>
void crashTolerantGroupSweep(VictimFn Victim, SurviveFn Survive,
                             CheckFn Check) {
  std::uint32_t Crashes = 0, HeldLease = 0;
  for (std::uint64_t K = 0;; ++K) {
    ASSERT_LT(K, 400u) << "the victim's group never finished";
    CrashTolerantStack<> Stack(2, 24, /*Patience=*/8);
    for (std::uint32_t V = 1; V <= GroupPrefill; ++V)
      ASSERT_EQ(Stack.push(1, V), PushResult::Done);
    bool VictimDone = false;
    InterleaveScheduler Scheduler(2);
    Scheduler.run({[&] {
                     Victim(Stack);
                     VictimDone = true;
                   },
                   [&] { (void)Stack.push(1, 99); }},
                  faultPlanPick(FaultPlan::crashAt(0, K),
                                contendedGroupPick()));
    if (VictimDone)
      break; // K is past the victim's last access: the sweep is done.
    ++Crashes;

    auto &Skel = Stack.skeleton();
    auto &Lock = Skel.slowPath().lock();
    const bool CorpseHeldLock = Lock.inner().holderForTesting() == 1;
    HeldLease += CorpseHeldLock;
    const obs::PathSnapshot AtCrash = Stack.pathSnapshot();
    EXPECT_LE(AtCrash.Ops - AtCrash.pathTotal(), 4u)
        << "the corpse leaves at most its group in flight; crash point "
        << K;

    std::vector<std::uint32_t> Survivors = Survive(Stack);
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
    if constexpr (obs::MetricsEnabled) {
      const obs::PathSnapshot Survived =
          since(Stack.pathSnapshot(), AtCrash);
      EXPECT_EQ(Survived.path(obs::Path::Degraded), CorpseHeldLock ? 2u : 0u)
          << "crash point " << K;
    }

    std::vector<std::uint32_t> Healed = Survive(Stack);
    Survivors.insert(Survivors.end(), Healed.begin(), Healed.end());
    EXPECT_GE(Lock.statsForTesting().ProtectedOps, 1u) << "crash point " << K;
    EXPECT_FALSE(Skel.contentionForTesting()) << "crash point " << K;
    EXPECT_EQ(Lock.inner().holderForTesting(), 0u) << "crash point " << K;

    const obs::PathSnapshot Survived = since(Stack.pathSnapshot(), AtCrash);
    EXPECT_TRUE(Survived.conserves()) << "crash point " << K;
    if constexpr (obs::MetricsEnabled) {
      EXPECT_EQ(Survived.Ops, 4u) << "crash point " << K;
    }

    Check(Stack, Survivors, K);
  }
  EXPECT_GT(Crashes, 10u) << "the sweep must reach well into the slow path";
  EXPECT_GT(HeldLease, 0u) << "no crash point inside the lease tenure";
  EXPECT_LT(HeldLease, Crashes) << "no crash point outside the lease";
}

/// The stack bottom to top when the victim's group starts: the prefill,
/// then the contender's 99.
std::vector<std::uint32_t> prefilledThenContended() {
  std::vector<std::uint32_t> Values;
  for (std::uint32_t V = 1; V <= GroupPrefill; ++V)
    Values.push_back(V);
  Values.push_back(99);
  return Values;
}

/// Drains the weak stack solo (never aborts), top first.
std::vector<std::uint32_t> drainWeak(CrashTolerantStack<> &Stack) {
  std::vector<std::uint32_t> Drained;
  while (true) {
    const PopResult<std::uint32_t> R = Stack.abortable().weakPop();
    EXPECT_FALSE(R.isAbort()) << "solo weak pop cannot abort";
    if (!R.isValue())
      return Drained;
    Drained.push_back(R.value());
  }
}

TEST(CrashTest, CrashTolerantPushAllSurvivesCrashAtEveryPoint) {
  const std::uint32_t Vs[4] = {41, 42, 43, 44};
  std::uint32_t Next = 100;
  crashTolerantGroupSweep(
      [&](CrashTolerantStack<> &Stack) {
        EXPECT_EQ(Stack.push_all(0, Vs, 4), 4u);
      },
      [&](CrashTolerantStack<> &Stack) {
        const std::uint32_t Mine[2] = {Next, Next + 1};
        Next += 2;
        PushResult Out[2] = {};
        const std::size_t Applied = Stack.skeleton().strongApplyBatch(
            1, 2, forcedSlowAt([&](std::size_t I) {
              return unlessAbort(Stack.abortable().weakPush(Mine[I]));
            }),
            [](PushResult R) { return R == PushResult::Full; }, Out);
        EXPECT_EQ(Applied, 2u);
        EXPECT_EQ(Out[0], PushResult::Done);
        EXPECT_EQ(Out[1], PushResult::Done);
        return std::vector<std::uint32_t>(Mine, Mine + 2);
      },
      [&](CrashTolerantStack<> &Stack,
          const std::vector<std::uint32_t> &Survivors, std::uint64_t K) {
        // Bottom to top: the prefill, the contender's 99, a prefix of the
        // victim's group, then the survivors' values.
        std::vector<std::uint32_t> Drained = drainWeak(Stack);
        std::reverse(Drained.begin(), Drained.end());
        std::vector<std::uint32_t> Expected = prefilledThenContended();
        ASSERT_GE(Drained.size(), Expected.size() + Survivors.size())
            << "crash point " << K;
        const std::size_t M =
            Drained.size() - Expected.size() - Survivors.size();
        ASSERT_LE(M, 4u) << "crash point " << K;
        Expected.insert(Expected.end(), Vs, Vs + M);
        Expected.insert(Expected.end(), Survivors.begin(), Survivors.end());
        EXPECT_EQ(Drained, Expected)
            << "crash point " << K << " lost, duplicated or reordered";
      });
}

TEST(CrashTest, CrashTolerantPopAllSurvivesCrashAtEveryPoint) {
  crashTolerantGroupSweep(
      [](CrashTolerantStack<> &Stack) {
        std::uint32_t Out[4] = {};
        EXPECT_EQ(Stack.pop_all(0, Out, 4), 4u);
      },
      [](CrashTolerantStack<> &Stack) {
        PopResult<std::uint32_t> Out[2];
        const std::size_t Applied = Stack.skeleton().strongApplyBatch(
            1, 2, forcedSlowAt([&](std::size_t) {
              return unlessAbort(Stack.abortable().weakPop());
            }),
            [](const PopResult<std::uint32_t> &R) { return R.isEmpty(); },
            Out);
        EXPECT_EQ(Applied, 2u);
        std::vector<std::uint32_t> Got;
        for (const PopResult<std::uint32_t> &R : Out) {
          EXPECT_TRUE(R.isValue());
          if (R.isValue())
            Got.push_back(R.value());
        }
        return Got;
      },
      [](CrashTolerantStack<> &Stack,
         const std::vector<std::uint32_t> &Survivors, std::uint64_t K) {
        // The victim removed the top M of the prefill and 99 (99 first);
        // what the survivors popped and what is left are the rest, top
        // first.
        std::vector<std::uint32_t> Seen = Survivors;
        const std::vector<std::uint32_t> Left = drainWeak(Stack);
        Seen.insert(Seen.end(), Left.begin(), Left.end());
        const std::vector<std::uint32_t> Full = prefilledThenContended();
        ASSERT_LE(Seen.size(), Full.size()) << "crash point " << K;
        const std::size_t M = Full.size() - Seen.size();
        ASSERT_LE(M, 4u) << "crash point " << K;
        std::vector<std::uint32_t> Expected(Full.begin(), Full.end() - M);
        std::reverse(Expected.begin(), Expected.end());
        EXPECT_EQ(Seen, Expected)
            << "crash point " << K << " lost, duplicated or reordered";
      });
}

} // namespace
} // namespace csobj
