//===- tests/reclamation_test.cpp - Reclamation substrate tests ----------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and race tests for the safe-memory-reclamation substrate
/// (memory/HazardDomain.h, memory/NodePool.h) and its crash contract:
///
///  * protect/clear/scan semantics — a protected object survives every
///    scan, clears make it reclaimable, the amortized threshold scan
///    keeps per-thread retire lists bounded;
///  * the publish/validate handshake under real concurrency — a pinned,
///    validated node is never recycled while pinned (generation-counter
///    canary);
///  * crash-and-resurrection over the unbounded objects — rate-based
///    ProcessCrash campaigns across churny chunk turnover must never
///    double-free, leak unboundedly, or wedge the backlog (the retire
///    list follows the thread id, so a resurrected worker drains its
///    predecessor's backlog);
///  * skip-list churn on a few tall keys — every erase's sweep, racing
///    other sweeps, inserts of the same key and late lane links, leaves
///    each lane finite, sorted and free of erased nodes;
///  * NodePool type-stability and recycling;
///  * the unbounded objects' chunk lifecycle — a drained stack returns
///    to its hysteresis floor, the queue wraps its ring inside its live
///    window, neither allocates once trimmed chunks recycle, and group
///    operations crossing chunk boundaries conserve every element.
///
//===----------------------------------------------------------------------===//

#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "core/SkipListCore.h"
#include "faults/FaultInjector.h"
#include "faults/FaultPlan.h"
#include "memory/HazardDomain.h"
#include "memory/NodePool.h"
#include "memory/SchedHook.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace csobj {
namespace {

/// Recycle canary: counts recycles and exposes a generation the race
/// tests read while pinned.
struct Counted {
  std::atomic<std::uint32_t> Gen{0};
};

void bumpGen(void *Obj, void * /*Ctx*/) {
  static_cast<Counted *>(Obj)->Gen.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===
// HazardDomain unit semantics
//===----------------------------------------------------------------------===

TEST(HazardDomainTest, ProtectedObjectSurvivesScanUntilCleared) {
  HazardDomain D(2, 2);
  Counted A;
  D.protect(0, 0, &A);
  EXPECT_EQ(D.protectedForTesting(0, 0), &A);

  D.retire(1, &A, bumpGen, nullptr);
  EXPECT_EQ(D.retireBacklog(), 1u);
  EXPECT_EQ(D.scan(1), 0u) << "scan recycled a protected object";
  EXPECT_EQ(A.Gen.load(), 0u);
  EXPECT_EQ(D.retireBacklog(), 1u);

  D.clear(0, 0);
  EXPECT_EQ(D.protectedForTesting(0, 0), nullptr);
  EXPECT_EQ(D.scan(1), 1u);
  EXPECT_EQ(A.Gen.load(), 1u);
  EXPECT_EQ(D.retireBacklog(), 0u);
}

TEST(HazardDomainTest, ClearAllerasesEverySlotOfTheThreadOnly) {
  HazardDomain D(2, 3);
  Counted A, B;
  D.protect(0, 0, &A);
  D.protect(0, 2, &B);
  D.protect(1, 1, &A);
  D.clearAll(0);
  for (std::uint32_t S = 0; S < 3; ++S)
    EXPECT_EQ(D.protectedForTesting(0, S), nullptr);
  EXPECT_EQ(D.protectedForTesting(1, 1), &A)
      << "clearAll must not touch other threads' slots";
  D.clearAll(1);
}

TEST(HazardDomainTest, ThresholdScanKeepsBacklogBounded) {
  HazardDomain D(2, 2); // threshold = 2*2*2 = 8
  ASSERT_EQ(D.scanThreshold(), 8u);
  std::vector<Counted> Objs(64);
  for (Counted &C : Objs)
    D.retire(0, &C, bumpGen, nullptr);
  // Every retire at the threshold triggers a scan and nothing is
  // protected, so the list never survives past the threshold.
  EXPECT_LE(D.retireHighWater(), D.scanThreshold());
  EXPECT_LT(D.retireBacklog(), D.scanThreshold());
  D.quiescentScanAll();
  EXPECT_EQ(D.retireBacklog(), 0u);
  for (Counted &C : Objs)
    EXPECT_EQ(C.Gen.load(), 1u) << "an entry was recycled twice or never";
}

TEST(HazardDomainTest, RetireListFollowsTheThreadIdAcrossResurrection) {
  // A "crashed" thread's backlog is drained by the next worker that
  // runs with the same logical id — retire lists are Tid-indexed state,
  // not thread-lifetime state.
  HazardDomain D(2, 1);
  Counted A;
  std::thread First([&] { D.retire(0, &A, bumpGen, nullptr); });
  First.join(); // the "crash": the OS thread is gone, the backlog stays
  EXPECT_EQ(D.retireBacklog(), 1u);
  std::thread Second([&] { EXPECT_EQ(D.scan(0), 1u); });
  Second.join();
  EXPECT_EQ(A.Gen.load(), 1u);
  EXPECT_EQ(D.retireBacklog(), 0u);
}

TEST(HazardDomainTest, DestructorDropsEntriesWithoutRecycling) {
  Counted A;
  {
    HazardDomain D(1, 1);
    D.protect(0, 0, &A); // keep it un-reclaimable
    D.retire(0, &A, bumpGen, nullptr);
  }
  EXPECT_EQ(A.Gen.load(), 0u)
      << "domain destruction must not run recycle callbacks: the owning "
         "structure frees storage wholesale in its own destructor";
}

TEST(HazardGuardTest, ClearsItsSlotOnUnwind) {
  HazardDomain D(1, 1);
  Counted A;
  try {
    HazardGuard G(D, 0, 0);
    G.protect(&A);
    ASSERT_EQ(D.protectedForTesting(0, 0), &A);
    throw ProcessCrash{};
  } catch (const ProcessCrash &) {
  }
  EXPECT_EQ(D.protectedForTesting(0, 0), nullptr)
      << "a crashed operation stranded its hazard";
}

//===----------------------------------------------------------------------===
// Publish/validate handshake under real concurrency
//===----------------------------------------------------------------------===

// One writer repeatedly swaps a shared "current" pointer between nodes
// and retires the displaced one; readers pin current via the hazard
// handshake and assert the pinned node's generation is stable while
// pinned. Any scan-vs-protect race that recycled a pinned node shows up
// as a generation change (and as a TSan race on the reader's reads).
TEST(HazardDomainRaceTest, PinnedNodeIsNeverRecycledWhilePinned) {
  constexpr std::uint32_t Readers = 3;
  constexpr std::uint32_t Iters = 20000;
  HazardDomain D(Readers + 1, 1);
  NodePool<Counted> Pool;

  // Real-structure recycler shape: mark the storage dead (generation
  // bump, the canary the pinned readers watch) and hand it back to the
  // pool for reuse.
  const auto RecycleToPool = [](void *Obj, void *Ctx) {
    bumpGen(Obj, nullptr);
    NodePool<Counted>::recycle(Obj, Ctx);
  };

  std::atomic<Counted *> Current{Pool.acquire()};
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Validated{0};

  std::vector<std::thread> Threads;
  for (std::uint32_t R = 0; R < Readers; ++R)
    Threads.emplace_back([&, R] {
      while (!Stop.load(std::memory_order_acquire)) {
        Counted *C = Current.load(std::memory_order_acquire);
        D.protect(R, 0, C);
        if (Current.load(std::memory_order_seq_cst) != C) {
          D.clear(R, 0);
          continue; // moved under us; the pin may be too late to trust
        }
        // Pinned and validated: the generation must hold still.
        const std::uint32_t G0 = C->Gen.load(std::memory_order_relaxed);
        for (int Spin = 0; Spin < 8; ++Spin)
          EXPECT_EQ(C->Gen.load(std::memory_order_relaxed), G0)
              << "node recycled while hazard-pinned";
        Validated.fetch_add(1, std::memory_order_relaxed);
        D.clear(R, 0);
      }
    });

  const std::uint32_t WriterTid = Readers;
  for (std::uint32_t I = 0; I < Iters; ++I) {
    Counted *Fresh = Pool.acquire();
    Counted *Old = Current.exchange(Fresh, std::memory_order_seq_cst);
    D.retire(WriterTid, Old, RecycleToPool, &Pool);
  }
  // Under full churn the validate step can lose every race; with the
  // writer idle it succeeds immediately. Wait for real coverage before
  // stopping so the assertion below is deterministic.
  while (Validated.load(std::memory_order_relaxed) < Readers)
    std::this_thread::yield();
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();

  EXPECT_GE(Validated.load(), Readers) << "no reader ever validated a pin";
  D.quiescentScanAll();
  EXPECT_EQ(D.retireBacklog(), 0u);
  // Everything retired was recycled exactly once; one node is still
  // live in Current.
  EXPECT_EQ(Pool.freeCount() + 1, Pool.allocatedCount());
}

//===----------------------------------------------------------------------===
// NodePool
//===----------------------------------------------------------------------===

TEST(NodePoolTest, RecyclesStorageTypeStably) {
  NodePool<Counted> Pool;
  Counted *A = Pool.acquire();
  EXPECT_EQ(Pool.allocatedCount(), 1u);
  EXPECT_EQ(Pool.freeCount(), 0u);
  Pool.release(A);
  EXPECT_EQ(Pool.freeCount(), 1u);
  EXPECT_EQ(Pool.acquire(), A) << "free list must hand back the storage";
  Counted *B = Pool.acquire();
  EXPECT_NE(B, A);
  EXPECT_EQ(Pool.allocatedCount(), 2u);
  EXPECT_GT(Pool.heapBytes(), 2 * sizeof(Counted) - 1);
  // The HazardDomain-compatible recycler is just release().
  NodePool<Counted>::recycle(B, &Pool);
  EXPECT_EQ(Pool.freeCount(), 1u);
}

//===----------------------------------------------------------------------===
// Chunk lifecycle of the unbounded objects: memory is given back
//===----------------------------------------------------------------------===

/// Slots per directory chunk of the unbounded objects' chunked store.
constexpr std::uint32_t ChunkSlots = 64;

TEST(ChunkLifecycleTest, DrainedStackReturnsToTheHysteresisFloor) {
  constexpr std::uint32_t Depth = 5 * ChunkSlots + 10; // spans 6 chunks
  UnboundedStack<> S(1);
  std::size_t AllocatedAfterFirstCycle = 0;
  for (std::uint32_t Cycle = 0; Cycle < 4; ++Cycle) {
    for (std::uint32_t V = 1; V <= Depth; ++V)
      ASSERT_EQ(S.weakPush(0, V), PushResult::Done) << "cycle " << Cycle;
    // A push installs the chunk of the slot it fills: chunks 0..Depth/64.
    EXPECT_EQ(S.installedChunksForTesting(), Depth / ChunkSlots + 1)
        << "cycle " << Cycle;
    for (std::uint32_t V = Depth; V >= 1; --V) {
      const PopResult<std::uint32_t> R = S.weakPop(0);
      ASSERT_TRUE(R.isValue()) << "cycle " << Cycle;
      ASSERT_EQ(R.value(), V) << "LIFO order, cycle " << Cycle;
    }
    ASSERT_TRUE(S.weakPop(0).isEmpty());
    // Empty: only chunk 0 and the chunk above it (the hysteresis line)
    // stay installed.
    EXPECT_EQ(S.installedChunksForTesting(), 2u) << "cycle " << Cycle;
    S.domain().quiescentScanAll();
    EXPECT_EQ(S.domain().retireBacklog(), 0u);
    if (Cycle == 0) {
      AllocatedAfterFirstCycle = S.allocatedChunksForTesting();
    } else {
      EXPECT_EQ(S.allocatedChunksForTesting(), AllocatedAfterFirstCycle)
          << "cycle " << Cycle << " allocated fresh chunks instead of "
          << "reusing the trimmed ones";
    }
  }
  EXPECT_EQ(AllocatedAfterFirstCycle, Depth / ChunkSlots + 1);
}

TEST(ChunkLifecycleTest, QueueWrapsTheRingWithinItsLiveWindow) {
  // The ring spans the codec's whole index space; the queue keeps Live
  // elements and alternates enqueue/dequeue until it has wrapped more
  // than once.
  constexpr std::uint32_t Ring = Compact64::Top::MaxIndex + 1;
  constexpr std::uint32_t Live = 100;
  constexpr std::uint32_t Steps = Ring + Ring / 2;
  // The live window [FRONT .. next(REAR)] holds Live + 2 consecutive
  // positions, which touch at most ceil((Live + 2) / 64) + 1 chunks; a
  // trim leaves nothing else installed.
  constexpr std::uint32_t WindowChunks =
      (Live + 2 + ChunkSlots - 1) / ChunkSlots + 1;
  UnboundedQueue<> Q(1);
  std::uint32_t NextIn = 1, NextOut = 1;
  for (std::uint32_t I = 0; I < Live; ++I)
    ASSERT_EQ(Q.weakEnqueue(0, NextIn++), PushResult::Done);
  std::size_t AllocatedAfterFirstWrap = 0;
  for (std::uint32_t Step = 0; Step < Steps; ++Step) {
    ASSERT_EQ(Q.weakEnqueue(0, NextIn++), PushResult::Done) << Step;
    const PopResult<std::uint32_t> R = Q.weakDequeue(0);
    ASSERT_TRUE(R.isValue()) << Step;
    ASSERT_EQ(R.value(), NextOut++) << "FIFO order at step " << Step;
    if (Step % 16 == 0) {
      ASSERT_LE(Q.installedChunksForTesting(), WindowChunks) << Step;
    }
    if (Step == Ring)
      AllocatedAfterFirstWrap = Q.allocatedChunksForTesting();
  }
  EXPECT_EQ(Q.sizeForTesting(), Live);
  EXPECT_LE(Q.installedChunksForTesting(), WindowChunks);
  EXPECT_EQ(Q.allocatedChunksForTesting(), AllocatedAfterFirstWrap)
      << "allocation kept growing after the first wrap";
  // Steady state recycles: far fewer chunks than the ring's 1024.
  EXPECT_LE(AllocatedAfterFirstWrap,
            WindowChunks + Q.domain().scanThreshold());
}

/// Three threads put and take groups of up to 2.5 chunks through one
/// unbounded wrapper's group operations, so groups cross chunk
/// boundaries in both directions and install and trim chunks
/// mid-group; a final drain must then account for every value exactly
/// once, and every entered operation must have retired through one path.
template <typename Obj, typename PutAllFn, typename TakeAllFn>
void groupChurn(Obj &O, PutAllFn PutAll, TakeAllFn TakeAll) {
  constexpr std::uint32_t Threads = 3;
  constexpr std::uint32_t Rounds = 200;
  constexpr std::uint32_t MaxGroup = 2 * ChunkSlots + ChunkSlots / 2;
  constexpr std::uint32_t Stride = 1u << 20; // per-thread value range
  std::vector<std::uint32_t> PutCount(Threads, 0);
  std::vector<std::vector<std::uint32_t>> Taken(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t Tid = 0; Tid < Threads; ++Tid)
    Workers.emplace_back([&, Tid] {
      SplitMix64 Rng(0x6e0c5ull + Tid);
      std::vector<std::uint32_t> Buf(MaxGroup);
      for (std::uint32_t Round = 0; Round < Rounds; ++Round) {
        const std::size_t K = 1 + Rng.below(MaxGroup);
        for (std::size_t I = 0; I < K; ++I)
          Buf[I] = Tid * Stride + ++PutCount[Tid];
        EXPECT_EQ(PutAll(O, Tid, Buf.data(), K), K) << "unbounded: no Full";
        const std::size_t Want = 1 + Rng.below(MaxGroup);
        const std::size_t Got = TakeAll(O, Tid, Buf.data(), Want);
        Taken[Tid].insert(Taken[Tid].end(), Buf.begin(), Buf.begin() + Got);
      }
    });
  for (std::thread &T : Workers)
    T.join();

  std::vector<std::uint32_t> Rest(O.sizeForTesting());
  EXPECT_EQ(TakeAll(O, 0, Rest.data(), Rest.size()), Rest.size());
  EXPECT_EQ(O.sizeForTesting(), 0u);
  std::vector<std::uint32_t> Seen(Threads * Stride, 0);
  for (const std::vector<std::uint32_t> &Values : Taken)
    for (std::uint32_t V : Values)
      ++Seen[V];
  for (std::uint32_t V : Rest)
    ++Seen[V];
  for (std::uint32_t Tid = 0; Tid < Threads; ++Tid)
    for (std::uint32_t I = 1; I <= PutCount[Tid]; ++I)
      ASSERT_EQ(Seen[Tid * Stride + I], 1u)
          << "value " << Tid * Stride + I << " lost or duplicated";
  EXPECT_TRUE(O.pathSnapshot().conserves());
  O.abortable().domain().quiescentScanAll();
  EXPECT_EQ(O.abortable().domain().retireBacklog(), 0u);
}

TEST(ChunkLifecycleTest, UnboundedStackGroupsConserveAcrossChunks) {
  ContentionSensitiveUnboundedStack<> S(3);
  groupChurn(
      S,
      [](auto &O, std::uint32_t Tid, const std::uint32_t *Vs, std::size_t K) {
        return O.push_all(Tid, Vs, K);
      },
      [](auto &O, std::uint32_t Tid, std::uint32_t *Out, std::size_t K) {
        return O.pop_all(Tid, Out, K);
      });
}

TEST(ChunkLifecycleTest, UnboundedQueueGroupsConserveAcrossChunks) {
  ContentionSensitiveUnboundedQueue<> Q(3);
  groupChurn(
      Q,
      [](auto &O, std::uint32_t Tid, const std::uint32_t *Vs, std::size_t K) {
        return O.enqueue_all(Tid, Vs, K);
      },
      [](auto &O, std::uint32_t Tid, std::uint32_t *Out, std::size_t K) {
        return O.dequeue_all(Tid, Out, K);
      });
}

//===----------------------------------------------------------------------===
// Crash-and-resurrection churn over the unbounded objects
//===----------------------------------------------------------------------===

/// Drives \p Workers threads of mixed ops with a rate-based crash plan;
/// each ProcessCrash is caught and the worker re-enters with the same
/// Tid (resurrection). Conservation and backlog drain are asserted at
/// quiescence; ASan/LSan (CI) turn any double-free or leak fatal.
template <typename Obj, typename PushFn, typename PopFn>
void crashChurn(Obj &O, PushFn Push, PopFn Pop, std::uint32_t Workers) {
  constexpr std::uint32_t OpsPerWorker = 6000;
  std::atomic<std::uint64_t> Pushed{0}, Popped{0}, Crashes{0};
  FaultClock Clock;

  std::vector<std::thread> Threads;
  for (std::uint32_t Tid = 0; Tid < Workers; ++Tid)
    Threads.emplace_back([&, Tid] {
      const FaultPlan Plan = FaultPlan::crashAtRate(Tid, /*Permille=*/5);
      std::uint32_t Done = 0;
      while (Done < OpsPerWorker) {
        // One "process" lifetime; a crash unwinds to here and the
        // resurrected worker (same Tid) continues the remaining ops.
        FaultInjector Hook(Plan, Tid, Clock);
        SchedHookScope Scope(Hook);
        try {
          while (Done < OpsPerWorker) {
            const bool IsPush = (Done ^ Tid) % 3 != 0;
            if (IsPush) {
              if (Push(O, Tid, Done + 1) == PushResult::Done)
                Pushed.fetch_add(1, std::memory_order_relaxed);
            } else {
              if (Pop(O, Tid).isValue())
                Popped.fetch_add(1, std::memory_order_relaxed);
            }
            ++Done;
          }
        } catch (const ProcessCrash &) {
          Crashes.fetch_add(1, std::memory_order_relaxed);
          ++Done; // the op in flight died with the process
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  ASSERT_GT(Crashes.load(), 0u) << "the campaign never fired";
  // Quiescent accounting. A crash can land between an op's linearizing
  // C&S and the count bump above, so size may exceed Pushed - Popped by
  // at most the number of crashes.
  const std::uint64_t Net = Pushed.load() - Popped.load();
  const std::uint64_t Size = O.sizeForTesting();
  EXPECT_LE(Size > Net ? Size - Net : Net - Size, Crashes.load())
      << "conservation violated beyond the crash envelope";
  // Drained backlog: no retired chunk is stranded once hazards quiesce.
  O.domain().quiescentScanAll();
  EXPECT_EQ(O.domain().retireBacklog(), 0u);
  EXPECT_LE(O.domain().retireHighWater(), O.domain().scanThreshold());
}

TEST(ReclamationCrashTest, UnboundedStackSurvivesCrashCampaign) {
  UnboundedStack<> S(4);
  crashChurn(
      S,
      [](UnboundedStack<> &O, std::uint32_t Tid, std::uint32_t V) {
        return O.weakPush(Tid, V);
      },
      [](UnboundedStack<> &O, std::uint32_t Tid) { return O.weakPop(Tid); },
      4);
}

TEST(ReclamationCrashTest, UnboundedQueueSurvivesCrashCampaign) {
  UnboundedQueue<> Q(4);
  crashChurn(
      Q,
      [](UnboundedQueue<> &O, std::uint32_t Tid, std::uint32_t V) {
        return O.weakEnqueue(Tid, V);
      },
      [](UnboundedQueue<> &O, std::uint32_t Tid) {
        return O.weakDequeue(Tid);
      },
      4);
}

TEST(SkipListChurnTest, TallKeyChurnLeavesEveryLaneSorted) {
  // Two threads insert and erase four keys of tower height >= 2, so
  // erases race inserts of the same key: a node of the key can sit on
  // either side of the one being swept, and inserts link lanes late. A
  // sweep that leaves an erased node linked lets it be recycled while
  // reachable; the lanes then gain a cycle, and this test hangs or the
  // oracle below fails.
  std::vector<std::uint32_t> Keys;
  for (std::uint32_t K = 0; Keys.size() < 4; ++K)
    if (SkipListCore<>::heightOf(K) >= 2)
      Keys.push_back(K);
  constexpr std::uint32_t Threads = 2;
  constexpr std::uint32_t Rounds = 200;
  constexpr std::uint32_t OpsPerThread = 2000;
  for (std::uint32_t Round = 0; Round < Rounds; ++Round) {
    SkipListCore<> L(Threads, static_cast<std::uint32_t>(Keys.size()));
    FaultPlan Chaos = FaultPlan::chaos(Threads, /*YieldPermille=*/100);
    Chaos.RateSeed = 0xC4A05ull * (Round + 1);
    FaultClock Clock;
    std::vector<std::thread> Workers;
    for (std::uint32_t Tid = 0; Tid < Threads; ++Tid)
      Workers.emplace_back([&, Tid] {
        FaultScope Faults(Chaos, Tid, Clock);
        SplitMix64 Rng(0x5EEDull * (Round + 1) + Tid);
        for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
          const std::uint32_t K = Keys[Rng.below(Keys.size())];
          switch (Rng.below(4)) {
          case 0:
          case 1:
            (void)L.weakInsert(Tid, K, I + 1);
            break;
          case 2:
            (void)L.weakErase(Tid, K);
            break;
          default:
            (void)L.get(Tid, K);
            break;
          }
        }
      });
    for (std::thread &T : Workers)
      T.join();
    ASSERT_EQ(L.checkLanesForTesting(), "") << "round " << Round;
  }
}

TEST(ReclamationCrashTest, SkipListSurvivesCrashCampaign) {
  // Map churn with crashes: the erase tail (mark/sweep/retire) is
  // crash-atomic with its ValState C&S because injectors fire only at
  // counted accesses — so no key can be half-removed and no node
  // double-retired, whatever the crash timing.
  SkipListCore<> L(4, 32);
  constexpr std::uint32_t OpsPerWorker = 4000;
  std::atomic<std::uint64_t> Crashes{0};
  FaultClock Clock;
  std::vector<std::thread> Threads;
  for (std::uint32_t Tid = 0; Tid < 4; ++Tid)
    Threads.emplace_back([&, Tid] {
      const FaultPlan Plan = FaultPlan::crashAtRate(Tid, /*Permille=*/5);
      std::uint32_t Done = 0;
      while (Done < OpsPerWorker) {
        FaultInjector Hook(Plan, Tid, Clock);
        SchedHookScope Scope(Hook);
        try {
          while (Done < OpsPerWorker) {
            const std::uint32_t K = (Done * 7 + Tid) % 48;
            switch (Done % 3) {
            case 0:
              (void)L.weakInsert(Tid, K, Done);
              break;
            case 1:
              (void)L.weakErase(Tid, K);
              break;
            default:
              (void)L.get(Tid, K);
              break;
            }
            ++Done;
          }
        } catch (const ProcessCrash &) {
          Crashes.fetch_add(1, std::memory_order_relaxed);
          ++Done;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  ASSERT_GT(Crashes.load(), 0u) << "the campaign never fired";

  // The live walk and the admission counter agree at quiescence up to
  // the crash envelope (a crash between the link C&S and the uncounted
  // counter bump leaves a linked node the counter missed — bounded by
  // one per crash, never accumulating past the worker's resurrection).
  const std::uint32_t Walk = L.liveCountForTesting();
  const std::uint32_t Ctr = L.liveCounterForTesting();
  const std::uint32_t Diff = Walk > Ctr ? Walk - Ctr : Ctr - Walk;
  EXPECT_LE(Diff, Crashes.load()) << "walk " << Walk << " vs counter "
                                  << Ctr;
  EXPECT_EQ(L.checkLanesForTesting(), "");
  L.domain().quiescentScanAll();
  EXPECT_EQ(L.domain().retireBacklog(), 0u);
  EXPECT_LE(L.domain().retireHighWater(), L.domain().scanThreshold());
}

} // namespace
} // namespace csobj
