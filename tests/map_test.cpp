//===- tests/map_test.cpp - Directed ordered-map schedules ----------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Directed InterleaveScheduler schedules for the contention-sensitive
/// ordered map, pinning the claims the conformance battery can only
/// observe statistically:
///
///  * a shortcut link C&S aborted by a same-window writer falls through
///    to the per-region doorway+lock exactly once;
///  * a second writer arriving during a writer's lock tenure reads
///    CONTENTION=1 and serializes through the doorway without ever
///    attempting (or aborting) the shortcut;
///  * a reader completes in its exact wait-free access count while a
///    writer holds the region lock;
///  * a FaultPlan crash mid-update leaves the key readable and writable
///    for the survivor (all-or-nothing);
///  * a writer crashed *inside* its region lock strands only that
///    region's update path — reads and other regions stay live (the
///    documented stall-only progress class);
///  * solo access counts are exact under Instrumented and invisible
///    under Fast.
///
//===----------------------------------------------------------------------===//

#include "core/ContentionSensitiveMap.h"
#include "core/SkipListCore.h"
#include "faults/FaultInjector.h"
#include "faults/FaultPlan.h"
#include "locks/TasLock.h"
#include "memory/AccessCounter.h"
#include "memory/RegisterPolicy.h"
#include "sched/InterleaveScheduler.h"
#include "support/Backoff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace csobj {
namespace {

using Map = ContentionSensitiveMap<>;

constexpr std::uint32_t Cap = 64;

/// First key >= From whose deterministic tower height is 1 (keeps every
/// probed access count at its documented minimum).
std::uint32_t heightOneKey(std::uint32_t From) {
  std::uint32_t K = From;
  while (SkipListCore<>::heightOf(K) != 1)
    ++K;
  return K;
}

/// First height-1 key >= From that lands in \p Region of \p Regions.
std::uint32_t heightOneKeyInRegion(std::uint32_t From, std::uint32_t Region,
                                   std::uint32_t Regions) {
  std::uint32_t K = From;
  while (K % Regions != Region || SkipListCore<>::heightOf(K) != 1)
    ++K;
  return K;
}

/// Shared-access count of \p Body under a solo controlled schedule.
std::size_t accessesOf(std::function<void()> Body) {
  InterleaveScheduler Scheduler(1);
  const auto Trace = Scheduler.run(
      {std::move(Body)},
      [](std::size_t, const std::vector<std::uint32_t> &Parked) {
        return Parked.front();
      });
  return Trace.Decisions.size();
}

bool parked(const std::vector<std::uint32_t> &Parked, std::uint32_t Tid) {
  return std::find(Parked.begin(), Parked.end(), Tid) != Parked.end();
}

/// Solo access count of a fresh insert of a height-1 key on an empty
/// map. The final access is the level-0 link C&S (the live-counter bump
/// after it is reclamation-channel bookkeeping), so (count - 1) grants
/// parks a writer exactly at its link C&S.
std::size_t freshInsertAccesses(std::uint32_t K) {
  Map Probe(2, Cap, 1);
  return accessesOf([&] { (void)Probe.insert(0, K, 1); });
}

/// Solo access count of an update of an existing key; the last access
/// is the ValState C&S.
std::size_t updateAccesses(std::uint32_t K) {
  Map Probe(2, Cap, 1);
  if (Probe.insert(0, K, 1) != PushResult::Done)
    ADD_FAILURE() << "probe prefill failed";
  return accessesOf([&] { (void)Probe.insert(1, K, 2); });
}

TEST(MapDirectedTest, ShortcutAbortFallsThroughToRegionLockExactlyOnce) {
  const std::uint32_t KA = heightOneKey(0);
  const std::uint32_t KB = heightOneKey(KA + 1);
  const std::size_t Fresh = freshInsertAccesses(KB);
  ASSERT_GE(Fresh, 4u);
  const std::size_t BPark = Fresh - 1; // B parked at its link C&S

  Map M(2, Cap, /*RegionCount=*/1);
  std::optional<PushResult> ARes, BRes;
  std::size_t BGrants = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { ARes = M.insert(0, KA, 11); },
       [&] { BRes = M.insert(1, KB, 22); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        // B up to (but not through) its link C&S, then A to completion,
        // then B: its C&S expects the empty window A just filled.
        if (BGrants < BPark && parked(Parked, 1)) {
          ++BGrants;
          return 1;
        }
        if (parked(Parked, 0))
          return 0;
        return Parked.front();
      });

  ASSERT_TRUE(ARes.has_value());
  ASSERT_TRUE(BRes.has_value());
  EXPECT_EQ(*ARes, PushResult::Done);
  EXPECT_EQ(*BRes, PushResult::Done);

  const obs::PathSnapshot S = M.pathSnapshot();
  EXPECT_TRUE(S.conserves());
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.Ops, 2u);
    EXPECT_EQ(S.path(obs::Path::Shortcut), 1u)
        << "A must stay on the shortcut";
    EXPECT_EQ(S.path(obs::Path::Lock), 1u)
        << "B must retire through the region lock exactly once";
    EXPECT_EQ(S.event(obs::Event::ShortcutAbort), 1u);
    // B's lock-protected retry succeeds on its first attempt (A is
    // done), so line 08 never re-spins.
    EXPECT_EQ(S.event(obs::Event::ProtectedRetry), 0u);
  } else {
    EXPECT_EQ(S.Ops, 0u) << "compiled-out sinks read zero";
  }

  const PopResult<std::uint32_t> GA = M.get(0, KA);
  const PopResult<std::uint32_t> GB = M.get(0, KB);
  ASSERT_TRUE(GA.isValue());
  ASSERT_TRUE(GB.isValue());
  EXPECT_EQ(GA.value(), 11u);
  EXPECT_EQ(GB.value(), 22u);
}

TEST(MapDirectedTest, SecondWriterSerializesThroughDoorwayDuringLockTenure) {
  const std::uint32_t KA = heightOneKey(0);
  const std::size_t Upd = updateAccesses(KA);
  ASSERT_GE(Upd, 3u);

  Map M(2, Cap, /*RegionCount=*/1);
  ASSERT_EQ(M.insert(0, KA, 1), PushResult::Done);

  std::optional<PushResult> BRes, C1Res, C2Res;
  std::size_t BGrants = 0, CGrants = 0;
  int Phase = 0;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { BRes = M.insert(0, KA, 5); },
       [&] {
         C1Res = M.insert(1, KA, 6);
         C2Res = M.insert(1, KA, 7);
       }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        // 0: B up to its ValState C&S. 1: C's first update completes,
        // invalidating B's read tag. 2: B aborts, enters the doorway,
        // takes the lock, raises CONTENTION. 3: C's second update reads
        // CONTENTION=1 (one access) — it must now serialize. 4: drain B
        // then C.
        if (Phase == 0) {
          if (BGrants < Upd - 1 && parked(Parked, 0)) {
            ++BGrants;
            return 0;
          }
          Phase = 1;
        }
        if (Phase == 1) {
          if (CGrants < Upd && parked(Parked, 1)) {
            ++CGrants;
            return 1;
          }
          Phase = 2;
        }
        if (Phase == 2) {
          if (M.regionSkeleton(0).contentionForTesting() == 0 &&
              parked(Parked, 0))
            return 0;
          Phase = 3;
        }
        if (Phase == 3 && parked(Parked, 1)) {
          Phase = 4;
          return 1;
        }
        if (parked(Parked, 0))
          return 0;
        return Parked.front();
      });

  ASSERT_TRUE(BRes.has_value());
  ASSERT_TRUE(C1Res.has_value());
  ASSERT_TRUE(C2Res.has_value());
  EXPECT_EQ(*BRes, PushResult::Done);
  EXPECT_EQ(*C1Res, PushResult::Done);
  EXPECT_EQ(*C2Res, PushResult::Done);

  const obs::PathSnapshot S = M.pathSnapshot();
  EXPECT_TRUE(S.conserves());
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.Ops, 4u); // prefill + B + C1 + C2
    EXPECT_EQ(S.path(obs::Path::Shortcut), 2u)
        << "prefill and C's first update";
    EXPECT_EQ(S.path(obs::Path::Lock), 2u)
        << "B's aborted update and C's contended one must both serialize";
    EXPECT_EQ(S.event(obs::Event::ShortcutAbort), 1u)
        << "C's second update must not even attempt the shortcut";
  } else {
    EXPECT_EQ(S.Ops, 0u) << "compiled-out sinks read zero";
  }

  // C's second update entered the doorway after B, so it commits last.
  const PopResult<std::uint32_t> G = M.get(0, KA);
  ASSERT_TRUE(G.isValue());
  EXPECT_EQ(G.value(), 7u);
}

TEST(MapDirectedTest, ReaderCompletesWaitFreeDuringWriterLockTenure) {
  const std::uint32_t KA = heightOneKey(0);
  const std::size_t Upd = updateAccesses(KA);
  std::size_t GetCost;
  {
    Map Probe(3, Cap, 1);
    ASSERT_EQ(Probe.insert(0, KA, 1), PushResult::Done);
    GetCost = accessesOf([&] { (void)Probe.get(1, KA); });
  }

  Map M(3, Cap, /*RegionCount=*/1);
  ASSERT_EQ(M.insert(0, KA, 1), PushResult::Done);

  std::optional<PushResult> WRes, HRes;
  std::optional<PopResult<std::uint32_t>> RRes;
  std::size_t WGrants = 0, RGrants = 0;
  bool ReaderStuck = false;
  int Phase = 0;
  InterleaveScheduler Scheduler(3);
  Scheduler.run(
      {[&] { WRes = M.insert(0, KA, 5); },
       [&] { HRes = M.insert(1, KA, 6); },
       [&] { RRes = M.get(2, KA); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        // 0: W parked at its ValState C&S. 1: helper H updates, breaking
        // W's tag. 2: W aborts into the doorway+lock (CONTENTION=1).
        // 3: the reader runs alone during W's tenure — it must finish in
        // exactly its solo wait-free access count. 4: drain W.
        if (Phase == 0) {
          if (WGrants < Upd - 1 && parked(Parked, 0)) {
            ++WGrants;
            return 0;
          }
          Phase = 1;
        }
        if (Phase == 1) {
          if (parked(Parked, 1))
            return 1;
          Phase = 2;
        }
        if (Phase == 2) {
          if (M.regionSkeleton(0).contentionForTesting() == 0 &&
              parked(Parked, 0))
            return 0;
          Phase = 3;
        }
        if (Phase == 3) {
          if (parked(Parked, 2)) {
            if (++RGrants > GetCost + 4) {
              ReaderStuck = true; // blocked => would spin past its count
              Phase = 4;
            } else {
              return 2;
            }
          } else {
            Phase = 4;
          }
        }
        if (parked(Parked, 0))
          return 0;
        return Parked.front();
      });

  EXPECT_FALSE(ReaderStuck)
      << "get() exceeded its wait-free access count during lock tenure";
  ASSERT_TRUE(RRes.has_value());
  ASSERT_TRUE(RRes->isValue());
  EXPECT_EQ(RRes->value(), 6u)
      << "reader must see the helper's committed update, not block on W";
  EXPECT_EQ(RGrants, GetCost) << "reader cost changed under a held lock";
  ASSERT_TRUE(WRes.has_value());
  EXPECT_EQ(*WRes, PushResult::Done);

  const PopResult<std::uint32_t> Final = M.get(1, KA);
  ASSERT_TRUE(Final.isValue());
  EXPECT_EQ(Final.value(), 5u) << "W's lock-path retry commits last";

  const obs::PathSnapshot S = M.pathSnapshot();
  EXPECT_TRUE(S.conserves());
  if constexpr (obs::MetricsEnabled) {
    EXPECT_EQ(S.path(obs::Path::Lock), 1u);
    EXPECT_EQ(S.path(obs::Path::Shortcut), 4u); // prefill, H, R, final get
  } else {
    EXPECT_EQ(S.Ops, 0u) << "compiled-out sinks read zero";
  }
}

TEST(MapDirectedTest, CrashDuringUpdateFaultPlanIsAllOrNothing) {
  const std::uint32_t KA = heightOneKey(0);
  const std::size_t Upd = updateAccesses(KA);

  // Sweep two representative plan points: mid-search and at the C&S.
  for (const std::uint64_t CrashAccess :
       {std::uint64_t{2}, static_cast<std::uint64_t>(Upd - 1)}) {
    Map M(2, Cap, /*RegionCount=*/1);
    ASSERT_EQ(M.insert(1, KA, 1), PushResult::Done);

    std::optional<PopResult<std::uint32_t>> SurvivorGet;
    InterleaveScheduler Scheduler(2);
    Scheduler.run({[&] { (void)M.insert(0, KA, 9); },
                   [&] { SurvivorGet = M.get(1, KA); }},
                  faultPlanPick(FaultPlan::crashAt(0, CrashAccess)));

    ASSERT_TRUE(SurvivorGet.has_value());
    ASSERT_TRUE(SurvivorGet->isValue());
    const std::uint32_t Seen = SurvivorGet->value();
    EXPECT_TRUE(Seen == 1u || Seen == 9u)
        << "torn update at access " << CrashAccess << ": " << Seen;

    // The corpse died on the shortcut — no lock held, full survivor use.
    EXPECT_EQ(M.insert(1, KA, 3), PushResult::Done);
    const PopResult<std::uint32_t> After = M.get(1, KA);
    ASSERT_TRUE(After.isValue());
    EXPECT_EQ(After.value(), 3u);
  }
}

TEST(MapDirectedTest, CrashedLockHolderStallsOnlyItsRegionsWriters) {
  // Same-window fresh inserts must share region 0 for the abort dance.
  const std::uint32_t KAr = heightOneKeyInRegion(0, 0, 2);
  const std::uint32_t KBr = heightOneKeyInRegion(KAr + 1, 0, 2);
  const std::size_t Fresh = freshInsertAccesses(KBr);
  const std::size_t BPark = Fresh - 1;

  Map M(3, Cap, /*RegionCount=*/2);

  std::size_t BGrants = 0;
  bool Killed = false;
  InterleaveScheduler Scheduler(2);
  Scheduler.run(
      {[&] { (void)M.insert(0, KAr, 11); },
       [&] { (void)M.insert(1, KBr, 22); }},
      [&](std::size_t, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        // B parked at its link C&S; A fills the window; B aborts into
        // the region-0 lock; the moment CONTENTION goes up, kill B —
        // a crash-stop inside lock tenure.
        if (BGrants < BPark && parked(Parked, 1)) {
          ++BGrants;
          return 1;
        }
        if (parked(Parked, 0))
          return 0;
        if (!Killed && M.regionSkeleton(0).contentionForTesting()) {
          Killed = true;
          return 1u | InterleaveScheduler::KillFlag;
        }
        return Parked.front();
      });

  ASSERT_TRUE(Killed) << "schedule never drove B into the region lock";
  EXPECT_TRUE(M.regionSkeleton(0).contentionForTesting())
      << "the corpse must still hold region 0 (the stall-only class)";

  // Reads never block: the crashed writer's tenure is invisible to them.
  const PopResult<std::uint32_t> GA = M.get(2, KAr);
  ASSERT_TRUE(GA.isValue());
  EXPECT_EQ(GA.value(), 11u);
  EXPECT_TRUE(M.get(2, KBr).isEmpty())
      << "B died before publishing its key";

  // Other regions are untouched: a region-1 writer runs start to finish.
  const std::uint32_t KOdd = KAr + 1; // region 1
  EXPECT_EQ(M.insert(2, KOdd, 33), PushResult::Done);
  const PopResult<std::uint32_t> GOdd = M.get(2, KOdd);
  ASSERT_TRUE(GOdd.isValue());
  EXPECT_EQ(GOdd.value(), 33u);
  ASSERT_TRUE(M.erase(2, KOdd).isValue());
}

TEST(MapAccessCountTest, SoloCountsAreExactUnderInstrumented) {
  Map M(2, Cap, /*RegionCount=*/2);
  const std::uint32_t K = heightOneKey(0);

  // Documented solo counts (core/ContentionSensitiveMap.h): search is
  // one link read per level (MaxLevel = 8) on a near-empty map.
  EXPECT_EQ(countAccesses([&] { (void)M.get(0, K); }).total(), 8u)
      << "get miss: 8 search reads, no ValState";
  EXPECT_EQ(countAccesses([&] { (void)M.insert(0, K, 7); }).total(), 11u)
      << "fresh insert: 1 CONTENTION + 8 search + 1 admission read + "
         "1 link C&S (allocation and node init are uncounted: they touch "
         "only unreachable storage)";
  EXPECT_EQ(countAccesses([&] { (void)M.get(0, K); }).total(), 9u)
      << "get hit: 8 search reads + 1 ValState read";
  EXPECT_EQ(countAccesses([&] { (void)M.insert(0, K, 8); }).total(), 11u)
      << "update: 1 CONTENTION + 8 search + 1 read + 1 C&S";
  EXPECT_EQ(countAccesses([&] { (void)M.erase(0, K); }).total(), 11u)
      << "erase hit: 1 CONTENTION + 8 search + 1 read + 1 C&S (physical "
         "removal and retire ride the uncounted reclamation channel)";
  EXPECT_EQ(countAccesses([&] { (void)M.erase(0, K); }).total(), 9u)
      << "erase of an erased key: 1 CONTENTION + 8 search reads — the "
         "node is physically gone, there is no tombstone to read";
  EXPECT_EQ(countAccesses([&] { (void)M.get(0, K); }).total(), 8u)
      << "get of an erased key: a plain 8-read miss";
}

TEST(MapCapacityTest, EraseFreesCapacityAcrossManyDistinctKeys) {
  // The tombstone design counted keys-ever: this loop used to hit Full
  // after Capacity distinct keys no matter how many were erased. With
  // physical reclamation, insert->erase over many times Capacity
  // distinct keys must always succeed, and storage must stay bounded by
  // live keys + spares + retire backlog — not by keys-ever.
  constexpr std::uint32_t SmallCap = 8;
  Map M(2, SmallCap, 2);
  for (std::uint32_t K = 0; K < 32 * SmallCap; ++K) {
    ASSERT_EQ(M.insert(0, K, K + 1), PushResult::Done) << "key " << K;
    const PopResult<std::uint32_t> G = M.get(1, K);
    ASSERT_TRUE(G.isValue());
    EXPECT_EQ(G.value(), K + 1);
    const PopResult<std::uint32_t> E = M.erase(0, K);
    ASSERT_TRUE(E.isValue());
    EXPECT_EQ(E.value(), K + 1);
  }
  EXPECT_EQ(M.core().liveCountForTesting(), 0u);
  EXPECT_EQ(M.core().liveCounterForTesting(), 0u);
  // 256 distinct keys churned through a pool that never grew past a
  // handful of nodes (head + the recycled one + scan-timing slack).
  EXPECT_LE(M.core().allocatedNodesForTesting(), 1u + SmallCap + 4u)
      << "reclamation failed: the pool grew with keys-ever";
}

TEST(MapCapacityTest, LiveCountCapacityBoundary) {
  // Full is a statement about *live* keys. At the boundary: filling
  // Capacity distinct keys makes the next fresh key Full, updating an
  // existing key still works, and erasing any one key frees exactly one
  // admission.
  constexpr std::uint32_t SmallCap = 8;
  Map M(2, SmallCap, 2);
  for (std::uint32_t K = 0; K < SmallCap; ++K)
    ASSERT_EQ(M.insert(0, K, K), PushResult::Done);
  EXPECT_EQ(M.insert(0, 100, 1), PushResult::Full);
  EXPECT_EQ(M.insert(1, 200, 2), PushResult::Full);
  EXPECT_EQ(M.insert(0, 3, 33), PushResult::Done)
      << "updates of live keys need no admission";
  ASSERT_TRUE(M.erase(0, 5).isValue());
  EXPECT_EQ(M.insert(0, 100, 1), PushResult::Done)
      << "erase must free capacity";
  EXPECT_EQ(M.insert(0, 200, 2), PushResult::Full)
      << "exactly one admission was freed";
  // Reinserting the erased key itself also works (no tombstone shadow).
  ASSERT_TRUE(M.erase(0, 100).isValue());
  EXPECT_EQ(M.insert(0, 5, 55), PushResult::Done);
  const PopResult<std::uint32_t> G = M.get(1, 5);
  ASSERT_TRUE(G.isValue());
  EXPECT_EQ(G.value(), 55u);
  EXPECT_EQ(M.core().liveCountForTesting(), SmallCap);
}

TEST(MapAccessCountTest, FastPolicyIsInvisibleToTheOracle) {
  ContentionSensitiveMap<TasLockT<Fast>, NoBackoff, Fast> M(2, Cap, 2);
  const std::uint32_t K = heightOneKey(0);
  const AccessCounts Counts = countAccesses([&] {
    ASSERT_EQ(M.insert(0, K, 7), PushResult::Done);
    const PopResult<std::uint32_t> G = M.get(1, K);
    ASSERT_TRUE(G.isValue());
    EXPECT_EQ(G.value(), 7u);
    ASSERT_EQ(M.insert(1, K, 8), PushResult::Done);
    const PopResult<std::uint32_t> E = M.erase(0, K);
    ASSERT_TRUE(E.isValue());
    EXPECT_EQ(E.value(), 8u);
    EXPECT_TRUE(M.get(0, K).isEmpty());
  });
  EXPECT_EQ(Counts.total(), 0u)
      << "Fast registers must compile to bare atomics";
}

TEST(SkipListCoreTest, DeterministicHeightsAndValCodecRoundTrip) {
  // Heights are a pure function of the key, in [1, MaxLevel].
  for (std::uint32_t K = 0; K < 512; ++K) {
    const std::uint32_t H = SkipListCore<>::heightOf(K);
    EXPECT_GE(H, 1u);
    EXPECT_LE(H, SkipListCore<>::MaxLevel);
    EXPECT_EQ(H, SkipListCore<>::heightOf(K));
  }
  // The geometric distribution actually spreads: some key within a
  // small prefix gets a tower above level 1.
  bool SawTall = false;
  for (std::uint32_t K = 0; K < 64 && !SawTall; ++K)
    SawTall = SkipListCore<>::heightOf(K) > 1;
  EXPECT_TRUE(SawTall);

  using Codec = SkipListCore<>::ValCodec;
  const auto F = Codec::unpack(Codec::pack({1, 0xDEADBEEFu, 12345}));
  EXPECT_EQ(F.Index, 1u);
  EXPECT_EQ(F.Value, 0xDEADBEEFu);
  EXPECT_EQ(F.Seq, 12345u);
  // The 30-bit ABA tag wraps modulo its mask, never into other fields.
  const std::uint32_t Top = Codec::SeqMask;
  EXPECT_EQ(Codec::seqAdd(Top, 1), 0u);
}

} // namespace
} // namespace csobj
