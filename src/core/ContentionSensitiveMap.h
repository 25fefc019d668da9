//===- core/ContentionSensitiveMap.h - Fig 3 over a skip list ---*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first pointer-based key-value object: the paper's Figure 3
/// contention-sensitive pattern applied per key region over a shared
/// reclaiming skip list (core/SkipListCore.h).
///
/// Layout: one SkipListCore holds every key; keys are partitioned into R
/// regions by `key % R`, and each region owns its own Figure 3 skeleton
/// (CONTENTION bit + doorway + lock). An update first tries the weak
/// single-CAS operation as the shortcut; on Abort the *region's*
/// doorway+lock serializes the conflicting writers while writers of
/// other regions and all readers proceed untouched.
///
/// Operation contract:
///  * get(k): lock-free wait-free search, never enters any skeleton —
///    no CONTENTION read, no doorway, no lock, in any state of the
///    object. It books one op + one Shortcut path on the region's sink
///    by hand so PathSnapshot::conserves() spans reads too.
///  * insert(k,v) / erase(k): strongApply on the region skeleton. Solo
///    cost is constant: 1 CONTENTION read + the weak op's bounded count
///    (MaxLevel search reads + O(height) writes/CAS; see map_test's
///    exact oracles) — the map analogue of the stack's 6.
///
/// Progress, honestly stated (DESIGN.md "Ordered map" for the full
/// argument): reads are wait-free always. Updates are per-region
/// starvation-free against same-region contention (the Fig-3 doorway),
/// but a lock-holder's retry can still be aborted by cross-region link
/// interference at shared predecessors, so globally updates are
/// lock-free, not wait-free. A writer that crashes inside its region
/// lock strands that region's update path only — the stall-only
/// progress class on the crash lattice: gets and other regions are
/// unaffected. (Swap Lock for LeasedLock to buy back crash recovery at
/// the price of lease reads on the slow path.)
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVEMAP_H
#define CSOBJ_CORE_CONTENTIONSENSITIVEMAP_H

#include "core/ContentionSensitive.h"
#include "core/SkipListCore.h"
#include "locks/TasLock.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace csobj {

/// Contention-sensitive ordered map: per-region Figure 3 skeletons over
/// one shared skip list.
///
/// \tparam Lock     deadlock-free lock for each region's contended path.
/// \tparam Manager  ContentionManager pacing lock-protected retries.
/// \tparam Policy   register policy (Instrumented / Fast).
/// \tparam SkeletonT the strong-operation skeleton per region.
template <typename Lock = TasLock, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy,
          typename SkeletonT = ContentionSensitive<Lock, Manager, Policy>>
class ContentionSensitiveMap {
public:
  using Key = std::uint32_t;
  using Value = std::uint32_t;
  using RegisterPolicy = Policy;
  using Core = SkipListCore<Policy>;

  static constexpr std::uint32_t DefaultRegionCount = 8;

  /// \p NumThreads is the paper's n; \p Capacity bounds *live* distinct
  /// keys (erase frees capacity — the skip list physically removes and
  /// recycles nodes); \p RegionCount is the number of independent Fig-3
  /// doorway+lock instances (1 degenerates to a single global slow path).
  ContentionSensitiveMap(std::uint32_t NumThreads, std::uint32_t Capacity,
                         std::uint32_t RegionCount = DefaultRegionCount)
      : Weak(NumThreads, Capacity), Regions(RegionCount == 0 ? 1
                                                             : RegionCount) {
    Skels.reserve(Regions);
    for (std::uint32_t R = 0; R < Regions; ++R)
      Skels.push_back(std::make_unique<SkeletonT>(NumThreads));
  }

  /// The region (doorway+lock instance) responsible for \p K.
  std::uint32_t regionOf(Key K) const { return K % Regions; }

  /// Lock-free read: the value at K or Empty. Never aborts, never reads
  /// CONTENTION, never enters a doorway — but still books exactly one
  /// op + one Shortcut path so region snapshots conserve across reads.
  PopResult<Value> get(std::uint32_t Tid, Key K) const {
    const PopResult<Value> Res = Weak.get(Tid, K);
    obs::MetricSink &Sink = Skels[regionOf(K)]->metrics();
    Sink.onOp(Tid);
    Sink.onPath(Tid, obs::Path::Shortcut);
    return Res;
  }

  /// strong insert-or-update: Done or Full, never Abort; terminates
  /// under same-region contention by the Fig-3 argument.
  PushResult insert(std::uint32_t Tid, Key K, Value V) {
    return Skels[regionOf(K)]->strongApply(Tid, [this, Tid, K, V] {
      return unlessAbort(Weak.weakInsert(Tid, K, V));
    });
  }

  /// strong erase: the old value or Empty, never Abort.
  PopResult<Value> erase(std::uint32_t Tid, Key K) {
    return Skels[regionOf(K)]->strongApply(
        Tid, [this, Tid, K] { return unlessAbort(Weak.weakErase(Tid, K)); });
  }

  std::uint32_t capacity() const { return Weak.capacity(); }
  std::uint32_t numThreads() const { return Weak.numThreads(); }
  std::uint32_t numRegions() const { return Regions; }
  std::uint32_t sizeForTesting() const { return Weak.liveCountForTesting(); }

  /// The shared skip list (test/debug aid).
  Core &core() { return Weak; }
  const Core &core() const { return Weak; }

  /// Region R's strong-operation skeleton (test/debug aid).
  SkeletonT &regionSkeleton(std::uint32_t R) { return *Skels[R]; }

  /// Path-attributed metrics merged across every region.
  obs::PathSnapshot pathSnapshot() const {
    obs::PathSnapshot Merged;
    for (const std::unique_ptr<SkeletonT> &Sk : Skels)
      Merged += Sk->pathSnapshot();
    return Merged;
  }

  obs::Path lastPath(std::uint32_t Tid, Key K) const {
    return Skels[regionOf(K)]->metrics().lastPath(Tid);
  }

  /// Resident bytes: header + node pool + every region skeleton (their
  /// doorway arrays and metric blocks). Feeds bytes_per_element.
  std::size_t footprintBytes() const {
    std::size_t Bytes = sizeof(*this) + Weak.heapBytes();
    Bytes += Skels.capacity() * sizeof(std::unique_ptr<SkeletonT>);
    for (const std::unique_ptr<SkeletonT> &Sk : Skels)
      Bytes += sizeof(SkeletonT) + Sk->heapBytes();
    return Bytes;
  }

private:
  Core Weak;
  std::uint32_t Regions;
  std::vector<std::unique_ptr<SkeletonT>> Skels;
};

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVEMAP_H
