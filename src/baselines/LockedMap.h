//===- baselines/LockedMap.h - Coarse lock-based ordered map ----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coarse-grained baseline the contention-sensitive map (E16) has to
/// beat: a sorted array, fully serialized — reads included — by one
/// lock. Capacity counts *live* keys (erase physically removes the
/// entry and frees its slot), exactly the semantics SkipListCore
/// enforces via reclamation, so the two objects answer Full identically
/// and share OrderedMapSpec.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BASELINES_LOCKEDMAP_H
#define CSOBJ_BASELINES_LOCKEDMAP_H

#include "core/Results.h"
#include "locks/LockTraits.h"
#include "locks/TasLock.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace csobj {

/// Bounded ordered map fully serialized by a single lock.
template <typename Lock = TtasLock>
class LockedMap {
public:
  using Key = std::uint32_t;
  using Value = std::uint32_t;

  /// \p NumThreads sizes the lock's per-process state; zero would build
  /// an unusable guard, so it is rejected outright (hard check — the
  /// same audit as AdaptiveShardedStack/SkipListCore construction).
  LockedMap(std::uint32_t NumThreads, std::uint32_t Capacity)
      : Guard(checkedThreads(NumThreads)), CapacityK(Capacity) {
    Entries.reserve(Capacity);
  }

  PopResult<Value> get(std::uint32_t Tid, Key K) {
    ScopedLock<Lock> Hold(Guard, Tid);
    const Entry *E = lookup(K);
    if (E == nullptr)
      return PopResult<Value>::empty();
    return PopResult<Value>::value(E->Val);
  }

  PushResult insert(std::uint32_t Tid, Key K, Value V) {
    ScopedLock<Lock> Hold(Guard, Tid);
    if (Entry *E = lookup(K)) {
      E->Val = V;
      return PushResult::Done;
    }
    if (Entries.size() >= CapacityK)
      return PushResult::Full;
    Entries.insert(std::lower_bound(Entries.begin(), Entries.end(), K,
                                    [](const Entry &E, Key Needle) {
                                      return E.K < Needle;
                                    }),
                   Entry{K, V});
    return PushResult::Done;
  }

  PopResult<Value> erase(std::uint32_t Tid, Key K) {
    ScopedLock<Lock> Hold(Guard, Tid);
    Entry *E = lookup(K);
    if (E == nullptr)
      return PopResult<Value>::empty();
    const Value Old = E->Val;
    Entries.erase(Entries.begin() + (E - Entries.data()));
    return PopResult<Value>::value(Old);
  }

  std::uint32_t capacity() const { return CapacityK; }

  std::uint32_t sizeForTesting() const {
    return static_cast<std::uint32_t>(Entries.size());
  }

  /// Resident bytes (header + entry storage), for bytes_per_element.
  std::size_t footprintBytes() const {
    return sizeof(*this) + Entries.capacity() * sizeof(Entry);
  }

private:
  struct Entry {
    Key K;
    Value Val;
  };

  static std::uint32_t checkedThreads(std::uint32_t NumThreads) {
    if (NumThreads < 1)
      throw std::invalid_argument("LockedMap: need at least one process");
    return NumThreads;
  }

  Entry *lookup(Key K) {
    auto It = std::lower_bound(
        Entries.begin(), Entries.end(), K,
        [](const Entry &E, Key Needle) { return E.K < Needle; });
    if (It == Entries.end() || It->K != K)
      return nullptr;
    return &*It;
  }

  Lock Guard;
  const std::uint32_t CapacityK;
  std::vector<Entry> Entries;
};

} // namespace csobj

#endif // CSOBJ_BASELINES_LOCKEDMAP_H
