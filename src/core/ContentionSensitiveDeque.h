//===- core/ContentionSensitiveDeque.h - Figure 3 on the deque --*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 3 instantiated over the HLM obstruction-free deque (the
/// paper's reference [8]). This closes the loop the paper opens when it
/// ranks progress conditions in Section 1.2: HLM is the canonical
/// *obstruction-free-only* object (two symmetric operations can abort
/// each other forever under an adversarial scheduler), and the paper's
/// generic construction lifts exactly such objects to
/// starvation-freedom. A contention-free strong operation on an end is
/// lock-free and costs the weak attempt plus one read of CONTENTION.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVEDEQUE_H
#define CSOBJ_CORE_CONTENTIONSENSITIVEDEQUE_H

#include "core/ContentionSensitive.h"
#include "core/ContentionSensitiveObject.h"
#include "core/ObstructionFreeDeque.h"
#include "locks/TasLock.h"

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>

namespace csobj {

/// Starvation-free contention-sensitive double-ended queue. \p SkeletonT
/// defaults to the paper's Figure 3 skeleton; the flat-combining and
/// crash-tolerant skeletons plug in the same way (see
/// ContentionSensitiveStack for the contract).
template <typename Lock = TasLock,
          typename SkeletonT = ContentionSensitive<Lock>>
class ContentionSensitiveDeque
    : public ContentionSensitiveObject<ObstructionFreeDeque, SkeletonT> {
  using Base = ContentionSensitiveObject<ObstructionFreeDeque, SkeletonT>;

public:
  using Value = ObstructionFreeDeque::Value;

  /// \p NumThreads is the paper's n; \p Capacity and \p InitialLeftSlots
  /// as in ObstructionFreeDeque. Trailing arguments go to the skeleton
  /// after NumThreads (e.g. the crash-tolerant skeleton's lock patience).
  template <typename... SkeletonArgs>
  ContentionSensitiveDeque(std::uint32_t NumThreads, std::uint32_t Capacity,
                           std::uint32_t InitialLeftSlots = ~std::uint32_t{0},
                           SkeletonArgs &&...Args)
      : Base(NumThreads, std::tuple{Capacity, InitialLeftSlots},
             std::forward<SkeletonArgs>(Args)...) {}

  PushResult pushLeft(std::uint32_t Tid, Value V) {
    return this->strong(
        Tid, [this, V] { return unlessAbort(this->Weak.tryPushLeft(V)); });
  }
  PushResult pushRight(std::uint32_t Tid, Value V) {
    return this->strong(
        Tid, [this, V] { return unlessAbort(this->Weak.tryPushRight(V)); });
  }
  PopResult<Value> popLeft(std::uint32_t Tid) {
    return this->strong(
        Tid, [this] { return unlessAbort(this->Weak.tryPopLeft()); });
  }
  PopResult<Value> popRight(std::uint32_t Tid) {
    return this->strong(
        Tid, [this] { return unlessAbort(this->Weak.tryPopRight()); });
  }

  /// Group push on the right end: pushes Vs[0..Count) in index order as
  /// one batch, stopping at the first Full answer (the deque receives a
  /// prefix of Vs). Returns the number pushed.
  std::size_t push_all(std::uint32_t Tid, const Value *Vs,
                       std::size_t Count) {
    return this->group(Tid, Count,
                       [this, Vs](std::size_t I) {
                         return unlessAbort(this->Weak.tryPushRight(Vs[I]));
                       },
                       [](std::size_t, PushResult) {});
  }

  /// Group pop from the right end (LIFO relative to push_all): pops up
  /// to \p MaxCount values into Out[0..], stopping at the first Empty
  /// answer. Returns the number popped.
  std::size_t pop_all(std::uint32_t Tid, Value *Out, std::size_t MaxCount) {
    return this->group(
        Tid, MaxCount,
        [this](std::size_t) { return unlessAbort(this->Weak.tryPopRight()); },
        [Out](std::size_t K, const PopResult<Value> &R) {
          Out[K] = R.value();
        });
  }

  /// Drains the right end: pop_all bounded by the caller's buffer.
  std::size_t drain(std::uint32_t Tid, Value *Out, std::size_t MaxOut) {
    return pop_all(Tid, Out, MaxOut);
  }
};

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVEDEQUE_H
