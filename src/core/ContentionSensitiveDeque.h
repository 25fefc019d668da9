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
#include "core/ObstructionFreeDeque.h"
#include "locks/TasLock.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace csobj {

/// Starvation-free contention-sensitive double-ended queue. \p SkeletonT
/// defaults to the paper's Figure 3 skeleton; the flat-combining and
/// crash-tolerant skeletons plug in the same way (see
/// ContentionSensitiveStack for the contract).
template <typename Lock = TasLock,
          typename SkeletonT = ContentionSensitive<Lock>>
class ContentionSensitiveDeque {
public:
  using Value = ObstructionFreeDeque::Value;
  using Skeleton = SkeletonT;

  /// \p NumThreads is the paper's n; \p Capacity and \p InitialLeftSlots
  /// as in ObstructionFreeDeque. Trailing arguments go to the skeleton
  /// after NumThreads (e.g. the crash-tolerant skeleton's patience).
  template <typename... SkeletonArgs>
  ContentionSensitiveDeque(std::uint32_t NumThreads, std::uint32_t Capacity,
                           std::uint32_t InitialLeftSlots = ~std::uint32_t{0},
                           SkeletonArgs &&...Args)
      : Weak(Capacity, InitialLeftSlots),
        Strong(NumThreads, std::forward<SkeletonArgs>(Args)...) {}

  PushResult pushLeft(std::uint32_t Tid, Value V) {
    return strongPush(Tid, [this, V] { return Weak.tryPushLeft(V); });
  }
  PushResult pushRight(std::uint32_t Tid, Value V) {
    return strongPush(Tid, [this, V] { return Weak.tryPushRight(V); });
  }
  PopResult<Value> popLeft(std::uint32_t Tid) {
    return strongPop(Tid, [this] { return Weak.tryPopLeft(); });
  }
  PopResult<Value> popRight(std::uint32_t Tid) {
    return strongPop(Tid, [this] { return Weak.tryPopRight(); });
  }

  /// Group push on the right end: pushes Vs[0..Count) in index order as
  /// one batch, stopping at the first Full answer (the deque receives a
  /// prefix of Vs). Returns the number pushed.
  std::size_t push_all(std::uint32_t Tid, const Value *Vs,
                       std::size_t Count) {
    if (Count == 0)
      return 0;
    PushResult Inline[BatchInlineCapacity];
    std::vector<PushResult> Heap;
    PushResult *Results = Inline;
    if (Count > BatchInlineCapacity) {
      Heap.resize(Count);
      Results = Heap.data();
    }
    const std::size_t Applied = Strong.strongApplyBatch(
        Tid, Count,
        [this, Vs](std::size_t I) -> std::optional<PushResult> {
          const PushResult Res = Weak.tryPushRight(Vs[I]);
          if (Res == PushResult::Abort)
            return std::nullopt;
          return Res;
        },
        [](PushResult R) { return R == PushResult::Full; },
        Results);
    return Applied != 0 && Results[Applied - 1] == PushResult::Full
               ? Applied - 1
               : Applied;
  }

  /// Group pop from the right end (LIFO relative to push_all): pops up
  /// to \p MaxCount values into Out[0..], stopping at the first Empty
  /// answer. Returns the number popped.
  std::size_t pop_all(std::uint32_t Tid, Value *Out, std::size_t MaxCount) {
    if (MaxCount == 0)
      return 0;
    PopResult<Value> Inline[BatchInlineCapacity];
    std::vector<PopResult<Value>> Heap;
    PopResult<Value> *Results = Inline;
    if (MaxCount > BatchInlineCapacity) {
      Heap.resize(MaxCount);
      Results = Heap.data();
    }
    const std::size_t Applied = Strong.strongApplyBatch(
        Tid, MaxCount,
        [this](std::size_t) -> std::optional<PopResult<Value>> {
          const PopResult<Value> Res = Weak.tryPopRight();
          if (Res.isAbort())
            return std::nullopt;
          return Res;
        },
        [](const PopResult<Value> &R) { return R.isEmpty(); },
        Results);
    std::size_t Got = 0;
    for (std::size_t I = 0; I < Applied; ++I)
      if (Results[I].isValue())
        Out[Got++] = Results[I].value();
    return Got;
  }

  /// Drains the right end: pop_all bounded by the caller's buffer.
  std::size_t drain(std::uint32_t Tid, Value *Out, std::size_t MaxOut) {
    return pop_all(Tid, Out, MaxOut);
  }

  std::uint32_t capacity() const { return Weak.capacity(); }
  std::uint32_t numThreads() const { return Strong.numThreads(); }
  std::uint32_t sizeForTesting() const { return Weak.sizeForTesting(); }

  /// The underlying HLM object (test/debug aid).
  ObstructionFreeDeque &abortable() { return Weak; }

  /// The strong-operation skeleton (test/debug/stats aid).
  SkeletonT &skeleton() { return Strong; }
  const SkeletonT &skeleton() const { return Strong; }

  /// Path-attributed metrics of the skeleton (obs/PathCounters.h).
  obs::PathSnapshot pathSnapshot() const { return Strong.pathSnapshot(); }

  /// Resident bytes of the whole object: the header plus the weak
  /// object's slot array and the skeleton's heap (doorway FLAG array,
  /// combiner records, metric blocks). Feeds the bytes_per_element bench
  /// column (obs/MetricsJson.h).
  std::size_t footprintBytes() const {
    std::size_t Bytes = sizeof(*this) + Strong.heapBytes();
    if constexpr (requires { Weak.heapBytes(); })
      Bytes += Weak.heapBytes();
    return Bytes;
  }

  obs::Path lastPath(std::uint32_t Tid) const {
    return Strong.metrics().lastPath(Tid);
  }

private:
  template <typename AttemptFn>
  PushResult strongPush(std::uint32_t Tid, AttemptFn Attempt) {
    return Strong.strongApply(
        Tid, [&]() -> std::optional<PushResult> {
          const PushResult Res = Attempt();
          if (Res == PushResult::Abort)
            return std::nullopt;
          return Res;
        });
  }

  template <typename AttemptFn>
  PopResult<Value> strongPop(std::uint32_t Tid, AttemptFn Attempt) {
    return Strong.strongApply(
        Tid, [&]() -> std::optional<PopResult<Value>> {
          const PopResult<Value> Res = Attempt();
          if (Res.isAbort())
            return std::nullopt;
          return Res;
        });
  }

  ObstructionFreeDeque Weak;
  SkeletonT Strong;
};

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVEDEQUE_H
