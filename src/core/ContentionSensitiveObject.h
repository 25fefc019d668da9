//===- core/ContentionSensitiveObject.h - The Figure 3 wrapper --*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one wrapper every strong object shares. The paper's Figure 3 is a
/// single strong_push_or_pop(par), "independent of the fact that the
/// operation is push or pop"; this class is that independence as code.
/// It holds three parts:
///
///   the weak object — an abortable object whose attempts may answer
///     bottom: Figure 1's stack, the abortable queue, the HLM deque, the
///     abortable counter;
///   the skeleton — what makes an attempt strong: Figure 3
///     (core/ContentionSensitive.h) over a lock-retry or a combining slow
///     path, or the timestamp boost (core/TimestampBoost.h);
///   the rescue — what fills the skeleton's window between a failed
///     shortcut and its slow path: nothing (NoRescue), or one elimination
///     rendezvous (EliminationRescue, perf/EliminationArray.h).
///
/// It writes construction, the strong-operation seam, the group seam and
/// the accessors once. ContentionSensitiveStack, ...Queue, ...Deque and
/// ...Counter derive from it and add only their named operations, each a
/// forward into one of the two seams. A member is compiled only when
/// called, so a weak object or skeleton that lacks what an accessor needs
/// (the counter has no capacity, the timestamp boost no metric sink)
/// still serves every other member.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVEOBJECT_H
#define CSOBJ_CORE_CONTENTIONSENSITIVEOBJECT_H

#include "core/ContentionSensitive.h"
#include "core/Results.h"
#include "obs/PathCounters.h"

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace csobj {

/// Groups up to this size keep their per-element answers on the caller's
/// stack; larger groups fall back to one heap allocation, so common batch
/// sizes add zero allocator traffic to the operation path.
inline constexpr std::size_t BatchInlineCapacity = 64;

/// The absent rescue: the wrapper opens no acceleration window.
struct NoRescue {};

/// Figure 3 around one weak object.
///
/// \tparam WeakT     the abortable object.
/// \tparam SkeletonT the strong-operation skeleton: constructed from
///         (NumThreads, trailing constructor arguments), it provides
///         strongApply(Tid, WeakOp[, Rescue]) and, for the group
///         operations and accessors that use them, strongApplyBatch,
///         numThreads, metrics, pathSnapshot and heapBytes.
/// \tparam RescueT   NoRescue, or a rescue with a force-first knob
///         (EliminationRescue); its operations are named by the object.
template <typename WeakT, typename SkeletonT, typename RescueT = NoRescue>
class ContentionSensitiveObject {
public:
  using Abortable = WeakT;
  using Skeleton = SkeletonT;
  using Rescue = RescueT;

  std::uint32_t capacity() const { return Weak.capacity(); }
  std::uint32_t numThreads() const { return Strong.numThreads(); }
  std::uint32_t sizeForTesting() const { return Weak.sizeForTesting(); }

  /// The underlying weak object (test/debug aid).
  WeakT &abortable() { return Weak; }

  /// The strong-operation skeleton (test/debug/stats aid).
  SkeletonT &skeleton() { return Strong; }
  const SkeletonT &skeleton() const { return Strong; }

  /// The rescue (test/stats aid): its array and its force-first knob.
  RescueT &rescue() { return Resc; }
  const RescueT &rescue() const { return Resc; }

  /// Path-attributed metrics of the skeleton (obs/PathCounters.h); the
  /// rescue books its Eliminated path and pairing events there too.
  /// Constrained, because generic code probes for it: a skeleton without
  /// a metric sink (the timestamp boost) reports none.
  obs::PathSnapshot pathSnapshot() const
    requires requires(const SkeletonT &S) { S.pathSnapshot(); }
  {
    return Strong.pathSnapshot();
  }

  /// Resident bytes of the whole object: the header plus the heap of the
  /// weak object (its slot array), the skeleton (doorway FLAG array,
  /// combiner records, metric blocks) and the rescue (the elimination
  /// slots it owns). Feeds the bytes_per_element bench column
  /// (obs/MetricsJson.h).
  std::size_t footprintBytes() const {
    std::size_t Bytes = sizeof(*this) + Strong.heapBytes();
    if constexpr (requires { Weak.heapBytes(); })
      Bytes += Weak.heapBytes();
    if constexpr (requires { Resc.heapBytes(); })
      Bytes += Resc.heapBytes();
    return Bytes;
  }

  obs::Path lastPath(std::uint32_t Tid) const {
    return Strong.metrics().lastPath(Tid);
  }

protected:
  /// \p NumThreads is the paper's n (ids 0..n-1); \p WeakFrom constructs
  /// the weak object. Trailing arguments go to the skeleton after
  /// NumThreads (e.g. the crash-tolerant skeleton's lock patience).
  template <typename... WeakArgs, typename... SkeletonArgs>
    requires std::is_same_v<RescueT, NoRescue>
  ContentionSensitiveObject(std::uint32_t NumThreads,
                            std::tuple<WeakArgs...> WeakFrom,
                            SkeletonArgs &&...Args)
      : Weak(std::make_from_tuple<WeakT>(WeakFrom)),
        Strong(NumThreads, std::forward<SkeletonArgs>(Args)...) {}

  /// With a rescue, trailing arguments go to the rescue instead (e.g.
  /// the elimination array's slot count and spin budget).
  template <typename... WeakArgs, typename... RescueArgs>
    requires(!std::is_same_v<RescueT, NoRescue>)
  ContentionSensitiveObject(std::uint32_t NumThreads,
                            std::tuple<WeakArgs...> WeakFrom,
                            RescueArgs &&...Args)
      : Weak(std::make_from_tuple<WeakT>(WeakFrom)),
        Resc(std::forward<RescueArgs>(Args)...), Strong(NumThreads) {}

  /// The strong-operation seam: \p WeakOp under the skeleton. With a
  /// rescue, \p RescueOp(Rescue, Weak, Sink) fills the skeleton's rescue
  /// window, and the rescue's force-first knob may run it ahead of the
  /// shortcut. Without one, RescueOp is never instantiated.
  template <typename WeakOpFn, typename RescueOpFn = NoRescue>
  auto strong(std::uint32_t Tid, WeakOpFn WeakOp, RescueOpFn RescueOp = {}) {
    if constexpr (std::is_same_v<RescueT, NoRescue>) {
      return Strong.strongApply(Tid, WeakOp);
    } else {
      auto Window = [&] { return RescueOp(Resc, Weak, Strong.metrics()); };
      return Resc.first(Tid, Strong.metrics(), Window, [&] {
        return Strong.strongApply(Tid, WeakOp, Window);
      });
    }
  }

  /// The group seam (push_all, pop_all, add_all, ...): applies
  /// \p WeakAt(0..Count) — weak attempts with strongApply's optional
  /// contract — through the skeleton's batch seam, stopping at the first
  /// Full or Empty answer so the object takes a prefix of the group. Each
  /// applied answer other than that stop is handed to \p Take(K, Answer),
  /// K counting from 0; returns how many were. The per-element answers
  /// live on the caller's stack up to BatchInlineCapacity and in one heap
  /// block beyond.
  template <typename WeakAtFn, typename TakeFn>
  std::size_t group(std::uint32_t Tid, std::size_t Count, WeakAtFn WeakAt,
                    TakeFn Take) {
    using Answer =
        typename std::invoke_result_t<WeakAtFn &, std::size_t>::value_type;
    auto Stops = [](const Answer &A) {
      if constexpr (std::is_same_v<Answer, PushResult>)
        return A == PushResult::Full;
      else if constexpr (requires { A.isEmpty(); })
        return A.isEmpty();
      else
        return false;
    };
    if (Count == 0)
      return 0;
    Answer Inline[BatchInlineCapacity];
    std::vector<Answer> Heap;
    Answer *Answers = Inline;
    if (Count > BatchInlineCapacity) {
      Heap.resize(Count);
      Answers = Heap.data();
    }
    const std::size_t Applied =
        Strong.strongApplyBatch(Tid, Count, WeakAt, Stops, Answers);
    std::size_t Taken = 0;
    for (std::size_t I = 0; I < Applied; ++I)
      if (!Stops(Answers[I]))
        Take(Taken++, Answers[I]);
    return Taken;
  }

  WeakT Weak;
  /// Empty without a rescue; an elimination rescue fits in the padding
  /// in front of the cache-line-aligned skeleton.
  [[no_unique_address]] RescueT Resc;
  SkeletonT Strong;
};

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVEOBJECT_H
