//===- core/ContentionSensitiveStack.h - Figure 3 applied -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The headline object of the paper: a linearizable, starvation-free,
/// contention-sensitive bounded stack — Figure 3 instantiated over the
/// abortable stack of Figure 1.
///
///  * strong_push(v) / strong_pop() never return bottom (Lemma 1) and
///    always terminate (Lemmas 2-3, Theorem 1).
///  * In a contention-free context an operation uses no lock and performs
///    exactly six shared-memory accesses (one read of CONTENTION plus the
///    five of the weak operation) — experiment E1 audits this count.
///  * Under contention a single deadlock-free lock serializes the
///    conflicting operations and the FLAG/TURN doorway makes the whole
///    construction starvation-free.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVESTACK_H
#define CSOBJ_CORE_CONTENTIONSENSITIVESTACK_H

#include "core/AbortableStack.h"
#include "core/ContentionSensitive.h"
#include "locks/TasLock.h"

#include <cstddef>
#include <cstdint>
#include <utility>

namespace csobj {

/// Figure 3 over Figure 1: starvation-free contention-sensitive stack.
///
/// \tparam Config   codec family (Compact64 / Wide128).
/// \tparam Lock     deadlock-free lock used on the contended path.
/// \tparam Manager  ContentionManager pacing the lock-protected retry.
/// \tparam Policy   register policy (Instrumented / Fast).
/// \tparam SkeletonT the strong-operation skeleton. The default is the
///         paper's Figure 3; the crash-tolerant and flat-combining
///         skeletons (core/ContentionSensitive.h, perf/CombiningSlowPath.h)
///         plug in the same way, as does any type with the same
///         constructor, strongApply, strongApplyBatch and heapBytes. A
///         member is compiled only when called, so a skeleton with only
///         strongApply still serves push/pop.
template <typename Config = Compact64, typename Lock = TasLock,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy,
          typename SkeletonT = ContentionSensitive<Lock, Manager, Policy>>
class ContentionSensitiveStack {
public:
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;
  using Skeleton = SkeletonT;
  static constexpr Value Bottom = AbortableStack<Config, Policy>::Bottom;

  /// \p NumThreads is the paper's n (ids 0..n-1); \p Capacity is k.
  /// Trailing arguments go to the skeleton after NumThreads (e.g. the
  /// crash-tolerant skeleton's lock patience).
  template <typename... SkeletonArgs>
  ContentionSensitiveStack(std::uint32_t NumThreads, std::uint32_t Capacity,
                           SkeletonArgs &&...Args)
      : Weak(Capacity),
        Strong(NumThreads, std::forward<SkeletonArgs>(Args)...) {}

  /// strong_push(v): Done or Full, never Abort; always terminates.
  PushResult push(std::uint32_t Tid, Value V) {
    return Strong.strongApply(
        Tid, [this, V] { return unlessAbort(Weak.weakPush(V)); });
  }

  /// strong_pop(): a value or Empty, never Abort; always terminates.
  PopResult<Value> pop(std::uint32_t Tid) {
    return Strong.strongApply(Tid,
                              [this] { return unlessAbort(Weak.weakPop()); });
  }

  /// Group push: pushes Vs[0..Count) in index order as one batch through
  /// the skeleton's group seam (one doorway/lock or combiner-record
  /// acquisition for the whole contended remainder). Stops at the first
  /// Full answer — the remainder of the batch is rejected, so the stack
  /// always receives a prefix of Vs. Returns the number of values
  /// actually pushed.
  std::size_t push_all(std::uint32_t Tid, const Value *Vs,
                       std::size_t Count) {
    return strongGroup(
        Strong, Tid, Count,
        [this, Vs](std::size_t I) { return unlessAbort(Weak.weakPush(Vs[I])); },
        [](std::size_t, PushResult) {});
  }

  /// Group pop: pops up to \p MaxCount values into Out[0..] in pop
  /// order, stopping at the first Empty answer. Returns the number of
  /// values popped.
  std::size_t pop_all(std::uint32_t Tid, Value *Out, std::size_t MaxCount) {
    return strongGroup(
        Strong, Tid, MaxCount,
        [this](std::size_t) { return unlessAbort(Weak.weakPop()); },
        [Out](std::size_t K, const PopResult<Value> &R) {
          Out[K] = R.value();
        });
  }

  /// Drains the stack: pop_all bounded by the caller's buffer. A single
  /// drain observes Empty once and stops; values pushed concurrently
  /// after that answer are left behind (drain is a batch, not a barrier).
  std::size_t drain(std::uint32_t Tid, Value *Out, std::size_t MaxOut) {
    return pop_all(Tid, Out, MaxOut);
  }

  std::uint32_t capacity() const { return Weak.capacity(); }
  std::uint32_t numThreads() const { return Strong.numThreads(); }
  std::uint32_t sizeForTesting() const { return Weak.sizeForTesting(); }

  /// The underlying Figure 1 object (test/debug aid).
  AbortableStack<Config, Policy> &abortable() { return Weak; }

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
  AbortableStack<Config, Policy> Weak;
  SkeletonT Strong;
};

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVESTACK_H
