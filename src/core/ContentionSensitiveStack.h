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
/// Over the chunked slot store (memory/SlotStore.h) the same class is the
/// unbounded stack, ContentionSensitiveUnboundedStack: resident memory
/// tracks the live population and the six-access bound is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVESTACK_H
#define CSOBJ_CORE_CONTENTIONSENSITIVESTACK_H

#include "core/AbortableStack.h"
#include "core/ContentionSensitive.h"
#include "core/ContentionSensitiveObject.h"
#include "locks/TasLock.h"

#include <cstddef>
#include <cstdint>
#include <tuple>
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
///         plug in the same way, as does the timestamp boost
///         (core/TimestampBoost.h), which has only strongApply and so
///         serves push/pop.
/// \tparam Store    the weak stack's slot store (FlatStore / ChunkedStore).
/// \tparam RescueT  what a failed shortcut tries before the slow path:
///         NoRescue, or an elimination rendezvous (EliminationRescue,
///         perf/EliminationArray.h), whose gate reads this stack's TOP.
template <typename Config = Compact64, typename Lock = TasLock,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy,
          typename SkeletonT = ContentionSensitive<Lock, Manager, Policy>,
          typename Store = FlatStore, typename RescueT = NoRescue>
class ContentionSensitiveStack
    : public ContentionSensitiveObject<AbortableStack<Config, Policy, Store>,
                                       SkeletonT, RescueT> {
  using Base = ContentionSensitiveObject<AbortableStack<Config, Policy, Store>,
                                         SkeletonT, RescueT>;
  /// The weak operations' caller identity: the thread id, or nothing
  /// over the flat store, so its closures match the plain array code's.
  using Caller = typename Base::Abortable::Caller;

public:
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;
  static constexpr Value Bottom = Base::Abortable::Bottom;

  /// \p NumThreads is the paper's n (ids 0..n-1); \p Capacity is k.
  /// Trailing arguments go to the skeleton after NumThreads (e.g. the
  /// crash-tolerant skeleton's lock patience), or to the rescue when
  /// there is one (e.g. the elimination array's size).
  template <typename... Trailing>
  ContentionSensitiveStack(std::uint32_t NumThreads, std::uint32_t Capacity,
                           Trailing &&...Args)
    requires(!Store::Chunked)
      : Base(NumThreads, std::tuple{Capacity},
             std::forward<Trailing>(Args)...) {}

  /// Over the chunked store there is no capacity to choose (it is the
  /// codec's envelope), and n also sizes the hazard domain.
  explicit ContentionSensitiveStack(std::uint32_t NumThreads)
    requires(Store::Chunked)
      : Base(NumThreads, std::tuple{NumThreads}) {}

  /// strong_push(v): Done or Full, never Abort; always terminates. A
  /// rescue gives \p V to a concurrent pop.
  PushResult push(std::uint32_t Tid, Value V) {
    return this->strong(
        Tid,
        [this, Id = Caller(Tid), V] {
          return unlessAbort(this->Weak.weakPush(Id, V));
        },
        [Tid, V](auto &Rescuer, auto &Guarded, auto &Sink) {
          return Rescuer.give(Tid, Guarded, Sink, V);
        });
  }

  /// strong_pop(): a value or Empty, never Abort; always terminates. A
  /// rescue takes the value of a concurrent push.
  PopResult<Value> pop(std::uint32_t Tid) {
    return this->strong(
        Tid,
        [this, Id = Caller(Tid)] {
          return unlessAbort(this->Weak.weakPop(Id));
        },
        [Tid](auto &Rescuer, auto &Guarded, auto &Sink) {
          return Rescuer.take(Tid, Guarded, Sink);
        });
  }

  /// Group push: pushes Vs[0..Count) in index order as one batch through
  /// the skeleton's group seam (one doorway/lock or combiner-record
  /// acquisition for the whole contended remainder). Stops at the first
  /// Full answer — the remainder of the batch is rejected, so the stack
  /// always receives a prefix of Vs. Returns the number of values
  /// actually pushed.
  std::size_t push_all(std::uint32_t Tid, const Value *Vs,
                       std::size_t Count) {
    return this->group(
        Tid, Count,
        [this, Id = Caller(Tid), Vs](std::size_t I) {
          return unlessAbort(this->Weak.weakPush(Id, Vs[I]));
        },
        [](std::size_t, PushResult) {});
  }

  /// Group pop: pops up to \p MaxCount values into Out[0..] in pop
  /// order, stopping at the first Empty answer. Returns the number of
  /// values popped.
  std::size_t pop_all(std::uint32_t Tid, Value *Out, std::size_t MaxCount) {
    return this->group(
        Tid, MaxCount,
        [this, Id = Caller(Tid)](std::size_t) {
          return unlessAbort(this->Weak.weakPop(Id));
        },
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
};

/// Figure 3 over the unbounded Figure 1 (the chunked slot store): a
/// starvation-free contention-sensitive stack whose resident memory
/// tracks the live population. Construct with the thread count n.
template <typename Config = Compact64, typename Lock = TasLock,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy,
          typename SkeletonT = ContentionSensitive<Lock, Manager, Policy>>
using ContentionSensitiveUnboundedStack =
    ContentionSensitiveStack<Config, Lock, Manager, Policy, SkeletonT,
                             ChunkedStore>;

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVESTACK_H
