//===- core/ContentionSensitiveQueue.h - Figure 3 on the queue --*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 3 instantiated over the abortable queue — the construction the
/// paper's generic strong_push_or_pop makes possible "independent of the
/// fact that the operation is push or pop". A contention-free strong
/// enqueue/dequeue performs seven shared-memory accesses (one read of
/// CONTENTION plus the six of the weak queue operation) and takes no
/// lock; starvation-freedom is inherited from the Figure 3 skeleton.
///
/// Over the chunked slot store (memory/SlotStore.h) the same class is the
/// unbounded queue, ContentionSensitiveUnboundedQueue.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVEQUEUE_H
#define CSOBJ_CORE_CONTENTIONSENSITIVEQUEUE_H

#include "core/AbortableQueue.h"
#include "core/ContentionSensitive.h"
#include "locks/TasLock.h"

#include <cstddef>
#include <cstdint>
#include <utility>

namespace csobj {

/// Starvation-free contention-sensitive bounded FIFO queue. \p SkeletonT
/// defaults to the paper's Figure 3 skeleton; the flat-combining and
/// crash-tolerant skeletons plug in the same way (see
/// ContentionSensitiveStack for the contract, and for \p Store).
template <typename Config = Compact64, typename Lock = TasLock,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy,
          typename SkeletonT = ContentionSensitive<Lock, Manager, Policy>,
          typename Store = FlatStore>
class ContentionSensitiveQueue {
public:
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;
  using Skeleton = SkeletonT;
  using Abortable = AbortableQueue<Config, Policy, Store>;

  /// \p NumThreads is the paper's n (ids 0..n-1); \p Capacity is k.
  /// Trailing arguments go to the skeleton after NumThreads (e.g. the
  /// crash-tolerant skeleton's lock patience).
  template <typename... SkeletonArgs>
  ContentionSensitiveQueue(std::uint32_t NumThreads, std::uint32_t Capacity,
                           SkeletonArgs &&...Args)
    requires(!Store::Chunked)
      : Weak(Capacity),
        Strong(NumThreads, std::forward<SkeletonArgs>(Args)...) {}

  /// Over the chunked store there is no capacity to choose (it is the
  /// codec's envelope), and n also sizes the hazard domain.
  explicit ContentionSensitiveQueue(std::uint32_t NumThreads)
    requires(Store::Chunked)
      : Weak(NumThreads), Strong(NumThreads) {}

  /// strong_enqueue(v): Done or Full, never Abort; always terminates.
  PushResult enqueue(std::uint32_t Tid, Value V) {
    return Strong.strongApply(Tid, [this, Id = Caller(Tid), V] {
      return unlessAbort(Weak.weakEnqueue(Id, V));
    });
  }

  /// strong_dequeue(): a value or Empty, never Abort; always terminates.
  PopResult<Value> dequeue(std::uint32_t Tid) {
    return Strong.strongApply(Tid, [this, Id = Caller(Tid)] {
      return unlessAbort(Weak.weakDequeue(Id));
    });
  }

  /// Group enqueue: enqueues Vs[0..Count) in index order as one batch
  /// (one seam acquisition for the contended remainder), stopping at the
  /// first Full answer so the queue receives a prefix of Vs. Returns the
  /// number of values enqueued.
  std::size_t enqueue_all(std::uint32_t Tid, const Value *Vs,
                          std::size_t Count) {
    return strongGroup(Strong, Tid, Count,
                       [this, Id = Caller(Tid), Vs](std::size_t I) {
                         return unlessAbort(Weak.weakEnqueue(Id, Vs[I]));
                       },
                       [](std::size_t, PushResult) {});
  }

  /// Group dequeue: dequeues up to \p MaxCount values into Out[0..] in
  /// FIFO order, stopping at the first Empty answer. Returns the number
  /// of values dequeued.
  std::size_t dequeue_all(std::uint32_t Tid, Value *Out,
                          std::size_t MaxCount) {
    return strongGroup(
        Strong, Tid, MaxCount,
        [this, Id = Caller(Tid)](std::size_t) {
          return unlessAbort(Weak.weakDequeue(Id));
        },
        [Out](std::size_t K, const PopResult<Value> &R) {
          Out[K] = R.value();
        });
  }

  /// Drains the queue: dequeue_all bounded by the caller's buffer.
  std::size_t drain(std::uint32_t Tid, Value *Out, std::size_t MaxOut) {
    return dequeue_all(Tid, Out, MaxOut);
  }

  std::uint32_t capacity() const { return Weak.capacity(); }
  std::uint32_t numThreads() const { return Strong.numThreads(); }
  std::uint32_t sizeForTesting() const { return Weak.sizeForTesting(); }

  /// The underlying abortable queue (test/debug aid).
  Abortable &abortable() { return Weak; }

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
  /// The weak operations' caller identity (see ContentionSensitiveStack).
  using Caller = typename Abortable::Caller;

  Abortable Weak;
  SkeletonT Strong;
};

/// Figure 3 over the unbounded queue (the chunked slot store): a
/// starvation-free contention-sensitive FIFO whose resident memory
/// tracks the live population. Construct with the thread count n.
template <typename Config = Compact64, typename Lock = TasLock,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy,
          typename SkeletonT = ContentionSensitive<Lock, Manager, Policy>>
using ContentionSensitiveUnboundedQueue =
    ContentionSensitiveQueue<Config, Lock, Manager, Policy, SkeletonT,
                             ChunkedStore>;

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVEQUEUE_H
