//===- baselines/TreiberStack.h - Classic lock-free stack -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Treiber's linked lock-free stack (IBM RC 5118, 1986), the canonical
/// CAS-retry stack and the natural baseline for the paper's array-based
/// family. Its top is a second tagged index list over the node pool's
/// links (memory/IndexPool.h): the head word carries Section 2.2's ABA
/// tag and the depth, and Full is a depth of k read from it, as Figure 1
/// reads it from TOP's index.
///
/// The retry loops make the structure *lock-free* (some operation always
/// completes) but not starvation-free, and unlike Figure 1 an individual
/// attempt is never surfaced as aborted — contrast objects for
/// experiments E2-E5.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BASELINES_TREIBERSTACK_H
#define CSOBJ_BASELINES_TREIBERSTACK_H

#include "core/Results.h"
#include "memory/AtomicRegister.h"
#include "memory/IndexPool.h"

#include <cstdint>
#include <memory>

namespace csobj {

/// Bounded Treiber stack over a preallocated node pool.
///
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Policy = DefaultRegisterPolicy>
class TreiberStackT {
public:
  using Value = std::uint32_t;
  using RegisterPolicy = Policy;

  /// \p NumThreads is the paper's n; \p Capacity the element bound.
  TreiberStackT(std::uint32_t NumThreads, std::uint32_t Capacity)
      : K(Capacity), Pool(Capacity, NumThreads),
        Payloads(new AtomicRegister<Value, Policy>[Pool.size()]),
        Top(Pool.emptyList()) {}

  /// Pushes \p V; Full when the stack holds k values.
  PushResult push(Value V) {
    std::uint64_t Observed = Top.read();
    if (List::count(Observed) >= K)
      return PushResult::Full;
    const std::uint32_t Idx = Pool.acquire();
    Payloads[Idx].write(V);
    while (!Top.tryPush(Observed, Idx)) {
      Observed = Top.read();
      if (List::count(Observed) >= K) {
        Pool.release(Idx);
        return PushResult::Full;
      }
    }
    return PushResult::Done;
  }

  /// Pops the top value; Empty when the stack is empty.
  PopResult<Value> pop() {
    while (true) {
      const PopResult<Value> Res = tryPopOnce();
      if (!Res.isAbort())
        return Res;
    }
  }

  /// Single head-CAS push attempt: Done, Full, or Abort when the CAS
  /// lost a race. This makes the Treiber stack an *abortable* object in
  /// the paper's sense, so it can be wrapped by the Figure 3 construction
  /// (ablation E8) and by the elimination layer.
  PushResult tryPushOnce(Value V) {
    const std::uint64_t Observed = Top.read();
    if (List::count(Observed) >= K)
      return PushResult::Full;
    const std::uint32_t Idx = Pool.acquire();
    Payloads[Idx].write(V);
    if (Top.tryPush(Observed, Idx))
      return PushResult::Done;
    Pool.release(Idx);
    return PushResult::Abort;
  }

  /// Single head-CAS pop attempt: value, Empty, or Abort on a lost race.
  /// The payload is read after the CAS, which makes the node ours.
  PopResult<Value> tryPopOnce() {
    const std::uint64_t Observed = Top.read();
    if (List::isEmpty(Observed))
      return PopResult<Value>::empty();
    if (!Top.tryPop(Observed))
      return PopResult<Value>::abort();
    const std::uint32_t Idx = List::top(Observed);
    const Value V = Payloads[Idx].read();
    Pool.release(Idx);
    return PopResult<Value>::value(V);
  }

  std::uint32_t capacity() const { return K; }

  /// Element count read from the top word (test/debug aid).
  std::uint32_t sizeForTesting() const { return Top.countForTesting(); }

private:
  using List = TaggedIndexList<Policy>;

  const std::uint32_t K;
  IndexPool<Policy> Pool;
  std::unique_ptr<AtomicRegister<Value, Policy>[]> Payloads;
  List Top;
};

/// The library-default Treiber stack (instrumented unless
/// CSOBJ_FAST_REGISTERS).
using TreiberStack = TreiberStackT<>;

} // namespace csobj

#endif // CSOBJ_BASELINES_TREIBERSTACK_H
