//===- runtime/PushPop.h - One way to drive a push/pop object ---*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How every harness reaches a stack, queue, bag or deque's push and pop:
///
///  * pushOn/popOn call the operation by its name (push, enqueue or a
///    deque's right end, with a process id or without, strong or weak),
///    so no object needs a hand-written adapter. The conformance
///    battery, the lincheck round loop (runtime/LincheckRounds.h), the
///    benches and the examples all go through them.
///  * fromPush/fromPop map an answer to the driver's OpOutcome.
///  * Driven<Obj> owns one object and meets the adapter contract of
///    runtime/Driver.h and soak::runSoak: apply, prefillOne, and the
///    pathSnapshot/lastPath/footprintBytes probes where the object has
///    them.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_RUNTIME_PUSHPOP_H
#define CSOBJ_RUNTIME_PUSHPOP_H

#include "core/Results.h"
#include "obs/PathCounters.h"
#include "runtime/Workload.h"

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

namespace csobj {

/// BoxedStack answers a push with a bool and a pop with an optional.
inline PushResult asPush(PushResult R) { return R; }
inline PushResult asPush(bool Pushed) {
  return Pushed ? PushResult::Done : PushResult::Full;
}
inline PopResult<std::uint32_t> asPop(const PopResult<std::uint32_t> &R) {
  return R;
}
inline PopResult<std::uint32_t> asPop(const std::optional<std::uint32_t> &R) {
  return R ? PopResult<std::uint32_t>::value(*R)
           : PopResult<std::uint32_t>::empty();
}

/// A stack, queue, bag or deque's push and pop: the first of its strong
/// push/enqueue/pushRight (with a process id, then without) or weak
/// weakPush/weakEnqueue that the object has. A deque is driven at its
/// right end.
template <typename O>
PushResult pushOn(O &Obj, std::uint32_t Tid, std::uint32_t V) {
  if constexpr (requires { Obj.push(Tid, V); })
    return asPush(Obj.push(Tid, V));
  else if constexpr (requires { Obj.enqueue(Tid, V); })
    return Obj.enqueue(Tid, V);
  else if constexpr (requires { Obj.pushRight(Tid, V); })
    return Obj.pushRight(Tid, V);
  else if constexpr (requires { Obj.push(V); })
    return Obj.push(V);
  else if constexpr (requires { Obj.enqueue(V); })
    return Obj.enqueue(V);
  else if constexpr (requires { Obj.pushRight(V); })
    return Obj.pushRight(V);
  else if constexpr (requires { Obj.weakPush(Tid, V); })
    return Obj.weakPush(Tid, V);
  else
    return Obj.weakEnqueue(Tid, V);
}

template <typename O>
PopResult<std::uint32_t> popOn(O &Obj, std::uint32_t Tid) {
  if constexpr (requires { Obj.pop(Tid); })
    return asPop(Obj.pop(Tid));
  else if constexpr (requires { Obj.dequeue(Tid); })
    return Obj.dequeue(Tid);
  else if constexpr (requires { Obj.popRight(Tid); })
    return Obj.popRight(Tid);
  else if constexpr (requires { Obj.pop(); })
    return Obj.pop();
  else if constexpr (requires { Obj.dequeue(); })
    return Obj.dequeue();
  else if constexpr (requires { Obj.popRight(); })
    return Obj.popRight();
  else if constexpr (requires { Obj.weakPop(Tid); })
    return Obj.weakPop(Tid);
  else
    return Obj.weakDequeue(Tid);
}

inline OpOutcome fromPush(PushResult R) {
  switch (R) {
  case PushResult::Done:
    return OpOutcome::Ok;
  case PushResult::Full:
    return OpOutcome::Full;
  case PushResult::Abort:
    return OpOutcome::Abort;
  }
  return OpOutcome::Abort;
}

template <typename V> OpOutcome fromPop(const PopResult<V> &R) {
  if (R.isValue())
    return OpOutcome::Ok;
  return R.isEmpty() ? OpOutcome::Empty : OpOutcome::Abort;
}

/// The driver's adapter (runtime/Driver.h) for any stack, queue, bag or
/// deque: it owns one ObjT, built from the object's own constructor
/// arguments, and applies the driver's pushes and pops through
/// pushOn/popOn. Where the object counts its retries (pushCounting or
/// enqueueCounting, popCounting or dequeueCounting), apply reports them.
/// pathSnapshot and footprintBytes exist exactly when the object has
/// them, and lastPath when it also keeps the metric sink pathSnapshot
/// reads, so the driver's and runSoak's probes see the object.
/// A type that only chooses its object's constructor arguments may
/// derive from it.
template <typename ObjT> class Driven {
public:
  template <typename... ArgTs>
    requires std::constructible_from<ObjT, ArgTs...>
  explicit Driven(ArgTs &&...Args) : Obj(std::forward<ArgTs>(Args)...) {}

  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &Retries) {
    const auto Counted = [&Retries](const auto &Attempt) {
      Retries += Attempt.Retries;
      return Attempt.Result;
    };
    if (IsPush) {
      if constexpr (requires { Obj.pushCounting(V); })
        return fromPush(Counted(Obj.pushCounting(V)));
      else if constexpr (requires { Obj.enqueueCounting(V); })
        return fromPush(Counted(Obj.enqueueCounting(V)));
      else
        return fromPush(pushOn(Obj, Tid, V));
    }
    if constexpr (requires { Obj.popCounting(); })
      return fromPop(Counted(Obj.popCounting()));
    else if constexpr (requires { Obj.dequeueCounting(); })
      return fromPop(Counted(Obj.dequeueCounting()));
    else
      return fromPop(popOn(Obj, Tid));
  }

  /// Called single-threaded, before the workers start.
  void prefillOne(std::uint32_t V) { (void)pushOn(Obj, 0, V); }

  obs::PathSnapshot pathSnapshot() const
    requires requires(const ObjT &O) { O.pathSnapshot(); }
  {
    return Obj.pathSnapshot();
  }
  /// A path needs the object's metric sink, which pathSnapshot shows it
  /// keeps: the timestamp boost declares lastPath but keeps none.
  obs::Path lastPath(std::uint32_t Tid) const
    requires requires(const ObjT &O, std::uint32_t T) {
      O.pathSnapshot();
      O.lastPath(T);
    }
  {
    return Obj.lastPath(Tid);
  }
  std::size_t footprintBytes() const
    requires requires(const ObjT &O) { O.footprintBytes(); }
  {
    return Obj.footprintBytes();
  }

  /// The object, for the readings only it has (elimination exchanges,
  /// degradation counters, the hazard domain, the shard mask).
  ObjT &object() { return Obj; }
  const ObjT &object() const { return Obj; }

private:
  ObjT Obj;
};

} // namespace csobj

#endif // CSOBJ_RUNTIME_PUSHPOP_H
