//===- core/BoxedStack.h - Arbitrary payloads over the core -----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's stack carries register-sized values (its TOP register
/// stores the value inline). BoxedStack<T> lifts that to arbitrary C++
/// payloads: values live in a preallocated slot array, a lock-free
/// IndexPool hands out slots, and the contention-sensitive stack of
/// Figure 3 stores the slot indices. A slot is its process's alone from
/// acquisition until it is pushed and from its pop until its release.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_BOXEDSTACK_H
#define CSOBJ_CORE_BOXEDSTACK_H

#include "core/ContentionSensitiveStack.h"
#include "memory/IndexPool.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

namespace csobj {

/// Starvation-free contention-sensitive stack of arbitrary T.
template <typename T, typename Lock = TasLock>
class BoxedStack {
public:
  /// \p NumThreads is the paper's n; \p Capacity the element bound. The
  /// pool's sizing rule (memory/IndexPool.h) makes Full the index
  /// stack's answer alone.
  BoxedStack(std::uint32_t NumThreads, std::uint32_t Capacity)
      : Pool(Capacity, NumThreads), Slots(new T[Pool.size()]),
        Indices(NumThreads, Capacity) {}

  /// Pushes \p V. Returns false when the stack is full.
  bool push(std::uint32_t Tid, T V) {
    const std::uint32_t Idx = Pool.acquire();
    Slots[Idx] = std::move(V);
    if (Indices.push(Tid, Idx) == PushResult::Full) {
      Pool.release(Idx);
      return false;
    }
    return true;
  }

  /// Pops the most recent value, or nullopt when empty.
  std::optional<T> pop(std::uint32_t Tid) {
    const PopResult<std::uint32_t> Res = Indices.pop(Tid);
    if (!Res.isValue())
      return std::nullopt;
    const std::uint32_t Idx = Res.value();
    T Out = std::move(Slots[Idx]);
    Pool.release(Idx);
    return Out;
  }

  std::uint32_t capacity() const { return Indices.capacity(); }
  std::uint32_t sizeForTesting() const { return Indices.sizeForTesting(); }

private:
  IndexPool<> Pool;
  std::unique_ptr<T[]> Slots;
  ContentionSensitiveStack<Compact64, Lock> Indices;
};

} // namespace csobj

#endif // CSOBJ_CORE_BOXEDSTACK_H
