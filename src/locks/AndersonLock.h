//===- locks/AndersonLock.h - Anderson's array queue lock -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Anderson's array-based queueing lock (IEEE TPDS 1990): a fetch-and-add
/// hands each arrival its own padded slot to spin on; release flips the
/// next slot. FIFO, hence starvation-free, with one remote write per
/// handoff — the array-based sibling of MCS/CLH in the lock substrate.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_ANDERSONLOCK_H
#define CSOBJ_LOCKS_ANDERSONLOCK_H

#include "memory/AtomicRegister.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace csobj {

/// Anderson's array lock over dense thread ids.
class AndersonLock {
public:
  static constexpr const char *Name = "anderson";

  explicit AndersonLock(std::uint32_t NumThreads)
      : N(NumThreads),
        Slots(new CacheLinePadded<AtomicRegister<std::uint8_t>>[NumThreads]),
        Holding(new std::uint32_t[NumThreads]) {
    assert(NumThreads >= 1 && "lock needs at least one process");
    Slots[0].value().write(1); // Slot 0 starts granted.
    for (std::uint32_t I = 1; I < NumThreads; ++I)
      Slots[I].value().write(0);
  }

  void lock(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    const std::uint32_t MySlot = Ticket.fetchAdd(1) % N;
    Holding[Tid] = MySlot;
    SpinWait Waiter;
    while (Slots[MySlot].value().read() == 0)
      Waiter.once();
    // Consume the grant so the slot can be reused a lap later.
    Slots[MySlot].value().write(0);
  }

  void unlock(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    Slots[(Holding[Tid] + 1) % N].value().write(1);
  }

  /// Heap owned by the lock: the padded grant slots and the per-process
  /// slot indices.
  std::size_t heapBytes() const {
    return std::size_t{N} *
           (sizeof(CacheLinePadded<AtomicRegister<std::uint8_t>>) +
            sizeof(std::uint32_t));
  }

private:
  const std::uint32_t N;
  AtomicRegister<std::uint32_t> Ticket{0};
  std::unique_ptr<CacheLinePadded<AtomicRegister<std::uint8_t>>[]> Slots;
  std::unique_ptr<std::uint32_t[]> Holding; ///< Slot taken, per thread.
};

} // namespace csobj

#endif // CSOBJ_LOCKS_ANDERSONLOCK_H
