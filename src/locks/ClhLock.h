//===- locks/ClhLock.h - CLH queue lock -------------------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Craig / Landin-Hagersten queue lock: an implicit queue where each
/// waiter spins on its *predecessor's* node. FIFO, hence starvation-free.
/// Uses the classic n+1 recycled-node scheme: a releasing thread adopts
/// its predecessor's node for its next acquisition, so the lock is
/// allocation-free after construction.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_CLHLOCK_H
#define CSOBJ_LOCKS_CLHLOCK_H

#include "memory/AtomicRegister.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace csobj {

/// CLH implicit-queue lock over dense thread ids.
class ClhLock {
public:
  static constexpr const char *Name = "clh";

  explicit ClhLock(std::uint32_t NumThreads)
      : N(NumThreads),
        Flags(new CacheLinePadded<AtomicRegister<std::uint8_t>>[NumThreads +
                                                                1]),
        Owned(new std::uint32_t[NumThreads]),
        Watching(new std::uint32_t[NumThreads]) {
    assert(NumThreads >= 1 && "CLH lock needs at least one process");
    // Node NumThreads starts as the released sentinel at the tail; each
    // thread i initially owns node i.
    Flags[NumThreads].value().write(0);
    Tail.write(NumThreads);
    for (std::uint32_t I = 0; I < NumThreads; ++I) {
      Flags[I].value().write(0);
      Owned[I] = I;
      Watching[I] = I; // Placeholder until first lock().
    }
  }

  void lock(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    const std::uint32_t Mine = Owned[Tid];
    Flags[Mine].value().write(1); // "I want / hold the lock."
    const std::uint32_t Pred = Tail.exchange(Mine);
    Watching[Tid] = Pred;
    SpinWait Waiter;
    while (Flags[Pred].value().read() != 0)
      Waiter.once();
  }

  void unlock(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    const std::uint32_t Mine = Owned[Tid];
    // Recycle: my next acquisition uses my predecessor's node, which is
    // guaranteed quiescent once I saw its flag drop.
    Owned[Tid] = Watching[Tid];
    Flags[Mine].value().write(0);
  }

  /// Heap owned by the lock: the N + 1 padded queue nodes and the two
  /// per-process node indices.
  std::size_t heapBytes() const {
    return (std::size_t{N} + 1) *
               sizeof(CacheLinePadded<AtomicRegister<std::uint8_t>>) +
           2 * std::size_t{N} * sizeof(std::uint32_t);
  }

private:
  const std::uint32_t N;
  AtomicRegister<std::uint32_t> Tail{0};
  std::unique_ptr<CacheLinePadded<AtomicRegister<std::uint8_t>>[]> Flags;
  std::unique_ptr<std::uint32_t[]> Owned;    ///< Node owned per thread.
  std::unique_ptr<std::uint32_t[]> Watching; ///< Predecessor per thread.
};

} // namespace csobj

#endif // CSOBJ_LOCKS_CLHLOCK_H
