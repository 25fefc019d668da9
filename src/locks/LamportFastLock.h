//===- locks/LamportFastLock.h - Lamport's fast mutex -----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lamport's fast mutual exclusion algorithm (ACM TOCS 1987), the paper's
/// reference [16] and, per its introduction, the first contention-
/// sensitive algorithm: in a contention-free execution a process enters
/// the critical section after only a constant number of shared accesses
/// (the paper counts seven), using reads and writes only. Under
/// contention the cost grows with n. Deadlock-free but *not*
/// starvation-free — the canonical input for the Section 4.4
/// transformation (see StarvationFreeLock.h and experiment E6).
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_LAMPORTFASTLOCK_H
#define CSOBJ_LOCKS_LAMPORTFASTLOCK_H

#include "memory/AtomicRegister.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace csobj {

/// Lamport's fast mutex for n processes. Ids are stored internally as
/// Tid + 1 so that 0 can mean "nobody".
class LamportFastLock {
public:
  static constexpr const char *Name = "lamport-fast";

  explicit LamportFastLock(std::uint32_t NumThreads)
      : N(NumThreads),
        B(new CacheLinePadded<AtomicRegister<std::uint8_t>>[NumThreads]) {
    assert(NumThreads >= 1 && "lock needs at least one process");
  }

  void lock(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    const std::uint32_t Me = Tid + 1;
    SpinWait Restart;
    while (true) {
      B[Tid].value().write(1);
      X.write(Me);
      if (Y.read() != 0) {
        // Doorway contended: back off and wait for the CS to empty.
        B[Tid].value().write(0);
        SpinWait Waiter;
        while (Y.read() != 0)
          Waiter.once();
        Restart.once();
        continue;
      }
      Y.write(Me);
      if (X.read() == Me)
        return; // Fast path: uncontended entry.
      // Slow path: someone raced through the doorway.
      B[Tid].value().write(0);
      for (std::uint32_t J = 0; J < N; ++J) {
        SpinWait Waiter;
        while (B[J].value().read() != 0)
          Waiter.once();
      }
      if (Y.read() == Me)
        return; // We won the race after all.
      SpinWait Waiter;
      while (Y.read() != 0)
        Waiter.once();
      Restart.once();
    }
  }

  void unlock(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    Y.write(0);
    B[Tid].value().write(0);
  }

  /// Heap owned by the lock: the padded per-process B[] flags.
  std::size_t heapBytes() const {
    return std::size_t{N} *
           sizeof(CacheLinePadded<AtomicRegister<std::uint8_t>>);
  }

private:
  const std::uint32_t N;
  AtomicRegister<std::uint32_t> X{0};
  AtomicRegister<std::uint32_t> Y{0};
  std::unique_ptr<CacheLinePadded<AtomicRegister<std::uint8_t>>[]> B;
};

} // namespace csobj

#endif // CSOBJ_LOCKS_LAMPORTFASTLOCK_H
