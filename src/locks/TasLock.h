//===- locks/TasLock.h - Test-and-set spin locks ----------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two classic test-and-set spin locks. Both are deadlock-free but
/// not starvation-free — exactly the class of lock the paper's Figure 3
/// assumes ("this lock is assumed to be deadlock-free but it is not
/// required to be starvation-free"), and the raw material for the
/// Section 4.4 starvation-freedom transformation.
///
/// The lock word lives on its own cache line so that slow-path lock
/// traffic (the C&S/exchange storm of waiters) does not false-share with
/// the fast-path registers of whatever object embeds the lock — in
/// Figure 3, CONTENTION is read on *every* operation while the lock word
/// is only touched under contention.
///
/// Memory orderings (audited; identical under both register policies):
/// the acquiring exchange is acquire — it synchronizes-with the previous
/// holder's releasing store of 0, so everything done inside the previous
/// critical section happens-before this one. The spin read in TTAS is
/// relaxed: it is only a heuristic that delays the next exchange, and the
/// exchange re-establishes the needed ordering. unlock's store is
/// release, publishing the critical section to the next acquirer.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_TASLOCK_H
#define CSOBJ_LOCKS_TASLOCK_H

#include "memory/AtomicRegister.h"
#include "support/Backoff.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <cstdint>

namespace csobj {

/// Test-and-set lock: spin on an atomic exchange.
///
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Policy = DefaultRegisterPolicy>
class TasLockT {
public:
  static constexpr const char *Name = "tas";
  using RegisterPolicy = Policy;

  explicit TasLockT(std::uint32_t /*NumThreads*/ = 0) {}

  void lock(std::uint32_t /*Tid*/ = 0) {
    SpinWait Waiter;
    while (Held.value().exchange(1, std::memory_order_acquire) != 0)
      Waiter.once();
  }

  void unlock(std::uint32_t /*Tid*/ = 0) {
    Held.value().write(0, std::memory_order_release);
  }

private:
  CacheLinePadded<AtomicRegister<std::uint8_t, Policy>> Held;
};

using TasLock = TasLockT<>;

/// Test-and-test-and-set lock: spin reading, exchange only when the lock
/// looks free. Fewer bus-locking operations under contention than TAS.
template <typename Policy = DefaultRegisterPolicy>
class TtasLockT {
public:
  static constexpr const char *Name = "ttas";
  using RegisterPolicy = Policy;

  explicit TtasLockT(std::uint32_t /*NumThreads*/ = 0) {}

  void lock(std::uint32_t /*Tid*/ = 0) {
    SpinWait Waiter;
    while (true) {
      // Relaxed spin read: pure heuristic, the exchange orders the
      // acquisition (see file comment).
      if (Held.value().read(std::memory_order_relaxed) == 0 &&
          Held.value().exchange(1, std::memory_order_acquire) == 0)
        return;
      Waiter.once();
    }
  }

  void unlock(std::uint32_t /*Tid*/ = 0) {
    Held.value().write(0, std::memory_order_release);
  }

private:
  CacheLinePadded<AtomicRegister<std::uint8_t, Policy>> Held;
};

using TtasLock = TtasLockT<>;

/// Test-and-set lock with randomized exponential backoff between failed
/// attempts — the classic remedy for TAS bus storms and the simplest
/// time-based contention manager in the lock substrate.
template <typename Policy = DefaultRegisterPolicy>
class BackoffTasLockT {
public:
  static constexpr const char *Name = "tas-backoff";
  using RegisterPolicy = Policy;

  explicit BackoffTasLockT(std::uint32_t /*NumThreads*/ = 0) {}

  void lock(std::uint32_t Tid = 0) {
    ExponentialBackoff Backoff(4, 1024, Tid + 1);
    while (true) {
      if (Held.value().read(std::memory_order_relaxed) == 0 &&
          Held.value().exchange(1, std::memory_order_acquire) == 0)
        return;
      Backoff.onAbort();
    }
  }

  void unlock(std::uint32_t /*Tid*/ = 0) {
    Held.value().write(0, std::memory_order_release);
  }

private:
  CacheLinePadded<AtomicRegister<std::uint8_t, Policy>> Held;
};

using BackoffTasLock = BackoffTasLockT<>;

} // namespace csobj

#endif // CSOBJ_LOCKS_TASLOCK_H
