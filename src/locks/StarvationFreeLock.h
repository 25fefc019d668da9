//===- locks/StarvationFreeLock.h - The Section 4.4 transform ---*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 4.4: "From a non-blocking lock to a
/// starvation-free lock". Bracketing any deadlock-free lock between the
/// RoundRobinArbiter doorway (starred lines 04-06 on acquire, 10-12 on
/// release) yields a starvation-free lock:
///
///     starvation_free_lock(i)   = { arbiter.enter(i); inner.lock(i); }
///     starvation_free_unlock(i) = { arbiter.exitAndAdvance(i);
///                                   inner.unlock(i); }
///
/// The release order follows the paper exactly: the FLAG/TURN bookkeeping
/// (lines 10-11) happens *before* the inner unlock (line 12), so a
/// process that sees FLAG[TURN] = false can rely on TURN having already
/// advanced past the leaving process. Experiment E6 measures the bounded
/// acquisition-count spread this buys over the raw inner lock.
///
/// This is the only place the doorway meets a lock: Figure 3
/// (core/ContentionSensitive.h) is its lines 01-03 shortcut in front of
/// this lock, which is exactly how §4.1's Remark and §4.4 read together.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_STARVATIONFREELOCK_H
#define CSOBJ_LOCKS_STARVATIONFREELOCK_H

#include "locks/LeasedLock.h"
#include "locks/LockTraits.h"
#include "locks/RecoverableArbiter.h"
#include "locks/RoundRobinArbiter.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace csobj {

/// Starvation-free lock from a deadlock-free one (paper Section 4.4).
///
/// \tparam InnerLock the deadlock-free lock behind the doorway.
/// \tparam Policy    register policy of the doorway's FLAG/TURN registers
///                   (the inner lock keeps its own).
template <typename InnerLock, typename Policy = DefaultRegisterPolicy>
class StarvationFreeLock {
public:
  static constexpr const char *Name = "starvation-free";

  explicit StarvationFreeLock(std::uint32_t NumThreads)
      : Arbiter(NumThreads), Inner(NumThreads) {}

  void lock(std::uint32_t Tid) {
    Arbiter.enter(Tid); // lines 04-05
    Inner.lock(Tid);    // line 06
  }

  void unlock(std::uint32_t Tid) {
    Arbiter.exitAndAdvance(Tid); // lines 10-11
    Inner.unlock(Tid);           // line 12
  }

  /// The underlying deadlock-free lock.
  InnerLock &inner() { return Inner; }

  /// The doorway (exposed for the fairness tests).
  RoundRobinArbiterT<Policy> &arbiter() { return Arbiter; }

  /// Heap owned by the lock: the doorway's FLAG array.
  std::size_t heapBytes() const { return Arbiter.heapBytes(); }

private:
  RoundRobinArbiterT<Policy> Arbiter;
  InnerLock Inner;
};

/// Value snapshot of a leasable lock's tallies (harness accounting, not
/// algorithm state). A timed-out lockBounded round sends its caller to a
/// lock-free fallback, so Degradations counts those rounds; a group
/// operation's single round counts once however many elements it
/// carried.
struct DegradationStats {
  std::uint64_t Degradations = 0;    ///< Rounds that timed out.
  std::uint64_t DoorwayTimeouts = 0; ///< ... in the doorway.
  std::uint64_t LeaseTimeouts = 0;   ///< ... waiting on the lease.
  std::uint64_t ProtectedOps = 0;    ///< Tenures released through unlock.
  std::uint64_t Revocations = 0; ///< Leases revoked from suspected holders.
  std::uint64_t LostLeases = 0;  ///< Holder-side C&S releases that failed.
};

/// Crash-recoverable starvation-free lock: the Section 4.4 transform
/// rebuilt from the crash-tolerant parts, selected by the Leasable tag
/// (locks/LockTraits.h). The RoundRobinArbiter doorway is replaced by
/// RecoverableArbiter (TURN skips suspected corpses) and the inner
/// deadlock-free lock by LeasedLock (a stale lease is revoked after the
/// patience budget), both feeding one SuspectSet. The result keeps the
/// LockConcept shape, so LockedStack, LockedQueue and every Figure 3
/// instantiation can run under FaultPlan crash/stall schedules: a corpse
/// in the doorway or holding the lease delays survivors by at most their
/// patience, never forever.
///
/// With no faults the behaviour matches the primary template:
/// starvation-free among live, unsuspected processes (false suspicion of
/// a live holder costs fairness — a lost lease — never safety here,
/// because the revoking waiter reports TimedOut and re-rounds rather
/// than entering).
template <std::uint32_t PatienceV, typename Policy>
class StarvationFreeLock<LeasableTag<PatienceV>, Policy> {
public:
  static constexpr const char *Name = "starvation-free(leased)";

  /// Patience per bounded round, in logical observations; the tag value
  /// 0 defers to the lock's wall-clock-safe default.
  static constexpr std::uint32_t DefaultPatience =
      PatienceV == 0 ? LeasedLock::DefaultPatience : PatienceV;

  /// \p Patience bounds, in consecutive observations of an unchanged
  /// doorway turn or lease, how long one round waits before suspecting
  /// the blocker.
  explicit StarvationFreeLock(std::uint32_t NumThreads,
                              std::uint32_t Patience = DefaultPatience)
      : Patience(Patience), Suspects(NumThreads),
        Arbiter(NumThreads, Suspects), Inner(NumThreads, &Suspects) {}

  /// One bounded acquisition round: doorway entry (lines 04-05) then the
  /// lease (line 06), each bounded by the patience. On a timeout the
  /// caller must not enter — its flag has been withdrawn, and when the
  /// blocker was suspected its stale lease/turn has been revoked/skipped
  /// so a later round finds the lock healed. The answer names the side
  /// that timed out: DoorwayTimedOut or TimedOut (the lease).
  LeaseAcquire lockBounded(std::uint32_t Tid) {
    if (!Arbiter.enterBounded(Tid, Patience)) {
      DoorwayTimeouts.fetch_add(1, std::memory_order_relaxed);
      return LeaseAcquire::DoorwayTimedOut;
    }
    if (Inner.lockBounded(Tid, Patience) != LeaseAcquire::Acquired) {
      LeaseTimeouts.fetch_add(1, std::memory_order_relaxed);
      Arbiter.withdraw(Tid);
      return LeaseAcquire::TimedOut;
    }
    return LeaseAcquire::Acquired;
  }

  /// LockConcept-shaped acquisition: bounded rounds retried until one
  /// succeeds. Unlike the primary template this terminates even when the
  /// current holder crashed: the round that exhausts its patience
  /// suspects the corpse and revokes its lease, and a following round
  /// acquires the freed lock.
  void lock(std::uint32_t Tid) {
    while (lockBounded(Tid) != LeaseAcquire::Acquired) {
    }
  }

  void unlock(std::uint32_t Tid) {
    Arbiter.exitAndAdvance(Tid); // lines 10-11
    Inner.unlock(Tid);           // line 12
    ProtectedOps.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint32_t patience() const { return Patience; }

  /// Aggregated tallies (approximate under concurrency, exact once
  /// quiescent).
  DegradationStats statsForTesting() const {
    DegradationStats S;
    S.DoorwayTimeouts = DoorwayTimeouts.load(std::memory_order_relaxed);
    S.LeaseTimeouts = LeaseTimeouts.load(std::memory_order_relaxed);
    S.Degradations = S.DoorwayTimeouts + S.LeaseTimeouts;
    S.ProtectedOps = ProtectedOps.load(std::memory_order_relaxed);
    S.Revocations = Inner.revocations();
    S.LostLeases = Inner.lostLeases();
    return S;
  }

  /// The leased inner lock (revocation/lost-lease counters live here).
  LeasedLockT<Policy> &inner() { return Inner; }

  /// The recoverable doorway (exposed for the fairness tests).
  RecoverableArbiterT<Policy> &arbiter() { return Arbiter; }

  /// The failure detector shared by doorway and lock.
  SuspectSetT<Policy> &suspects() { return Suspects; }

  /// Heap owned by the lock: the suspect registers and the doorway's
  /// FLAG array.
  std::size_t heapBytes() const {
    return Suspects.heapBytes() + Arbiter.heapBytes();
  }

private:
  const std::uint32_t Patience;
  /// Harness-side tallies, deliberately uninstrumented. They share the
  /// set's read-mostly header line, ahead of the padded doorway.
  std::atomic<std::uint64_t> DoorwayTimeouts{0};
  std::atomic<std::uint64_t> LeaseTimeouts{0};
  std::atomic<std::uint64_t> ProtectedOps{0};
  SuspectSetT<Policy> Suspects;
  RecoverableArbiterT<Policy> Arbiter;
  LeasedLockT<Policy> Inner;
};

} // namespace csobj

#endif // CSOBJ_LOCKS_STARVATIONFREELOCK_H
