//===- core/CrashTolerant.h - Figure 3 with graceful degradation *- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-tolerant variant of the Figure 3 skeleton
/// (core/ContentionSensitive.h). The paper's Section 5 concedes that the
/// construction "still works despite process crashes *if no process
/// crashes while holding the lock*"; this skeleton closes that boundary
/// by bounding every blocking step with a patience budget and downgrading
/// the progress guarantee instead of hanging:
///
///   fast path (lines 01-03)  — unchanged: lock-free, six accesses for
///                              the stack, crash-tolerated as before.
///   doorway (lines 04-05)    — RecoverableArbiter::enterBounded: TURN
///                              skips suspected-dead processes; patience
///                              exhaustion withdraws and degrades.
///   lock (line 06)           — LeasedLock::lockBounded: a lease stuck
///                              past patience marks the holder suspect,
///                              revokes the lease (so the *next* slow
///                              operation finds the lock free and the
///                              system heals), and degrades this one.
///   degraded mode            — the Figure 2 non-blocking retry loop:
///                              repeat the weak operation until non-
///                              bottom. Lock-free (some operation always
///                              completes; a weak op only aborts because
///                              a rival's C&S won) but no longer
///                              starvation-free. Counted per object.
///
/// The progress-guarantee downgrade lattice (DESIGN.md):
///
///     no faults            -> starvation-free  (Theorem 1, unchanged)
///     crash w/o lock       -> starvation-free  (Section 5, unchanged)
///     crash waiting/holding-> lock-free        (degraded mode, new)
///
/// Safety never degrades: every linearization point lies in a weak-object
/// C&S, so fast-path, protected and degraded completions interleave into
/// linearizable histories (checked in tests/faults_test.cpp).
///
/// CONTENTION left raised by a corpse heals in one round: the first
/// degraded survivor revokes the lease; the next slow-path operation
/// acquires the freed lock, completes its protected retry and lowers
/// CONTENTION on line 09 as usual.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CRASHTOLERANT_H
#define CSOBJ_CORE_CRASHTOLERANT_H

#include "locks/LeasedLock.h"
#include "locks/RecoverableArbiter.h"
#include "memory/AtomicRegister.h"
#include "obs/PathCounters.h"
#include "support/CacheLine.h"
#include "support/ContentionManager.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace csobj {

/// Per-object tallies of the degradation machinery. Plain uninstrumented
/// atomics: harness accounting, not algorithm state — reading them is not
/// a shared access in the paper's counting convention and must not
/// perturb the six-access bound or the explorer's schedules.
struct DegradationCounters {
  std::atomic<std::uint64_t> Degradations{0};    ///< Ops completed via fallback.
  std::atomic<std::uint64_t> DoorwayTimeouts{0}; ///< enterBounded gave up.
  std::atomic<std::uint64_t> LeaseTimeouts{0};   ///< lockBounded gave up.
  std::atomic<std::uint64_t> ProtectedOps{0};    ///< Normal slow-path completions.
};

/// Value snapshot of DegradationCounters plus the lock's own counters.
struct DegradationStats {
  std::uint64_t Degradations = 0;
  std::uint64_t DoorwayTimeouts = 0;
  std::uint64_t LeaseTimeouts = 0;
  std::uint64_t ProtectedOps = 0;
  std::uint64_t Revocations = 0; ///< Leases revoked from suspected holders.
  std::uint64_t LostLeases = 0;  ///< Holder-side C&S releases that failed.
};

/// Figure 3 skeleton with bounded patience and lock-free degraded mode.
/// Drop-in for ContentionSensitive where crash tolerance matters; the
/// fast path is access-for-access identical (one CONTENTION read plus
/// the weak attempt).
///
/// \tparam Manager ContentionManager pacing both the protected retry and
///         the degraded retry loop.
/// \tparam Policy register policy (Instrumented / Fast).
template <ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class CrashTolerantContentionSensitive {
public:
  using RegisterPolicy = Policy;

  /// Patience used when none is given: generous enough that wall-clock
  /// false suspicions are rare, small enough that a corpse is detected
  /// in bounded logical time.
  static constexpr std::uint32_t DefaultPatience = 1u << 12;

  /// \p NumThreads is the paper's n; \p Patience bounds, in consecutive
  /// observations of an unchanged doorway turn or lock lease, how long a
  /// slow-path operation waits before suspecting and degrading. Zero
  /// \p NumThreads throws std::invalid_argument (a hard check, kept
  /// under NDEBUG).
  explicit CrashTolerantContentionSensitive(
      std::uint32_t NumThreads, std::uint32_t Patience = DefaultPatience)
      : N(checkedThreads(NumThreads)), Patience(Patience),
        Suspects(NumThreads), Arbiter(NumThreads, Suspects),
        Guard(NumThreads, &Suspects) {}

  /// strong_push_or_pop(par) with graceful degradation. Same contract as
  /// ContentionSensitive::strongApply — never returns bottom, always
  /// terminates — but termination now survives crashes of competing and
  /// lock-holding processes (lock-freely, Theorem 1's starvation bound
  /// applies only to fault-free executions).
  template <typename WeakOpFn>
  auto strongApply(std::uint32_t Tid, WeakOpFn WeakOp)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    assert(Tid < N && "thread id out of range");
    Sink.onOp(Tid);
    if (Contention.value().read(std::memory_order_acquire) == 0) { // line 01
      if (auto Res = WeakOp()) {             // line 02
        Sink.onPath(Tid, obs::Path::Shortcut);
        return *Res;
      }
      Sink.onEvent(Tid, obs::Event::ShortcutAbort);
    }
    if (!Arbiter.enterBounded(Tid, Patience)) { // lines 04-05, bounded
      Counters.DoorwayTimeouts.fetch_add(1, std::memory_order_relaxed);
      Sink.onEvent(Tid, obs::Event::DoorwayTimeout);
      return degradedApply(Tid, WeakOp);
    }
    if (Guard.lockBounded(Tid, Patience) !=
        LeaseAcquire::Acquired) {            // line 06, bounded
      Counters.LeaseTimeouts.fetch_add(1, std::memory_order_relaxed);
      Sink.onEvent(Tid, obs::Event::LeaseTimeout);
      Arbiter.withdraw(Tid);
      return degradedApply(Tid, WeakOp);
    }
    Contention.value().write(1, std::memory_order_release); // line 07
    Manager Mgr;
    auto Res = WeakOp();                     // line 08 (repeat ... until)
    while (!Res) {
      Sink.onEvent(Tid, obs::Event::ProtectedRetry);
      Mgr.onAbort();
      Res = WeakOp();
    }
    Mgr.onSuccess();
    Contention.value().write(0, std::memory_order_release); // line 09
    Arbiter.exitAndAdvance(Tid);             // lines 10-11
    Guard.unlock(Tid);                       // line 12
    Counters.ProtectedOps.fetch_add(1, std::memory_order_relaxed);
    Sink.onPath(Tid, obs::Path::Lock);
    return *Res;                             // line 13
  }

  std::uint32_t numThreads() const { return N; }
  std::uint32_t patience() const { return Patience; }

  /// Path-attributed metrics (obs/PathCounters.h). Subsumes the legacy
  /// DegradationCounters view: Degraded path = Degradations, Lock path =
  /// ProtectedOps; statsForTesting() is kept for the lock's own tallies.
  obs::MetricSink &metrics() const { return Sink; }
  obs::PathSnapshot pathSnapshot() const { return Sink.snapshot(); }

  bool contentionForTesting() const {
    return Contention.value().peekForTesting() != 0;
  }

  /// Aggregated degradation statistics (test/bench aid; approximate
  /// under concurrency, exact once quiescent).
  DegradationStats statsForTesting() const {
    DegradationStats S;
    S.Degradations = Counters.Degradations.load(std::memory_order_relaxed);
    S.DoorwayTimeouts =
        Counters.DoorwayTimeouts.load(std::memory_order_relaxed);
    S.LeaseTimeouts =
        Counters.LeaseTimeouts.load(std::memory_order_relaxed);
    S.ProtectedOps = Counters.ProtectedOps.load(std::memory_order_relaxed);
    S.Revocations = Guard.revocations();
    S.LostLeases = Guard.lostLeases();
    return S;
  }

  /// The failure detector shared by doorway and lock (test/debug aid).
  SuspectSetT<Policy> &suspects() { return Suspects; }

  /// The recoverable doorway (test/debug aid).
  RecoverableArbiterT<Policy> &arbiter() { return Arbiter; }

  /// The leased lock (test/debug aid).
  LeasedLockT<Policy> &guard() { return Guard; }

private:
  /// Runs before any member is sized: a zero process count would size
  /// the per-process arrays empty, and the first operation would index
  /// past them.
  static std::uint32_t checkedThreads(std::uint32_t NumThreads) {
    if (NumThreads < 1)
      throw std::invalid_argument(
          "CrashTolerantContentionSensitive: need at least one process");
    return NumThreads;
  }

  /// Degraded mode: the Figure 2 non-blocking retry loop. Lock-free —
  /// a weak attempt only aborts because a rival operation's C&S
  /// succeeded, so system-wide progress is preserved even with the lock
  /// dead and the doorway stuck.
  template <typename WeakOpFn>
  auto degradedApply(std::uint32_t Tid, WeakOpFn &WeakOp)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    Counters.Degradations.fetch_add(1, std::memory_order_relaxed);
    Manager Mgr;
    while (true) {
      if (auto Res = WeakOp()) {
        Mgr.onSuccess();
        Sink.onPath(Tid, obs::Path::Degraded);
        return *Res;
      }
      Sink.onEvent(Tid, obs::Event::DegradedRetry);
      Mgr.onAbort();
    }
  }

  const std::uint32_t N;
  const std::uint32_t Patience;
  CacheLinePadded<AtomicRegister<std::uint8_t, Policy>> Contention;
  SuspectSetT<Policy> Suspects;
  RecoverableArbiterT<Policy> Arbiter;
  LeasedLockT<Policy> Guard;
  mutable DegradationCounters Counters;
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

} // namespace csobj

#endif // CSOBJ_CORE_CRASHTOLERANT_H
