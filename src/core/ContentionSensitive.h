//===- core/ContentionSensitive.h - The paper's Figure 3 --------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 3: the generic contention-sensitive, starvation-free
/// construction. Given *any* abortable object operation (a callable that
/// either returns a non-bottom result or reports abort), strongApply runs
/// the paper's strong_push_or_pop(par).
///
/// The paper already splits the figure in two. Lines 01-03 are a
/// lock-free shortcut that can sit in front of *any* starvation-free
/// lock (§4.1's Remark: with such a lock FLAG and TURN "become
/// useless"), and §4.4 shows that FLAG/TURN wrapped around a
/// deadlock-free lock *is* such a lock. This file follows that split:
///
///   ContentionSensitiveSkeleton — written once: CONTENTION, the metric
///     sink, the process-count check, lines 01-03 (the shortcut: if
///     CONTENTION is false, try the weak operation once; a non-bottom
///     result returns immediately — one read of CONTENTION plus the weak
///     operation's accesses, six in total for the stack, and no lock),
///     the rescue window and the per-element batch prefix. Everything
///     past a failed shortcut goes to a pluggable slow path, which
///     receives the skeleton's CONTENTION register and sink.
///   LockRetrySlowPath — lines 06-09 and 12-13 over any starvation-free
///     lock: take the lock, raise CONTENTION, repeat the weak operation
///     until it succeeds (paced by a ContentionManager), lower
///     CONTENTION, release. The doorway (lines 04-05 and 10-11) lives in
///     the lock: StarvationFreeLock (locks/StarvationFreeLock.h) is the
///     §4.4 transform. A lock whose acquisition is bounded
///     (StarvationFreeLock<Leasable>) may time out instead; the
///     operation then completes through the Figure 2 retry loop.
///   CombiningSlowPath (perf/CombiningSlowPath.h) — flat combining.
///
/// The four skeletons the library names are aliases over those parts:
///
///   ContentionSensitive<L>            shortcut + StarvationFreeLock<L>
///   SimplifiedContentionSensitive<L>  shortcut + L (L starvation-free)
///   CrashTolerantContentionSensitive  shortcut + StarvationFreeLock<
///                                     LeasableTag>, degrading on timeout
///   CombiningContentionSensitive      shortcut + the flat combiner
///
/// ContentionSensitive<L> performs the paper's access sequence access for
/// access: CONTENTION read, weak attempt, enter, lock, CONTENTION up,
/// retries, CONTENTION down, exitAndAdvance, unlock. Starvation-freedom
/// follows from Lemmas 1-3.
///
/// Two perf-relevant refinements over the paper-literal transcription:
///  * CONTENTION sits on its own cache line, as do TURN (inside the
///    arbiter) and the lock word. The fast path reads CONTENTION on
///    every operation; without the padding, slow-path C&S traffic on
///    the lock word invalidated that line and the "zero overhead in the
///    common case" claim silently paid a coherence miss per operation.
///  * The protected retry (line 08's repeat-until) is driven by a
///    ContentionManager (support/ContentionManager.h) instead of a bare
///    escalating spin, so the lock holder can stand back in proportion
///    to the interference it actually observes.
///
/// Memory orderings (audited): the line-01 CONTENTION read is acquire
/// and the line-07/09 writes are release. Correctness does not hinge on
/// them — CONTENTION is a heuristic gate; every linearization point is a
/// C&S inside the weak operation — but release keeps the line-09 store
/// from being reordered after the doorway/lock release stores that
/// follow it, preserving the invariant that CONTENTION is only raised
/// while the lock is held.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVE_H
#define CSOBJ_CORE_CONTENTIONSENSITIVE_H

#include "core/Results.h"
#include "locks/LockTraits.h"
#include "locks/StarvationFreeLock.h"
#include "locks/TasLock.h"
#include "memory/AtomicRegister.h"
#include "obs/PathCounters.h"
#include "support/CacheLine.h"
#include "support/ContentionManager.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace csobj {

/// The Figure 3 execution skeleton. One instance guards one abortable
/// object; all strong operations on that object must go through the same
/// instance (they share CONTENTION and the slow path).
///
/// \tparam SlowPathT what runs once the shortcut fails: constructed from
///         (NumThreads, trailing constructor arguments), it provides
///           apply(Tid, Contention, Sink, WeakOp) -> result
///           applyBatch(Tid, Contention, Sink, I, Count, WeakAt, Stop,
///                      Out) -> ops applied so far
///           heapBytes()
///         and keeps the line-07/09 invariant: CONTENTION is raised only
///         by whoever serializes the contended operations.
/// \tparam Policy register policy (Instrumented / Fast) of CONTENTION.
template <typename SlowPathT, typename Policy = DefaultRegisterPolicy>
class ContentionSensitiveSkeleton {
public:
  using RegisterPolicy = Policy;
  using SlowPath = SlowPathT;

  /// \p NumThreads is the paper's n; thread ids are 0..n-1. Zero throws
  /// std::invalid_argument (a hard check, kept under NDEBUG). Trailing
  /// arguments go to the slow path (e.g. the leased lock's patience).
  template <typename... SlowPathArgs>
  explicit ContentionSensitiveSkeleton(std::uint32_t NumThreads,
                                       SlowPathArgs &&...Args)
      : N(checkedThreads(NumThreads)),
        Slow(NumThreads, std::forward<SlowPathArgs>(Args)...) {}

  /// strong_push_or_pop(par) for a generic operation. \p WeakOp is
  /// invoked with no arguments and returns std::optional<R>: nullopt
  /// encodes the paper's bottom (the attempt aborted; it had no effect),
  /// any value is a final non-bottom result (including full/empty style
  /// answers). Never returns bottom; always terminates (starvation-free,
  /// Theorem 1, over a starvation-free slow path).
  ///
  /// \p Rescue, when given (at most one), opens an acceleration window
  /// between the shortcut and the slow path: when the shortcut fails
  /// (CONTENTION was raised, or the weak attempt aborted), Rescue gets one
  /// chance to finish the operation without competing for the lock — e.g.
  /// by pairing with an inverse operation in an elimination array
  /// (perf/EliminationArray.h). It returns the same optional as WeakOp;
  /// nullopt falls through to the unchanged slow path. The
  /// contention-free execution never invokes it, so the stack's
  /// six-access solo bound holds. An omitted rescue adds no parameter and
  /// no code, so a call without one compiles to lines 01-03 and the slow
  /// path alone. Rescue runs at most once, so every operation still
  /// reaches the doorway after a bounded number of its own steps:
  /// Lemmas 1-3 apply verbatim.
  template <typename WeakOpFn, typename... RescueFn>
    requires(sizeof...(RescueFn) <= 1)
  auto strongApply(std::uint32_t Tid, WeakOpFn WeakOp, RescueFn... Rescue)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    assert(Tid < N && "thread id out of range");
    Sink.onOp(Tid);
    if (auto Res = shortcut(Tid, WeakOp)) // lines 01-03
      return *Res;
    if constexpr (sizeof...(Rescue) == 1) {
      if (auto Res = (Rescue(), ...)) {   // acceleration window
        Sink.onPath(Tid, obs::Path::Eliminated);
        return *Res;
      }
    }
    return Slow.apply(Tid, Contention.value(), Sink, WeakOp);
  }

  /// Group form of strongApply: applies ops 0..Count-1 as one batch.
  /// \p WeakAt(I) attempts the I-th operation (same optional contract as
  /// strongApply's WeakOp); every applied result lands in Out[I].
  /// \p Stop(R) marks a terminal answer (Full/Empty) that rejects the
  /// batch's remainder — the stopping op's result is stored and counted,
  /// later ops are never attempted, so the object always holds a prefix
  /// of the batch. Returns the number of ops applied.
  ///
  /// Cost shape: while CONTENTION stays down each element runs the
  /// line-01-03 shortcut individually (the paper's six-access bound per
  /// element, no lock). At the first shortcut failure the *entire
  /// remainder* cuts over to the slow path's group form — one lock
  /// acquisition (or one combiner record) under which the remaining
  /// elements are applied back to back, then one release. That is the
  /// k-ops/one-lock amortization flat combining promises, available
  /// even on the plain Fig-3 skeleton. Starvation-freedom is unchanged:
  /// the batch holds the lock for a bounded number of its own steps
  /// (Count is finite, each retry is Manager-paced like strongApply).
  template <typename WeakAtFn, typename StopFn, typename R>
  std::size_t strongApplyBatch(std::uint32_t Tid, std::size_t Count,
                               WeakAtFn WeakAt, StopFn Stop, R *Out) {
    assert(Tid < N && "thread id out of range");
    std::size_t I = 0;
    while (I < Count) {                        // per-element shortcut
      Sink.onOp(Tid);
      auto Res = shortcut(Tid, [&] { return WeakAt(I); });
      if (!Res)
        break;                                 // element I stays counted
      Out[I] = *Res;
      ++I;
      if (Stop(Out[I - 1]))
        return I;
    }
    if (I == Count)
      return I;
    return Slow.applyBatch(Tid, Contention.value(), Sink, I, Count, WeakAt,
                           Stop, Out);
  }

  std::uint32_t numThreads() const { return N; }

  /// Path-attributed metrics for this object (obs/PathCounters.h); an
  /// empty no-op under CSOBJ_NO_METRICS.
  obs::MetricSink &metrics() const { return Sink; }
  obs::PathSnapshot pathSnapshot() const { return Sink.snapshot(); }

  /// Whether the slow path currently holds the object (test/debug aid).
  bool contentionForTesting() const {
    return Contention.value().peekForTesting() != 0;
  }

  /// The slow path: its lock (doorway, lease, suspects, tallies) or its
  /// combiner (test/debug/stats aid).
  SlowPathT &slowPath() { return Slow; }
  const SlowPathT &slowPath() const { return Slow; }

  /// Heap owned by the skeleton: the slow path's (doorway FLAG array,
  /// combiner records, ...) plus the metric sink's per-thread blocks
  /// (zero under CSOBJ_NO_METRICS).
  std::size_t heapBytes() const { return Slow.heapBytes() + Sink.heapBytes(); }

private:
  /// Runs before any member is sized: a zero process count would size
  /// the per-process arrays empty, and the first operation would index
  /// past them.
  static std::uint32_t checkedThreads(std::uint32_t NumThreads) {
    if (NumThreads < 1)
      throw std::invalid_argument(
          "ContentionSensitive: need at least one process");
    return NumThreads;
  }

  /// Lines 01-03: when CONTENTION is down, one weak attempt. Returns its
  /// result when it succeeded (line 03 returns it), nullopt when the
  /// operation must go on (CONTENTION up, or the attempt drew bottom).
  /// The likelihood marks keep the contention-free execution the
  /// straight-line path once the slow path is inlined behind it.
  template <typename WeakOpFn>
  auto shortcut(std::uint32_t Tid, WeakOpFn &&WeakOp) -> decltype(WeakOp()) {
    if (Contention.value().read(std::memory_order_acquire) == 0) [[likely]] {
      if (auto Res = WeakOp()) [[likely]] { // lines 01-02
        Sink.onPath(Tid, obs::Path::Shortcut);
        return Res;                        // line 03
      }
      Sink.onEvent(Tid, obs::Event::ShortcutAbort);
    }
    return std::nullopt;
  }

  const std::uint32_t N;
  CacheLinePadded<AtomicRegister<std::uint8_t, Policy>> Contention;
  /// Potentially overlapping, so the sink may sit in the slow path's
  /// tail padding (the combiner's, whose padded word comes first).
  [[no_unique_address]] SlowPathT Slow;
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

/// Lines 06-09 and 12-13 over any starvation-free lock: the protected
/// retry, paced by \p Manager. With StarvationFreeLock<L> as \p Lock the
/// doorway (lines 04-05, 10-11) runs inside lock()/unlock(), exactly
/// where Figure 3 places it.
///
/// A lock whose acquisition is bounded (lockBounded(Tid), as
/// StarvationFreeLock<Leasable> has) may time out instead. The paper's
/// Section 5 concedes that Figure 3 "still works despite process crashes
/// *if no process crashes while holding the lock*"; a timeout closes
/// that boundary by downgrading the progress guarantee instead of
/// hanging. The operation completes through the Figure 2 retry loop —
/// lock-free (a weak attempt only aborts because a rival's C&S won) but
/// no longer starvation-free — and books its one timeout cause (doorway
/// or lease) beside its Degraded path:
///
///     no faults             -> starvation-free  (Theorem 1, unchanged)
///     crash w/o lock        -> starvation-free  (Section 5, unchanged)
///     crash waiting/holding -> lock-free        (degraded mode)
///
/// Safety never degrades: every linearization point lies in a weak-object
/// C&S, so shortcut, protected and degraded completions interleave into
/// linearizable histories (checked in tests/faults_test.cpp). CONTENTION
/// left raised by a corpse heals in one round: the first degraded
/// survivor revokes the lease; the next slow-path operation acquires the
/// freed lock, completes its protected retry and lowers CONTENTION on
/// line 09 as usual.
template <typename Lock, ContentionManager Manager = NoBackoff>
class LockRetrySlowPath {
public:
  using LockType = Lock;

  /// Trailing arguments go to the lock (e.g. the leased lock's patience).
  template <typename... LockArgs>
  explicit LockRetrySlowPath(std::uint32_t NumThreads, LockArgs &&...Args)
      : Guard(NumThreads, std::forward<LockArgs>(Args)...) {}

  template <typename Register, typename WeakOpFn>
  auto apply(std::uint32_t Tid, Register &Contention, obs::MetricSink &Sink,
             WeakOpFn &WeakOp) ->
      typename std::invoke_result_t<WeakOpFn &>::value_type {
    if (const auto Timeout = acquire(Tid))         // lines 04-06
      return degradedApply(Tid, Sink, *Timeout, WeakOp);
    Contention.write(1, std::memory_order_release); // line 07
    Manager Mgr;
    auto Res = retryProtected(Tid, Sink, Mgr, WeakOp); // line 08
    Contention.write(0, std::memory_order_release); // line 09
    Guard.unlock(Tid);                              // lines 10-12
    Sink.onPath(Tid, obs::Path::Lock);
    return Res;                                     // line 13
  }

  /// Group phase: one acquisition, the remaining elements I..Count-1
  /// applied back to back under it, one release. Element I was already
  /// op-counted by the skeleton's prefix. A timed-out acquisition
  /// completes the remainder element by element through the degraded
  /// loop, each booked Degraded with the round's timeout cause.
  template <typename Register, typename WeakAtFn, typename StopFn,
            typename R>
  std::size_t applyBatch(std::uint32_t Tid, Register &Contention,
                         obs::MetricSink &Sink, std::size_t I,
                         std::size_t Count, WeakAtFn &WeakAt, StopFn &Stop,
                         R *Out) {
    if (const auto Timeout = acquire(Tid)) {
      for (const std::size_t First = I; I < Count;) {
        if (I != First)
          Sink.onOp(Tid);
        Out[I] = degradedApply(Tid, Sink, *Timeout, [&] { return WeakAt(I); });
        if (Stop(Out[I++]))
          break;
      }
      return I;
    }
    Contention.write(1, std::memory_order_release);
    Manager Mgr;
    const std::size_t First = I;
    bool Stopped = false;
    for (; I < Count && !Stopped; ++I) {
      if (I != First)
        Sink.onOp(Tid);
      Out[I] = retryProtected(Tid, Sink, Mgr, [&] { return WeakAt(I); });
      Stopped = Stop(Out[I]);
    }
    Contention.write(0, std::memory_order_release);
    Guard.unlock(Tid);
    Sink.onPath(Tid, obs::Path::Batched, I - First);
    Sink.onBatch(Tid, I - First);
    return I;
  }

  /// The lock (test/debug/stats aid): the doorway, the lease, the
  /// suspect set and the degradation tallies are reached through it.
  Lock &lock() { return Guard; }
  const Lock &lock() const { return Guard; }

  /// Heap owned by the lock (doorway FLAG array, per-process nodes or
  /// slots), when it owns any.
  std::size_t heapBytes() const {
    if constexpr (requires { Guard.heapBytes(); })
      return Guard.heapBytes();
    return 0;
  }

private:
  /// Takes the lock. Returns nullopt once held, or — only for a lock
  /// with bounded acquisition — the timeout event of a round that gave
  /// up.
  std::optional<obs::Event> acquire(std::uint32_t Tid) {
    if constexpr (requires { Guard.lockBounded(Tid); }) {
      switch (Guard.lockBounded(Tid)) {
      case LeaseAcquire::Acquired:
        return std::nullopt;
      case LeaseAcquire::DoorwayTimedOut:
        return obs::Event::DoorwayTimeout;
      case LeaseAcquire::TimedOut:
        break;
      }
      return obs::Event::LeaseTimeout;
    } else {
      Guard.lock(Tid);
      return std::nullopt;
    }
  }

  /// Line 08: repeat the weak operation until it succeeds. Unbounded
  /// retry is sound because CONTENTION is up and the lock is held, so
  /// interference is transient.
  template <typename WeakOpFn>
  static auto retryProtected(std::uint32_t Tid, obs::MetricSink &Sink,
                             Manager &Mgr, WeakOpFn &&WeakOp) {
    auto Res = WeakOp();
    while (!Res) {
      Sink.onEvent(Tid, obs::Event::ProtectedRetry);
      Mgr.onAbort();
      Res = WeakOp();
    }
    Mgr.onSuccess();
    return *Res;
  }

  /// Degraded mode: the Figure 2 non-blocking retry loop, after a
  /// timed-out acquisition whose cause is \p Timeout.
  template <typename WeakOpFn>
  static auto degradedApply(std::uint32_t Tid, obs::MetricSink &Sink,
                            obs::Event Timeout, WeakOpFn &&WeakOp) {
    Sink.onEvent(Tid, Timeout);
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

  Lock Guard;
};

/// Figure 3 over a deadlock-free lock: the shortcut in front of the §4.4
/// starvation-free lock built from it.
///
/// \tparam Lock a deadlock-free lock (LockConcept). Starvation-freedom of
///         the whole construction does NOT require the lock itself to be
///         starvation-free — that is the point of the doorway. TasLock is
///         the default to exercise exactly the paper's assumption.
/// \tparam Manager ContentionManager pacing the protected retry of
///         line 08. NoBackoff reproduces the seed behaviour (the retry
///         is already lock-protected, so immediate retry is sound).
/// \tparam Policy register policy (Instrumented / Fast) of CONTENTION and
///         the doorway.
template <typename Lock = TasLock, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using ContentionSensitive = ContentionSensitiveSkeleton<
    LockRetrySlowPath<StarvationFreeLock<Lock, Policy>, Manager>, Policy>;

/// The paper's Section 4.1 Remark, as code: "If the lock is
/// starvation-free (...) the array FLAG[1..n] and the register TURN
/// become useless and consequently the lines 04-05 and 10-11 can be
/// suppressed from the algorithm." The shortcut directly in front of a
/// lock that must itself be starvation-free (ticket, MCS, CLH, Anderson,
/// tournament, or any StarvationFreeLock<...>). Tested equivalent to the
/// full construction.
template <typename StarvationFreeLockT,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using SimplifiedContentionSensitive =
    ContentionSensitiveSkeleton<LockRetrySlowPath<StarvationFreeLockT, Manager>,
                                Policy>;

/// Figure 3 with graceful degradation: the shortcut in front of the
/// crash-recoverable starvation-free lock (recoverable doorway over a
/// leased lock, locks/StarvationFreeLock.h). The fast path is access for
/// access that of ContentionSensitive. A trailing constructor argument
/// sets the lock's patience; its default, 4096 observations, is generous
/// enough that wall-clock false suspicions are rare and small enough
/// that a corpse is detected in bounded logical time.
///
/// \tparam Manager ContentionManager pacing both the protected retry and
///         the degraded retry loop.
/// \tparam Policy register policy (Instrumented / Fast).
template <ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using CrashTolerantContentionSensitive = ContentionSensitiveSkeleton<
    LockRetrySlowPath<StarvationFreeLock<LeasableTag<1u << 12>, Policy>,
                      Manager>,
    Policy>;

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVE_H
