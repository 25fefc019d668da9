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
/// the paper's strong_push_or_pop(par):
///
///   lines 01-03 (the lock-free "shortcut"): if CONTENTION is false, try
///     the weak operation once; a non-bottom result returns immediately.
///     In a contention-free context this is the whole execution — one
///     read of CONTENTION plus the weak operation's accesses (six total
///     for the stack), and no lock.
///   lines 04-06 (the doorway): FLAG[i] <- true, wait for priority
///     (TURN = i or FLAG[TURN] = false), then take the deadlock-free lock.
///   lines 07-13 (the protected retry): raise CONTENTION, repeat the weak
///     operation until it succeeds, lower CONTENTION, release the doorway
///     and the lock, return the result.
///
/// The template is the paper's remark made code: contention-sensitiveness
/// is independent of which operation (push or pop — or enqueue, dequeue,
/// increment ...) is being strengthened, so the adapter works for any
/// abortable object. Starvation-freedom follows from Lemmas 1-3.
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

#include "locks/RoundRobinArbiter.h"
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

namespace csobj {

/// Batches up to this size keep their per-element result scratch on the
/// caller's stack; larger groups fall back to one heap allocation. The
/// wrappers' group operations (push_all/pop_all/drain) use it so common
/// batch sizes add zero allocator traffic to the operation path.
inline constexpr std::size_t BatchInlineCapacity = 64;

/// The Figure 3 execution skeleton. One instance guards one abortable
/// object; all strong operations on that object must go through the same
/// instance (they share CONTENTION, FLAG, TURN and LOCK).
///
/// \tparam Lock a deadlock-free lock (LockConcept). Starvation-freedom of
///         the whole construction does NOT require the lock itself to be
///         starvation-free — that is the point of the doorway. TasLock is
///         the default to exercise exactly the paper's assumption.
/// \tparam Manager ContentionManager pacing the protected retry of
///         line 08. NoBackoff reproduces the seed behaviour (the retry
///         is already lock-protected, so immediate retry is sound).
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Lock = TasLock, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class ContentionSensitive {
public:
  using RegisterPolicy = Policy;

  /// \p NumThreads is the paper's n; thread ids are 0..n-1. Zero throws
  /// std::invalid_argument (a hard check, kept under NDEBUG).
  explicit ContentionSensitive(std::uint32_t NumThreads)
      : N(checkedThreads(NumThreads)), Arbiter(NumThreads),
        Guard(NumThreads) {}

  /// strong_push_or_pop(par) for a generic operation. \p WeakOp is
  /// invoked with no arguments and returns std::optional<R>: nullopt
  /// encodes the paper's bottom (the attempt aborted; it had no effect),
  /// any value is a final non-bottom result (including full/empty style
  /// answers). Never returns bottom; always terminates (starvation-free,
  /// Theorem 1).
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
    return slowApply(Tid, WeakOp);           // lines 04-13
  }

  /// strongApply with an acceleration window between the paper's
  /// shortcut and the doorway: when the fast path fails (CONTENTION was
  /// raised, or the weak attempt aborted), \p Rescue gets one chance to
  /// finish the operation without competing for the lock — e.g. by
  /// pairing with an inverse operation in an elimination array. Rescue
  /// returns the same optional as WeakOp; nullopt falls through to the
  /// unchanged lines 04-13. The contention-free execution is untouched
  /// (one CONTENTION read plus one weak attempt, Rescue never invoked),
  /// so the 6-shared-access solo bound of the stack is preserved.
  /// Starvation-freedom is preserved too: Rescue is attempted exactly
  /// once, so every operation still reaches the doorway after a bounded
  /// number of its own steps (Lemmas 1-3 apply verbatim).
  template <typename WeakOpFn, typename RescueFn>
  auto strongApplyWithRescue(std::uint32_t Tid, WeakOpFn WeakOp,
                             RescueFn Rescue)
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
    if (auto Res = Rescue()) {               // acceleration window
      Sink.onPath(Tid, obs::Path::Eliminated);
      return *Res;
    }
    return slowApply(Tid, WeakOp);           // lines 04-13
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
  /// remainder* cuts over to one doorway entry + one lock acquisition,
  /// under which the remaining elements are applied back to back with
  /// the line-08 protected retry, then one release. That is the k-ops/
  /// one-lock amortization flat combining promises, available even on
  /// the plain Fig-3 skeleton. Starvation-freedom is unchanged: the
  /// batch holds the lock for a bounded number of its own steps (Count
  /// is finite, each retry is Manager-paced exactly like strongApply).
  template <typename WeakAtFn, typename StopFn, typename R>
  std::size_t strongApplyBatch(std::uint32_t Tid, std::size_t Count,
                               WeakAtFn WeakAt, StopFn Stop, R *Out) {
    assert(Tid < N && "thread id out of range");
    std::size_t I = 0;
    while (I < Count) {                        // per-element shortcut
      Sink.onOp(Tid);
      if (Contention.value().read(std::memory_order_acquire) != 0)
        break;                                 // element I stays counted
      auto Res = WeakAt(I);
      if (!Res) {
        Sink.onEvent(Tid, obs::Event::ShortcutAbort);
        break;                                 // adaptive cutover
      }
      Out[I] = *Res;
      Sink.onPath(Tid, obs::Path::Shortcut);
      ++I;
      if (Stop(Out[I - 1]))
        return I;
    }
    if (I == Count)
      return I;
    // Group phase: one doorway, one lock, k sequential applies, one
    // release. Element I was already op-counted by the loop above.
    Arbiter.enter(Tid);
    Guard.lock(Tid);
    Contention.value().write(1, std::memory_order_release);
    Manager Mgr;
    std::uint64_t Applied = 0;
    bool Stopped = false;
    for (; I < Count && !Stopped; ++I) {
      if (Applied != 0)
        Sink.onOp(Tid);
      auto Res = WeakAt(I);
      while (!Res) {
        Sink.onEvent(Tid, obs::Event::ProtectedRetry);
        Mgr.onAbort();
        Res = WeakAt(I);
      }
      Mgr.onSuccess();
      Out[I] = *Res;
      ++Applied;
      Stopped = Stop(Out[I]);
    }
    Contention.value().write(0, std::memory_order_release);
    Arbiter.exitAndAdvance(Tid);
    Guard.unlock(Tid);
    Sink.onPath(Tid, obs::Path::Batched, Applied);
    Sink.onBatch(Tid, Applied);
    return I;
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

  /// The doorway (exposed for fairness tests).
  RoundRobinArbiterT<Policy> &arbiter() { return Arbiter; }

  /// Heap owned by the skeleton: the doorway's FLAG array plus the
  /// metric sink's per-thread blocks (zero under CSOBJ_NO_METRICS).
  std::size_t heapBytes() const {
    return Arbiter.heapBytes() + Sink.heapBytes();
  }

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

  /// Lines 04-13: the doorway, the lock, and the protected retry.
  template <typename WeakOpFn>
  auto slowApply(std::uint32_t Tid, WeakOpFn &WeakOp)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    Arbiter.enter(Tid);                      // lines 04-05
    Guard.lock(Tid);                         // line 06
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
    Sink.onPath(Tid, obs::Path::Lock);
    return *Res;                             // line 13
  }

  const std::uint32_t N;
  CacheLinePadded<AtomicRegister<std::uint8_t, Policy>> Contention;
  RoundRobinArbiterT<Policy> Arbiter;
  Lock Guard;
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

/// The paper's Section 4.1 Remark, as code: "If the lock is
/// starvation-free (...) the array FLAG[1..n] and the register TURN
/// become useless and consequently the lines 04-05 and 10-11 can be
/// suppressed from the algorithm." This variant keeps only lines 01-03
/// and 06-09/12-13 and must be instantiated with a lock that is itself
/// starvation-free (ticket, MCS, CLH, Anderson, tournament, or any
/// StarvationFreeLock<...>). Tested equivalent to the full construction.
template <typename StarvationFreeLockT,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class SimplifiedContentionSensitive {
public:
  using RegisterPolicy = Policy;

  /// Zero \p NumThreads throws std::invalid_argument, as for
  /// ContentionSensitive.
  explicit SimplifiedContentionSensitive(std::uint32_t NumThreads)
      : N(checkedThreads(NumThreads)), Guard(NumThreads) {}

  /// strong_push_or_pop(par) without the doorway (paper §4.1 Remark).
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
    Guard.lock(Tid);                         // line 06
    Contention.value().write(1, std::memory_order_release); // line 07
    Manager Mgr;
    auto Res = WeakOp();                     // line 08
    while (!Res) {
      Sink.onEvent(Tid, obs::Event::ProtectedRetry);
      Mgr.onAbort();
      Res = WeakOp();
    }
    Mgr.onSuccess();
    Contention.value().write(0, std::memory_order_release); // line 09
    Guard.unlock(Tid);                       // line 12
    Sink.onPath(Tid, obs::Path::Lock);
    return *Res;                             // line 13
  }

  /// Group form (see ContentionSensitive::strongApplyBatch): per-element
  /// shortcut, then the whole remainder under one lock acquisition. Same
  /// contract, minus the suppressed doorway lines.
  template <typename WeakAtFn, typename StopFn, typename R>
  std::size_t strongApplyBatch(std::uint32_t Tid, std::size_t Count,
                               WeakAtFn WeakAt, StopFn Stop, R *Out) {
    assert(Tid < N && "thread id out of range");
    std::size_t I = 0;
    while (I < Count) {
      Sink.onOp(Tid);
      if (Contention.value().read(std::memory_order_acquire) != 0)
        break;
      auto Res = WeakAt(I);
      if (!Res) {
        Sink.onEvent(Tid, obs::Event::ShortcutAbort);
        break;
      }
      Out[I] = *Res;
      Sink.onPath(Tid, obs::Path::Shortcut);
      ++I;
      if (Stop(Out[I - 1]))
        return I;
    }
    if (I == Count)
      return I;
    Guard.lock(Tid);
    Contention.value().write(1, std::memory_order_release);
    Manager Mgr;
    std::uint64_t Applied = 0;
    bool Stopped = false;
    for (; I < Count && !Stopped; ++I) {
      if (Applied != 0)
        Sink.onOp(Tid);
      auto Res = WeakAt(I);
      while (!Res) {
        Sink.onEvent(Tid, obs::Event::ProtectedRetry);
        Mgr.onAbort();
        Res = WeakAt(I);
      }
      Mgr.onSuccess();
      Out[I] = *Res;
      ++Applied;
      Stopped = Stop(Out[I]);
    }
    Contention.value().write(0, std::memory_order_release);
    Guard.unlock(Tid);
    Sink.onPath(Tid, obs::Path::Batched, Applied);
    Sink.onBatch(Tid, Applied);
    return I;
  }

  std::uint32_t numThreads() const { return N; }

  /// Path-attributed metrics (obs/PathCounters.h).
  obs::MetricSink &metrics() const { return Sink; }
  obs::PathSnapshot pathSnapshot() const { return Sink.snapshot(); }

  bool contentionForTesting() const {
    return Contention.value().peekForTesting() != 0;
  }

  /// Heap owned by the skeleton: the starvation-free lock's arbiter FLAG
  /// array (when the plugged lock owns heap) plus the metric sink's
  /// blocks.
  std::size_t heapBytes() const {
    std::size_t Bytes = Sink.heapBytes();
    if constexpr (requires { Guard.heapBytes(); })
      Bytes += Guard.heapBytes();
    return Bytes;
  }

private:
  /// Runs before any member is sized: a zero process count would size
  /// the per-process arrays empty, and the first operation would index
  /// past them.
  static std::uint32_t checkedThreads(std::uint32_t NumThreads) {
    if (NumThreads < 1)
      throw std::invalid_argument(
          "SimplifiedContentionSensitive: need at least one process");
    return NumThreads;
  }

  const std::uint32_t N;
  CacheLinePadded<AtomicRegister<std::uint8_t, Policy>> Contention;
  StarvationFreeLockT Guard;
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVE_H
