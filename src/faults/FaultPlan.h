//===- faults/FaultPlan.h - Declarative fault descriptions ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarative fault plans for the crash/stall fault model of Section 5.
/// A FaultPlan is plain data naming *which* process misbehaves and *when*
/// (at its K-th shared-memory access, in the paper's access-counting
/// convention), independent of how the plan is executed:
///
///  * wall-clock runs execute a plan through faults/FaultInjector.h — a
///    SchedHook that crashes, stalls or yields the thread at the trigger
///    access;
///  * explorer runs execute the same plan through faultPlanPick()
///    (faults/FaultInjector.h), which turns it into an
///    InterleaveScheduler picking policy so crashes land at exactly the
///    chosen access point of a controlled schedule.
///
/// Fault kinds:
///
///  * CrashStop — the paper's process-crash fault: the process stops at
///    the trigger point forever; the access never executes and whatever
///    prefix ran stays in shared memory.
///  * Stall — a bounded asynchrony burst: the process is held at the
///    trigger point until StallGrants shared accesses by *other* threads
///    have been granted (logical time, so the same plan is meaningful in
///    both wall-clock and explorer executions), then resumes normally.
///    This models the lease-expiry scenario of locks/LeasedLock.h: a
///    lock holder preempted long enough for a waiter's patience to run
///    out, without the holder actually dying.
///  * Yield — an ordinary preemption: the process gives up the core
///    once (the explorer grants the step to another thread, a one-grant
///    stall). On a host with fewer cores than threads, OS timeslices are
///    so long relative to an operation that two operations would
///    practically never overlap; yielding at a rate before each shared
///    access restores the asynchrony the paper reasons about.
///
/// Trigger shapes: besides the original one-shot at-access-K trigger, a
/// spec may be *recurring* (re-fires every Period accesses) or
/// *rate-based* (fires with a per-access probability from a seeded
/// stream). FaultPlan::chaos builds the rate-based yield/stall noise
/// that contended tests and benches run under; under the closed-loop
/// Driver a recurring crash degenerates to a one-shot because the victim
/// is never resurrected.
///
/// Posted faults: a wall-clock harness may also post a crash or a stall
/// into a running thread's FaultInjector, which delivers it at that
/// thread's next shared access. The soak harness's campaigns
/// (src/soak/FaultCampaign.h) aim faults in wall-clock time this way.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_FAULTS_FAULTPLAN_H
#define CSOBJ_FAULTS_FAULTPLAN_H

#include <cstdint>
#include <vector>

namespace csobj {

/// What happens to the victim at the trigger point.
enum class FaultKind : std::uint8_t {
  CrashStop, ///< Process stops forever (Section 5 crash fault).
  Stall,     ///< Process is held for StallGrants foreign accesses.
  Yield      ///< Process gives up the core once.
};

/// Number of FaultKind values.
inline constexpr unsigned NumFaultKinds = 3;

/// One fault: thread \p Tid misbehaves at its \p AtAccess-th shared
/// access (0-based, counted per thread).
///
/// Trigger shapes (checked in this order; a spec has exactly one):
///
///  * one-shot (Period == 0, RatePermille == 0) — fires once, at access
///    index AtAccess. The original crashAt/stallAt semantics.
///  * recurring (Period > 0) — fires at AtAccess, AtAccess + Period,
///    AtAccess + 2*Period, ... A recurring CrashStop is meaningful only
///    for harnesses that resurrect the victim (the soak harness does);
///    under the closed-loop Driver the first firing retires the thread,
///    so it degenerates to a one-shot.
///  * rate-based (RatePermille > 0) — fires independently at each access
///    with probability RatePermille/1000, from a PRNG stream derived
///    deterministically from (plan seed, tid), so the same plan over the
///    same access sequence fires at the same points.
struct FaultSpec {
  std::uint32_t Tid = 0;
  std::uint64_t AtAccess = 0;
  FaultKind Kind = FaultKind::CrashStop;
  /// Stall only: how many accesses by other threads must be granted
  /// before the victim resumes.
  std::uint64_t StallGrants = 0;
  /// Recurring trigger: re-fire every Period accesses after AtAccess.
  /// 0 = one-shot.
  std::uint64_t Period = 0;
  /// Rate-based trigger: fire with probability RatePermille/1000 at each
  /// access (AtAccess/Period are ignored). 0 = index-triggered.
  std::uint32_t RatePermille = 0;
};

/// An ordered collection of faults to inject into one run.
struct FaultPlan {
  /// Victim argument of chaos(): stall every thread.
  static constexpr std::uint32_t AllThreads = ~std::uint32_t{0};

  std::vector<FaultSpec> Faults;
  /// Base seed for rate-based triggers; each victim derives its own
  /// stream from (RateSeed, Tid).
  std::uint64_t RateSeed = 0x5eedfa017ull;

  bool empty() const { return Faults.empty(); }

  /// True when any spec is recurring or rate-based — such a plan keeps
  /// firing for as long as the victim runs.
  bool recurring() const {
    for (const FaultSpec &Spec : Faults)
      if (Spec.Period != 0 || Spec.RatePermille != 0)
        return true;
    return false;
  }

  /// Convenience: crash \p Tid at its \p K-th shared access.
  static FaultPlan crashAt(std::uint32_t Tid, std::uint64_t K) {
    FaultPlan Plan;
    Plan.Faults.push_back({Tid, K, FaultKind::CrashStop, 0});
    return Plan;
  }

  /// Convenience: stall \p Tid at its \p K-th shared access until
  /// \p Grants foreign accesses have been granted.
  static FaultPlan stallAt(std::uint32_t Tid, std::uint64_t K,
                           std::uint64_t Grants) {
    FaultPlan Plan;
    Plan.Faults.push_back({Tid, K, FaultKind::Stall, Grants});
    return Plan;
  }

  /// Convenience: fault \p Tid at access \p First and every \p Period
  /// accesses after that (recurring trigger).
  static FaultPlan everyAccesses(std::uint32_t Tid, std::uint64_t First,
                                 std::uint64_t Period, FaultKind Kind,
                                 std::uint64_t Grants = 0) {
    FaultPlan Plan;
    FaultSpec Spec{Tid, First, Kind, Grants};
    Spec.Period = Period;
    Plan.Faults.push_back(Spec);
    return Plan;
  }

  /// Convenience: stall \p Tid with probability \p Permille/1000 at each
  /// shared access (rate-based trigger).
  static FaultPlan stallAtRate(std::uint32_t Tid, std::uint32_t Permille,
                               std::uint64_t Grants) {
    FaultPlan Plan;
    FaultSpec Spec{Tid, 0, FaultKind::Stall, Grants};
    Spec.RatePermille = Permille;
    Plan.Faults.push_back(Spec);
    return Plan;
  }

  /// Convenience: crash \p Tid with probability \p Permille/1000 at each
  /// shared access (rate-based trigger; meaningful in resurrection
  /// harnesses, one-shot under the closed-loop Driver).
  static FaultPlan crashAtRate(std::uint32_t Tid, std::uint32_t Permille) {
    FaultPlan Plan;
    FaultSpec Spec{Tid, 0, FaultKind::CrashStop, 0};
    Spec.RatePermille = Permille;
    Plan.Faults.push_back(Spec);
    return Plan;
  }

  /// Rate-based asynchrony noise for \p Threads threads: every thread
  /// yields with probability \p YieldPermille/1000 before each shared
  /// access, and \p Victim (or every thread) stalls for \p StallGrants
  /// foreign accesses with probability \p StallPermille/1000. Stalling
  /// one victim models the paper-relevant scenario, one process
  /// preempted past the others' patience: when every thread may stall,
  /// mutually stalled threads stop the access clock and release each
  /// other early, so long stalls never expire a lease. Set RateSeed to
  /// give each run its own streams.
  static FaultPlan chaos(std::uint32_t Threads, std::uint32_t YieldPermille,
                         std::uint32_t StallPermille = 0,
                         std::uint64_t StallGrants = 0,
                         std::uint32_t Victim = AllThreads) {
    FaultPlan Plan;
    for (std::uint32_t Tid = 0; Tid < Threads; ++Tid) {
      if (StallPermille != 0 && (Victim == AllThreads || Victim == Tid)) {
        FaultSpec Stall{Tid, 0, FaultKind::Stall, StallGrants};
        Stall.RatePermille = StallPermille;
        Plan.Faults.push_back(Stall);
      }
      if (YieldPermille != 0) {
        FaultSpec Yield{Tid, 0, FaultKind::Yield};
        Yield.RatePermille = YieldPermille;
        Plan.Faults.push_back(Yield);
      }
    }
    return Plan;
  }
};

} // namespace csobj

#endif // CSOBJ_FAULTS_FAULTPLAN_H
