//===- faults/FaultInjector.h - Fault plan execution ------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a FaultPlan (faults/FaultPlan.h) against real code, through
/// the same SchedHook channel the interleaving explorer uses — every
/// AtomicRegister access of an Instrumented-policy object is a potential
/// fault point, so the plan's access indices mean the same thing in every
/// execution mode.
///
///  * FaultInjector is the one per-thread SchedHook for wall-clock runs
///    (the closed-loop Driver, the soak harness, stress tests, benches).
///    At a trigger access it throws ProcessCrash — the worker loop
///    catches it and retires or resurrects the thread, modelling
///    crash-stop — stalls until enough foreign accesses have ticked the
///    run's shared FaultClock, or yields once. Besides its plan it takes
///    crashes and stalls posted from another thread, delivered at the
///    owner's next shared access.
///  * faultPlanPick() adapts the same plan to the InterleaveScheduler: it
///    returns a picking policy that crashes the victim via KillFlag at
///    exactly the planned access index and refuses to grant a stalled
///    victim while other threads still have accesses to run.
///
/// Both executors keep per-thread access counts themselves; nothing in
/// the algorithm under test needs to cooperate.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_FAULTS_FAULTINJECTOR_H
#define CSOBJ_FAULTS_FAULTINJECTOR_H

#include "faults/FaultPlan.h"
#include "memory/SchedHook.h"
#include "sched/InterleaveScheduler.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace csobj {

/// Thrown by FaultInjector at a crash-stop trigger point; the access
/// never executes. Wall-clock harnesses (runtime/Driver.h) catch it and
/// retire the thread. Distinct from sched::SimulatedCrash so that a
/// harness can tell planned wall-clock faults from explorer kills.
struct ProcessCrash {};

/// Logical clock shared by all FaultInjector instances of one run: every
/// shared access by any hooked thread ticks it once. Stalls are measured
/// in foreign ticks, so a stalled thread's own (suspended) accesses do
/// not count toward its release.
struct FaultClock {
  std::atomic<std::uint64_t> Ticks{0};
};

/// Consecutive progress-free yields before a stall expires early.
inline constexpr std::uint32_t StallIdleYieldCap = 512;

/// Holds the calling thread until \p Grants foreign accesses have ticked
/// \p Clock, yielding between checks. Escape hatch: if the clock stops
/// advancing (the victim is the only live thread, or every other thread
/// is itself stalled) the stall expires after StallIdleYieldCap quiet
/// yields instead of deadlocking the run. A stall thus lasts its grants
/// or until no other thread runs, as faultPlanPick() ends it.
inline void stallUntilForeignGrants(FaultClock &Clock, std::uint64_t Grants) {
  const std::uint64_t Start = Clock.Ticks.load(std::memory_order_relaxed);
  std::uint64_t LastSeen = Start;
  std::uint32_t Idle = 0;
  while (Clock.Ticks.load(std::memory_order_relaxed) - Start < Grants) {
    std::this_thread::yield();
    const std::uint64_t Now = Clock.Ticks.load(std::memory_order_relaxed);
    if (Now == LastSeen) {
      if (++Idle > StallIdleYieldCap)
        break;
    } else {
      LastSeen = Now;
      Idle = 0;
    }
  }
}

/// Per-thread wall-clock fault executor. Install with SchedHookScope, or
/// with FaultScope below.
class FaultInjector final : public SchedHook {
public:
  FaultInjector(const FaultPlan &Plan, std::uint32_t Tid, FaultClock &Clock)
      : Clock(Clock), RateRng(SplitMix64(Plan.RateSeed).split(Tid)) {
    for (const FaultSpec &Spec : Plan.Faults) {
      if (Spec.Tid != Tid)
        continue;
      if (Spec.RatePermille != 0)
        RateBased.push_back(Spec);
      else if (Spec.Period != 0)
        Recurring.push_back(Spec);
      else
        Pending.push_back(Spec);
    }
    std::sort(Pending.begin(), Pending.end(),
              [](const FaultSpec &A, const FaultSpec &B) {
                return A.AtAccess < B.AtAccess;
              });
  }

  void beforeSharedAccess(AccessKind) override {
    Clock.Ticks.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t Index = NextAccess++;
    // At most one fault per access. A posted fault comes first; then
    // one-shots outrank recurring outrank rate-based, so a deterministic
    // plan stays deterministic even when a rate channel rides along. A
    // one-shot displaced by a post fires at the next access.
    if (Mailbox.load(std::memory_order_relaxed) != NoPost) {
      const std::uint64_t Post =
          Mailbox.exchange(NoPost, std::memory_order_acq_rel);
      fire(Post == PostedCrash ? FaultKind::CrashStop : FaultKind::Stall,
           Post);
      return;
    }
    if (Next < Pending.size() && Pending[Next].AtAccess <= Index) {
      const FaultSpec &Spec = Pending[Next++];
      fire(Spec.Kind, Spec.StallGrants);
      return;
    }
    for (const FaultSpec &Spec : Recurring) {
      if (Index < Spec.AtAccess || (Index - Spec.AtAccess) % Spec.Period != 0)
        continue;
      fire(Spec.Kind, Spec.StallGrants);
      return;
    }
    for (const FaultSpec &Spec : RateBased) {
      if (!RateRng.chance(Spec.RatePermille, 1000))
        continue;
      fire(Spec.Kind, Spec.StallGrants);
      return;
    }
  }

  /// Posts a crash-stop for the owning thread's next shared access. Any
  /// thread may post; a post overwrites one not yet delivered (a victim
  /// can only die once per posting anyway).
  void postCrash() { Mailbox.store(PostedCrash, std::memory_order_release); }

  /// Posts a stall of \p Grants foreign accesses (see postCrash).
  void postStall(std::uint64_t Grants) {
    // Grants of 0 would read as no post; a 1-grant stall is equally short.
    Mailbox.store(Grants ? Grants : 1, std::memory_order_release);
  }

  /// Number of accesses this thread has attempted so far.
  std::uint64_t accessesSeen() const { return NextAccess; }

  /// Faults of \p Kind delivered so far (crashes thrown, stalls begun,
  /// yields taken), posted or planned. Readable from any thread while the
  /// owner runs.
  std::uint64_t fired(FaultKind Kind) const {
    return Fired[static_cast<unsigned>(Kind)].load(
        std::memory_order_relaxed);
  }

  /// Faults of every kind delivered so far.
  std::uint64_t faultsFired() const {
    std::uint64_t Total = 0;
    for (const auto &Count : Fired)
      Total += Count.load(std::memory_order_relaxed);
    return Total;
  }

private:
  static constexpr std::uint64_t NoPost = 0;
  static constexpr std::uint64_t PostedCrash = ~std::uint64_t{0};

  void fire(FaultKind Kind, std::uint64_t StallGrants) {
    Fired[static_cast<unsigned>(Kind)].fetch_add(1,
                                                 std::memory_order_relaxed);
    switch (Kind) {
    case FaultKind::CrashStop:
      throw ProcessCrash{};
    case FaultKind::Stall:
      stallUntilForeignGrants(Clock, StallGrants);
      return;
    case FaultKind::Yield:
      std::this_thread::yield();
      return;
    }
  }

  FaultClock &Clock;
  std::vector<FaultSpec> Pending;   ///< One-shots, sorted by AtAccess.
  std::vector<FaultSpec> Recurring; ///< Period-triggered specs.
  std::vector<FaultSpec> RateBased; ///< Probability-triggered specs.
  SplitMix64 RateRng;
  std::size_t Next = 0;
  std::uint64_t NextAccess = 0;
  /// Posted fault: NoPost, PostedCrash, or a stall's grants.
  std::atomic<std::uint64_t> Mailbox{NoPost};
  std::atomic<std::uint64_t> Fired[NumFaultKinds] = {};
};

/// Runs the calling thread under a FaultInjector executing \p Plan for
/// the scope's lifetime; installs nothing when the plan is empty. Every
/// thread of a run installs one over the same plan and clock, so the
/// threads a plan leaves alone still tick the clock a stall waits on.
class FaultScope {
public:
  FaultScope(const FaultPlan &Plan, std::uint32_t Tid, FaultClock &Clock) {
    if (Plan.empty())
      return;
    Injector.emplace(Plan, Tid, Clock);
    Scope.emplace(*Injector);
  }

private:
  std::optional<FaultInjector> Injector;
  std::optional<SchedHookScope> Scope;
};

/// Adapts a FaultPlan to the InterleaveScheduler: wraps \p Base so that a
/// planned crash is delivered via KillFlag at exactly the victim's
/// AtAccess-th granted access, and a planned stall keeps the victim
/// parked until StallGrants foreign accesses have been granted (or no
/// other thread can run, in which case the stall expires — mirroring the
/// wall-clock escape hatch). A planned yield is a one-grant stall: the
/// step goes to another thread, so a plan means the same thing in both
/// executors. Recurring specs (Period > 0) are never consumed and
/// re-fire at every matching access index; rate-based specs fire from a
/// per-victim stream derived from the plan's RateSeed, so a given plan
/// explores the same faulty schedule every run. The returned policy owns
/// its per-thread grant counters, so build a fresh one per run.
inline InterleaveScheduler::PickFn
faultPlanPick(FaultPlan Plan, InterleaveScheduler::PickFn Base =
                                  [](std::size_t,
                                     const std::vector<std::uint32_t> &P) {
                                    return P.front();
                                  }) {
  struct State {
    FaultPlan Plan;
    InterleaveScheduler::PickFn Base;
    std::vector<char> Consumed;         ///< One-shot flag per plan entry.
    /// Recurring specs only: first access count at which the spec may
    /// fire again. A fired stall does not grant the access (the count
    /// does not advance), so without this guard a recurring spec would
    /// re-trigger at the same index the moment its stall expired.
    std::vector<std::uint64_t> NextEligible;
    std::vector<std::uint64_t> Granted; ///< Per-tid granted-access counts.
    std::vector<SplitMix64> RateRngs;   ///< Per-tid rate-trigger streams.
    std::uint64_t TotalGrants = 0;
    /// Active stall: victim tid and the TotalGrants value at which it
    /// may run again. ~0 tid = none.
    std::uint32_t StalledTid = ~std::uint32_t{0};
    std::uint64_t StallUntil = 0;

    /// Does \p Spec trigger at the victim's \p Count-th granted access?
    /// Draws from the victim's rate stream when the spec is rate-based.
    bool triggers(const FaultSpec &Spec, std::uint32_t Tid,
                  std::uint64_t Count) {
      if (Spec.RatePermille != 0) {
        if (Tid >= RateRngs.size())
          for (std::uint32_t T = RateRngs.size(); T <= Tid; ++T)
            RateRngs.push_back(SplitMix64(Plan.RateSeed).split(T));
        return RateRngs[Tid].chance(Spec.RatePermille, 1000);
      }
      if (Spec.Period != 0)
        return Count >= Spec.AtAccess &&
               (Count - Spec.AtAccess) % Spec.Period == 0;
      return Spec.AtAccess == Count;
    }
  };
  auto S = std::make_shared<State>();
  S->Plan = std::move(Plan);
  S->Base = std::move(Base);
  S->Consumed.assign(S->Plan.Faults.size(), 0);
  S->NextEligible.assign(S->Plan.Faults.size(), 0);

  return [S](std::size_t Step,
             const std::vector<std::uint32_t> &Parked) -> std::uint32_t {
    auto countFor = [&](std::uint32_t Tid) -> std::uint64_t & {
      if (Tid >= S->Granted.size())
        S->Granted.resize(Tid + 1, 0);
      return S->Granted[Tid];
    };
    // Expire a finished stall.
    if (S->StalledTid != ~std::uint32_t{0} &&
        S->TotalGrants >= S->StallUntil)
      S->StalledTid = ~std::uint32_t{0};

    // Candidates the base policy may pick: everyone not actively stalled.
    std::vector<std::uint32_t> Eligible;
    for (const std::uint32_t Tid : Parked)
      if (Tid != S->StalledTid)
        Eligible.push_back(Tid);
    if (Eligible.empty()) {
      // Only the stalled victim can run: the stall expires (wall-clock
      // escape-hatch semantics).
      S->StalledTid = ~std::uint32_t{0};
      Eligible = Parked;
    }

    const std::uint32_t Chosen =
        S->Base(Step, Eligible) & ~InterleaveScheduler::KillFlag;
    std::uint64_t &Count = countFor(Chosen);

    // Does a fault trigger at this access of the chosen thread?
    for (std::size_t I = 0; I < S->Plan.Faults.size(); ++I) {
      const FaultSpec &Spec = S->Plan.Faults[I];
      if (S->Consumed[I] || Spec.Tid != Chosen ||
          Count < S->NextEligible[I] || !S->triggers(Spec, Chosen, Count))
        continue;
      // Recurring and rate-based specs stay armed and may re-fire (at a
      // strictly later access count).
      if (Spec.Period == 0 && Spec.RatePermille == 0)
        S->Consumed[I] = 1;
      S->NextEligible[I] = Count + 1;
      if (Spec.Kind == FaultKind::CrashStop) {
        // The access is not granted (KillFlag unwinds before it runs),
        // so the per-thread count does not advance.
        return Chosen | InterleaveScheduler::KillFlag;
      }
      // Stall (or yield, a one-grant stall): start holding the victim,
      // grant someone else this step.
      S->StalledTid = Chosen;
      S->StallUntil = S->TotalGrants + (Spec.Kind == FaultKind::Yield
                                            ? 1
                                            : Spec.StallGrants);
      std::vector<std::uint32_t> Others;
      for (const std::uint32_t Tid : Parked)
        if (Tid != Chosen)
          Others.push_back(Tid);
      if (Others.empty()) {
        S->StalledTid = ~std::uint32_t{0}; // Nobody else: stall expires.
        break;
      }
      const std::uint32_t Alt =
          S->Base(Step, Others) & ~InterleaveScheduler::KillFlag;
      ++countFor(Alt);
      ++S->TotalGrants;
      return Alt;
    }

    ++Count;
    ++S->TotalGrants;
    return Chosen;
  };
}

} // namespace csobj

#endif // CSOBJ_FAULTS_FAULTINJECTOR_H
