//===- soak/FaultCampaign.h - Recurring wall-clock fault campaigns -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phased wall-clock fault campaigns for the soak harness. A FaultPlan
/// (faults/FaultPlan.h) names faults by *access index* — exactly right
/// for deterministic tests, useless for "crash somebody roughly every
/// two seconds for a minute". A Campaign instead schedules faults in
/// wall-clock time, in phases (calm -> crash storm -> stall bursts ->
/// calm ...), and aims each one at a random live worker.
///
/// Delivery reuses the SchedHook channel end to end: each worker runs
/// under its FaultInjector (faults/FaultInjector.h), the campaign thread
/// posts a crash or a stall into the victim's injector, and the victim
/// executes it at its *next shared access* — so campaign faults land at
/// the same instrumented access points as planned faults, never in
/// harness code. A crash raises the same ProcessCrash the closed-loop
/// Driver knows; the soak worker catches it and re-enters its loop with
/// the same thread id, which is precisely the resurrection scenario the
/// crash-tolerant construction's RecoverableArbiter exists for
/// (abandoned doorway entries must be reclaimed, the degraded path must
/// absorb the churn). A posted stall is a FaultPlan stall — long enough
/// to expire leases, escape-hatched so it cannot wedge the run.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_SOAK_FAULTCAMPAIGN_H
#define CSOBJ_SOAK_FAULTCAMPAIGN_H

#include "faults/FaultInjector.h"
#include "support/SplitMix64.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace csobj {
namespace soak {

/// One wall-clock leg of a campaign. Within the phase, crash and stall
/// events fire with exponentially distributed gaps of the given mean
/// periods (0 = that fault kind is quiet this phase), each aimed at a
/// uniformly random worker.
struct CampaignPhase {
  double DurationSec = 1.0;
  double CrashMeanPeriodSec = 0.0;
  double StallMeanPeriodSec = 0.0;
  /// Length of a posted stall, in foreign shared-access grants.
  std::uint64_t StallGrants = 0;
};

/// A recurring fault campaign: phases walked in order and cycled for as
/// long as the soak runs.
struct Campaign {
  std::vector<CampaignPhase> Phases;
  std::uint64_t Seed = 0xca3f01d5ull;

  bool empty() const {
    for (const CampaignPhase &P : Phases)
      if (P.CrashMeanPeriodSec > 0 || P.StallMeanPeriodSec > 0)
        return false;
    return true;
  }

  double cycleSec() const {
    double Total = 0;
    for (const CampaignPhase &P : Phases)
      Total += P.DurationSec;
    return Total;
  }
};

/// Walks a Campaign in wall-clock time on its own thread, posting
/// faults into the workers' injectors. start()/stop() bracket the soak;
/// totals are the *posted* counts (a fault posted in the final instants
/// may go undelivered — compare with the injectors' fired counts).
class CampaignRunner {
public:
  CampaignRunner(const Campaign &Plan, std::vector<FaultInjector *> Victims)
      : Plan(Plan), Victims(std::move(Victims)), Rng(Plan.Seed) {}

  ~CampaignRunner() { stop(); }

  CampaignRunner(const CampaignRunner &) = delete;
  CampaignRunner &operator=(const CampaignRunner &) = delete;

  void start() {
    if (Plan.empty() || Victims.empty() || Thread.joinable())
      return;
    Stopping.store(false, std::memory_order_relaxed);
    Thread = std::thread([this] { run(); });
  }

  void stop() {
    if (!Thread.joinable())
      return;
    Stopping.store(true, std::memory_order_relaxed);
    Thread.join();
  }

  std::uint64_t crashesPosted() const {
    return CrashesPosted.load(std::memory_order_relaxed);
  }
  std::uint64_t stallsPosted() const {
    return StallsPosted.load(std::memory_order_relaxed);
  }

private:
  using Clock = std::chrono::steady_clock;

  double expGap(double MeanSec) {
    const double U =
        (static_cast<double>(Rng() >> 11) + 1.0) * 0x1.0p-53;
    return -std::log(U) * MeanSec;
  }

  void run() {
    const Clock::time_point Origin = Clock::now();
    auto elapsedSec = [&] {
      return std::chrono::duration_cast<std::chrono::duration<double>>(
                 Clock::now() - Origin)
          .count();
    };
    // Next fire times per channel, re-sampled when a phase with an
    // active channel is (re-)entered.
    double NextCrash = -1, NextStall = -1;
    std::size_t PhaseIdx = ~std::size_t{0};
    double PhaseEnd = 0;
    while (!Stopping.load(std::memory_order_relaxed)) {
      const double Now = elapsedSec();
      if (PhaseIdx == ~std::size_t{0} || Now >= PhaseEnd) {
        PhaseIdx = PhaseIdx == ~std::size_t{0}
                       ? 0
                       : (PhaseIdx + 1) % Plan.Phases.size();
        const CampaignPhase &P = Plan.Phases[PhaseIdx];
        PhaseEnd = (PhaseIdx == 0 && Now >= PhaseEnd ? Now : PhaseEnd) +
                   P.DurationSec;
        // Entering a phase re-rolls both channels relative to now.
        NextCrash = P.CrashMeanPeriodSec > 0
                        ? Now + expGap(P.CrashMeanPeriodSec)
                        : -1;
        NextStall = P.StallMeanPeriodSec > 0
                        ? Now + expGap(P.StallMeanPeriodSec)
                        : -1;
      }
      const CampaignPhase &P = Plan.Phases[PhaseIdx];
      if (NextCrash >= 0 && Now >= NextCrash) {
        Victims[Rng.below(Victims.size())]->postCrash();
        CrashesPosted.fetch_add(1, std::memory_order_relaxed);
        NextCrash = Now + expGap(P.CrashMeanPeriodSec);
      }
      if (NextStall >= 0 && Now >= NextStall) {
        Victims[Rng.below(Victims.size())]->postStall(P.StallGrants);
        StallsPosted.fetch_add(1, std::memory_order_relaxed);
        NextStall = Now + expGap(P.StallMeanPeriodSec);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Campaign Plan;
  std::vector<FaultInjector *> Victims;
  SplitMix64 Rng;
  std::thread Thread;
  std::atomic<bool> Stopping{false};
  std::atomic<std::uint64_t> CrashesPosted{0};
  std::atomic<std::uint64_t> StallsPosted{0};
};

} // namespace soak
} // namespace csobj

#endif // CSOBJ_SOAK_FAULTCAMPAIGN_H
