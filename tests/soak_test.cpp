//===- tests/soak_test.cpp - Service-mode soak harness ---------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The soak layer (src/soak/), bottom up:
///
///  * ArrivalStream — the open-loop load generator is deterministic
///    under a fixed seed, realises the configured rate, and skews keys
///    the way Zipf says it should.
///  * CampaignHook / CampaignRunner — posted faults are delivered at the
///    victim's next shared access through the SchedHook channel, and the
///    wall-clock runner actually posts during active phases.
///  * evaluateSlo — synthetic windows produce the exact violations the
///    policy promises (and a clean run produces none).
///  * runSoak — a short end-to-end smoke over the crash-tolerant stack:
///    windows are produced, operations complete, per-window and final
///    conservation hold, the empty policy passes, and every op's sojourn
///    splits exactly into generator lag, queue wait and service.
///
/// The long-form soak (60s, full campaign) is experiment E15
/// (bench/bench_soak.cpp); this file keeps the harness honest at test
/// timescales.
///
//===----------------------------------------------------------------------===//

#include "soak/SoakHarness.h"

#include "core/CrashTolerantStack.h"
#include "runtime/Driver.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace csobj {
namespace {

using namespace csobj::soak;

//===----------------------------------------------------------------------===
// ArrivalStream
//===----------------------------------------------------------------------===

ArrivalSchedule rampSchedule() {
  ArrivalSchedule Sched;
  Sched.Phases = {{0.5, 2000, 4000}, {0.5, 4000, 2000}};
  Sched.BurstMeanPeriodSec = 0.5;
  Sched.BurstDurationSec = 0.1;
  Sched.BurstMultiplier = 3.0;
  Sched.Keys = 8;
  Sched.ZipfS = 1.2;
  Sched.PushPercent = 50;
  return Sched;
}

TEST(ArrivalStreamTest, SameSeedReplaysTheExactSequence) {
  const ArrivalSchedule Sched = rampSchedule();
  ArrivalStream A(Sched, 42), B(Sched, 42);
  for (int I = 0; I < 2000; ++I) {
    const Arrival X = A.next(), Y = B.next();
    ASSERT_EQ(X.NominalNs, Y.NominalNs) << "arrival " << I;
    ASSERT_EQ(X.Key, Y.Key) << "arrival " << I;
    ASSERT_EQ(X.IsPush, Y.IsPush) << "arrival " << I;
    ASSERT_EQ(X.Value, Y.Value) << "arrival " << I;
  }
}

TEST(ArrivalStreamTest, DifferentSeedsDiverge) {
  const ArrivalSchedule Sched = rampSchedule();
  ArrivalStream A(Sched, 1), B(Sched, 2);
  bool Diverged = false;
  for (int I = 0; I < 64 && !Diverged; ++I)
    Diverged = A.next().NominalNs != B.next().NominalNs;
  EXPECT_TRUE(Diverged);
}

TEST(ArrivalStreamTest, TimestampsAreNonDecreasing) {
  ArrivalStream Stream(rampSchedule(), 7);
  std::uint64_t Prev = 0;
  for (int I = 0; I < 5000; ++I) {
    const std::uint64_t Now = Stream.next().NominalNs;
    ASSERT_GE(Now, Prev);
    Prev = Now;
  }
}

TEST(ArrivalStreamTest, FlatScheduleRealisesItsRate) {
  // 20000 exponential gaps at 5000/s: the elapsed stream time is 4s in
  // expectation with a relative sigma of 1/sqrt(20000) ~ 0.7%, so a 5%
  // band is a >7-sigma assertion — deterministic in practice.
  const double Rate = 5000.0;
  ArrivalStream Stream(ArrivalSchedule::flat(Rate), 11);
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Stream.next();
  const double Empirical = N / Stream.nowSec();
  EXPECT_NEAR(Empirical, Rate, Rate * 0.05);
}

TEST(ArrivalStreamTest, ZipfSkewMakesLowKeysHot) {
  ArrivalSchedule Sched = ArrivalSchedule::flat(1000);
  Sched.Keys = 8;
  Sched.ZipfS = 1.2;
  ArrivalStream Stream(Sched, 3);
  std::vector<std::uint64_t> Hist(Sched.Keys, 0);
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    const std::uint32_t Key = Stream.next().Key;
    ASSERT_LT(Key, Sched.Keys);
    ++Hist[Key];
  }
  // Zipf(1.2) weights: w0 = 1, w1 ~ 0.44, w7 ~ 0.08. Coarse shape
  // checks with lots of headroom over sampling noise.
  EXPECT_GT(Hist[0], Hist[1]);
  EXPECT_GT(Hist[1], Hist[7]);
  EXPECT_GT(Hist[0], 3 * Hist[7]);
}

TEST(ArrivalStreamTest, UniformKeysWhenSkewIsZero) {
  ArrivalSchedule Sched = ArrivalSchedule::flat(1000);
  Sched.Keys = 4;
  Sched.ZipfS = 0.0;
  ArrivalStream Stream(Sched, 5);
  std::vector<std::uint64_t> Hist(Sched.Keys, 0);
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    ++Hist[Stream.next().Key];
  for (std::uint32_t K = 0; K < Sched.Keys; ++K)
    EXPECT_NEAR(static_cast<double>(Hist[K]), N / 4.0, N / 4.0 * 0.2)
        << "key " << K;
}

//===----------------------------------------------------------------------===
// CampaignHook / CampaignRunner
//===----------------------------------------------------------------------===

TEST(CampaignHookTest, DeliversPostedFaultsAtTheNextSharedAccess) {
  FaultClock Clock;
  CampaignHook Hook(Clock);
  AtomicRegister<std::uint32_t> Reg;
  SchedHookScope Scope(Hook);

  // No command posted: accesses are clean.
  Reg.write(1);
  EXPECT_EQ(Hook.crashesFired(), 0u);
  EXPECT_EQ(Hook.stallsFired(), 0u);

  // A posted crash fires exactly once, at the next access.
  Hook.postCrash();
  bool Crashed = false;
  try {
    Reg.write(2);
  } catch (const ProcessCrash &) {
    Crashed = true;
  }
  EXPECT_TRUE(Crashed);
  EXPECT_EQ(Hook.crashesFired(), 1u);
  EXPECT_EQ(Reg.peekForTesting(), 1u); // The faulted write never ran.

  // The command was consumed: the follow-up access is clean again.
  Reg.write(3);
  EXPECT_EQ(Hook.crashesFired(), 1u);

  // A posted stall holds, then lets the access complete (solo escape
  // hatch, same as every other wall-clock stall).
  Hook.postStall(4);
  Reg.write(4);
  EXPECT_EQ(Hook.stallsFired(), 1u);
  EXPECT_EQ(Reg.peekForTesting(), 4u);
}

TEST(CampaignRunnerTest, ActivePhasesPostBothFaultKinds) {
  FaultClock Clock;
  CampaignHook Hook(Clock);
  Campaign Plan;
  Plan.Phases = {{/*DurationSec=*/5.0, /*CrashMeanPeriodSec=*/0.01,
                  /*StallMeanPeriodSec=*/0.01, /*StallGrants=*/1}};
  CampaignRunner Runner(Plan, {&Hook});
  Runner.start();
  // 10ms mean periods: ~30 posts per channel in 300ms. Wait for at
  // least one of each rather than asserting a count.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((Runner.crashesPosted() == 0 || Runner.stallsPosted() == 0) &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Runner.stop();
  EXPECT_GT(Runner.crashesPosted(), 0u);
  EXPECT_GT(Runner.stallsPosted(), 0u);
}

TEST(CampaignRunnerTest, EmptyCampaignNeverStarts) {
  FaultClock Clock;
  CampaignHook Hook(Clock);
  Campaign Plan;
  Plan.Phases = {{1.0, 0, 0, 0}}; // Quiet phase only.
  EXPECT_TRUE(Plan.empty());
  CampaignRunner Runner(Plan, {&Hook});
  Runner.start();
  Runner.stop();
  EXPECT_EQ(Runner.crashesPosted(), 0u);
  EXPECT_EQ(Runner.stallsPosted(), 0u);
}

//===----------------------------------------------------------------------===
// evaluateSlo
//===----------------------------------------------------------------------===

WindowStats conservingWindow(std::uint64_t Index) {
  WindowStats W;
  W.Index = Index;
  W.Conserves = true;
  return W;
}

TEST(SloTest, EmptyPolicyPassesACleanRun) {
  std::vector<WindowStats> Windows;
  Windows.push_back(conservingWindow(0));
  Windows.push_back(conservingWindow(1));
  LatencyHistogram Sojourn;
  LatencyHistogram PathLat[obs::NumPaths + 1];
  const SloVerdict V = evaluateSlo(SloPolicy{}, Windows, Sojourn, PathLat,
                                   /*TotalStuckOps=*/0,
                                   /*TotalArrivals=*/100, /*TotalShed=*/0);
  EXPECT_TRUE(V.Pass);
  EXPECT_TRUE(V.Violations.empty());
}

TEST(SloTest, ConservationFailureIsAlwaysFatal) {
  std::vector<WindowStats> Windows;
  Windows.push_back(conservingWindow(0));
  WindowStats Bad = conservingWindow(1);
  Bad.Conserves = false;
  Windows.push_back(std::move(Bad));
  LatencyHistogram Sojourn;
  LatencyHistogram PathLat[obs::NumPaths + 1];
  const SloVerdict V = evaluateSlo(SloPolicy{}, Windows, Sojourn, PathLat,
                                   0, 100, 0);
  ASSERT_FALSE(V.Pass);
  ASSERT_EQ(V.Violations.size(), 1u);
  EXPECT_EQ(V.Violations[0].Metric, "conservation");
  EXPECT_EQ(V.Violations[0].Window, 1u);
}

TEST(SloTest, DegradedFractionBudgetRespectsWarmup) {
  // Both windows are 80% degraded; only the post-warmup one violates.
  auto degradedWindow = [](std::uint64_t Index) {
    WindowStats W = conservingWindow(Index);
    W.Paths.Paths[static_cast<unsigned>(obs::Path::Degraded)] = 80;
    W.Paths.Paths[static_cast<unsigned>(obs::Path::Lock)] = 20;
    W.Paths.Ops = 100;
    return W;
  };
  std::vector<WindowStats> Windows;
  Windows.push_back(degradedWindow(0));
  Windows.push_back(degradedWindow(1));
  SloPolicy Policy;
  Policy.MaxDegradedFraction = 0.5;
  Policy.WarmupWindows = 1;
  LatencyHistogram Sojourn;
  LatencyHistogram PathLat[obs::NumPaths + 1];
  const SloVerdict V =
      evaluateSlo(Policy, Windows, Sojourn, PathLat, 0, 100, 0);
  ASSERT_FALSE(V.Pass);
  ASSERT_EQ(V.Violations.size(), 1u);
  EXPECT_EQ(V.Violations[0].Metric, "degraded_fraction");
  EXPECT_EQ(V.Violations[0].Window, 1u);
  EXPECT_DOUBLE_EQ(V.Violations[0].Observed, 0.8);
}

TEST(SloTest, LatencyBudgetsFireOnlyForPopulatedPaths) {
  std::vector<WindowStats> Windows;
  Windows.push_back(conservingWindow(0));
  LatencyHistogram Sojourn;
  LatencyHistogram PathLat[obs::NumPaths + 1];
  // Only the Lock path has samples, all at ~1ms.
  const unsigned LockIdx = static_cast<unsigned>(obs::Path::Lock);
  for (int I = 0; I < 1000; ++I) {
    PathLat[LockIdx].record(1'000'000);
    Sojourn.record(2'000'000);
  }
  SloPolicy Policy;
  for (unsigned P = 0; P < obs::NumPaths; ++P)
    Policy.P99BudgetNs[P] = 500'000; // 0.5ms: the Lock path violates.
  Policy.SojournP99BudgetNs = 10'000'000; // 10ms: sojourn is fine.
  const SloVerdict V =
      evaluateSlo(Policy, Windows, Sojourn, PathLat, 0, 100, 0);
  ASSERT_FALSE(V.Pass);
  ASSERT_EQ(V.Violations.size(), 1u);
  EXPECT_EQ(V.Violations[0].Metric,
            std::string("service_p99_ns.") + obs::pathName(obs::Path::Lock));
  EXPECT_TRUE(V.Violations[0].wholeRun());
}

TEST(SloTest, StuckAndShedBudgetsAreWholeRun) {
  std::vector<WindowStats> Windows;
  Windows.push_back(conservingWindow(0));
  LatencyHistogram Sojourn;
  LatencyHistogram PathLat[obs::NumPaths + 1];
  SloPolicy Policy;
  Policy.MaxStuckOps = 0;
  Policy.MaxShedFraction = 0.01;
  const SloVerdict V = evaluateSlo(Policy, Windows, Sojourn, PathLat,
                                   /*TotalStuckOps=*/2,
                                   /*TotalArrivals=*/1000,
                                   /*TotalShed=*/100);
  ASSERT_FALSE(V.Pass);
  ASSERT_EQ(V.Violations.size(), 2u);
  EXPECT_EQ(V.Violations[0].Metric, "stuck_ops");
  EXPECT_EQ(V.Violations[1].Metric, "shed_fraction");
  EXPECT_TRUE(V.Violations[0].wholeRun());
  EXPECT_DOUBLE_EQ(V.Violations[1].Observed, 0.1);
}

//===----------------------------------------------------------------------===
// runSoak: end-to-end smoke
//===----------------------------------------------------------------------===

/// Soak adapter over the crash-tolerant stack, as in bench/BenchCommon.h
/// but local so the test suite does not grow a bench dependency.
struct SoakStackAdapter {
  SoakStackAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    if (IsPush) {
      switch (Stack.push(Tid, V)) {
      case PushResult::Done:
        return OpOutcome::Ok;
      case PushResult::Full:
        return OpOutcome::Full;
      case PushResult::Abort:
        return OpOutcome::Abort;
      }
    }
    const auto R = Stack.pop(Tid);
    if (R.isValue())
      return OpOutcome::Ok;
    return R.isEmpty() ? OpOutcome::Empty : OpOutcome::Abort;
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  obs::Path lastPath(std::uint32_t Tid) const { return Stack.lastPath(Tid); }
  CrashTolerantStack<> Stack;
};

/// Every completed op records its generator lag (enqueue - nominal),
/// queue wait (start - enqueue), service (end - start) and sojourn
/// (end - nominal), so the first three sum to the fourth exactly, in
/// every window and over the run.
void expectSojournSplitsExactly(const SoakReport &Report) {
  for (const WindowStats &W : Report.Windows) {
    EXPECT_EQ(W.GenLag.count(), W.Completed) << "window " << W.Index;
    EXPECT_EQ(W.QueueWait.count(), W.Completed) << "window " << W.Index;
    EXPECT_EQ(W.GenLag.sum() + W.QueueWait.sum() + W.Service.sum(),
              W.Sojourn.sum())
        << "window " << W.Index;
  }
  EXPECT_EQ(Report.RunGenLag.sum() + Report.RunQueueWait.sum() +
                Report.RunService.sum(),
            Report.RunSojourn.sum());
}

TEST(SoakSmokeTest, ShortRunCompletesConservesAndPasses) {
  SoakConfig Config;
  Config.Workers = 2;
  Config.Capacity = 256;
  Config.PrefillPercent = 50;
  Config.DurationSec = 1.5;
  Config.WindowSec = 0.5;
  Config.Seed = 42;
  Config.OpDeadlineNs = 5ull * 1000 * 1000 * 1000;
  Config.Schedule = ArrivalSchedule::flat(1500);
  Config.Schedule.Keys = 2;
  Config.Schedule.PushPercent = 50;
  // One phase mixing both fault kinds, active for the whole smoke: the
  // resurrection and stall paths are exercised even at test timescales.
  Config.Faults.Phases = {{/*DurationSec=*/10.0, /*CrashMeanPeriodSec=*/0.3,
                           /*StallMeanPeriodSec=*/0.3,
                           /*StallGrants=*/500}};
  // Zero-initialised policy: conservation only — the smoke asserts the
  // harness's bookkeeping, not this host's latency.

  const SoakReport Report = runSoak<SoakStackAdapter>(Config);

  // Three timed windows plus the post-join drain window.
  ASSERT_GE(Report.Windows.size(), 4u);
  EXPECT_GT(Report.TotalArrivals, 0u);
  EXPECT_GT(Report.TotalCompleted, 0u);
  EXPECT_LE(Report.TotalCompleted, Report.TotalArrivals);
  EXPECT_EQ(Report.TotalShed, 0u); // 1500/s is far below saturation.

  for (const WindowStats &W : Report.Windows)
    EXPECT_TRUE(W.Conserves) << "window " << W.Index;
  EXPECT_TRUE(Report.FinalConserves);
  EXPECT_TRUE(Report.Verdict.Pass);

  // After the drain window the backlog is gone and every non-shed,
  // non-abandoned arrival completed.
  EXPECT_EQ(Report.Windows.back().Backlog, 0u);
  EXPECT_GE(Report.TotalCompleted + Report.TotalCrashes,
            Report.TotalArrivals - Report.TotalShed);

  // The run-level histograms saw every completion.
  EXPECT_EQ(Report.RunSojourn.count(), Report.TotalCompleted);
  EXPECT_EQ(Report.RunService.count(), Report.TotalCompleted);
  expectSojournSplitsExactly(Report);
}

TEST(SoakSmokeTest, PacedGeneratorDeliversEveryArrivalAtAHighRate) {
  // The service workload's shape at test scale: a flat open loop fast
  // enough that the generator wakes per arrival or two and the workers
  // park and wake constantly. Nothing may be shed or left behind, and
  // every op's sojourn still splits exactly.
  SoakConfig Config;
  Config.Workers = 2;
  Config.Capacity = 1024;
  Config.DurationSec = 0.6;
  Config.WindowSec = 0.2;
  Config.Seed = 5;
  Config.Schedule = ArrivalSchedule::flat(50000);
  Config.Schedule.Keys = 4;

  const SoakReport Report = runSoak<SoakStackAdapter>(Config);

  EXPECT_GT(Report.TotalArrivals, 10000u);
  EXPECT_EQ(Report.TotalShed, 0u);
  EXPECT_EQ(Report.TotalCompleted, Report.TotalArrivals);
  for (const WindowStats &W : Report.Windows)
    EXPECT_TRUE(W.Conserves) << "window " << W.Index;
  EXPECT_TRUE(Report.FinalConserves);
  expectSojournSplitsExactly(Report);
}

TEST(SoakSmokeTest, CampaignCrashesResurrectWorkersAndAreAccounted) {
  SoakConfig Config;
  Config.Workers = 2;
  Config.Capacity = 256;
  Config.DurationSec = 1.0;
  Config.WindowSec = 0.5;
  Config.Seed = 9;
  Config.Schedule = ArrivalSchedule::flat(2000);
  // Crash storm: every ~50ms somebody dies. The run still completes
  // work and still conserves, because every crash abandons at most one
  // entered operation.
  Config.Faults.Phases = {{10.0, /*crash*/ 0.05, 0, 0}};

  const SoakReport Report = runSoak<SoakStackAdapter>(Config);

  EXPECT_GT(Report.TotalCrashes, 0u);
  EXPECT_LE(Report.TotalCrashes, Report.CrashesPosted);
  EXPECT_GT(Report.TotalCompleted, 0u); // Workers kept going after dying.
  EXPECT_TRUE(Report.FinalConserves);
  EXPECT_TRUE(Report.Verdict.Pass);
}

} // namespace
} // namespace csobj
