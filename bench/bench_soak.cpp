//===- bench/bench_soak.cpp - Experiment E15 (service-mode soak) ---------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E15 — service-mode soak of the crash-tolerant stack (src/soak/). The
/// open-loop harness replays a diurnal rate ramp with Poisson bursts and
/// Zipf hot keys against a pool of crash-tolerant stacks while a fault
/// campaign crashes and stalls random workers for the whole run; crashed
/// workers resurrect under the same id, exercising RecoverableArbiter
/// reclamation continuously. Per-window records (arrivals, backlog,
/// path deltas, latency percentiles, conservation) plus the SLO verdict
/// go to BENCH_soak.json; scripts/check_trajectory.py diffs that file
/// against the committed baseline in CI.
///
/// Three scenarios share the schedule: the bounded crash-tolerant stack
/// (lease/arbiter reclamation) and the unbounded contention-sensitive
/// stack (hazard-pointer reclamation, where a crashed worker's retire
/// backlog is drained by its resurrected successor) run the full
/// crash+stall campaign; the adaptive sharded facade runs the same
/// schedule under the stall phases only (its shards hold a RAII TasLock,
/// so worker crashes are out of contract — the same boundary that keeps
/// its battery entry stall-plan-only) and soaks the obs control loop:
/// the diurnal ramp drives the mask up through the peaks and back down
/// through the troughs, with reconfiguration counters in the record.
/// One record per scenario.
///
/// Full mode: ~60s soak, three campaign phases (calm / crash storm /
/// stall bursts). CSOBJ_BENCH_QUICK=1: ~3s smoke with the same
/// structure, for CI schema + conservation validation.
///
/// Exit status: 0 iff the SLO verdict is PASS (per-window conservation
/// and final tight conservation included).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/CrashTolerantStack.h"
#include "obs/JsonReporter.h"
#include "obs/MetricsJson.h"
#include "runtime/TablePrinter.h"
#include "soak/SoakHarness.h"

#include <cstdint>
#include <iostream>
#include <string>

namespace {

using namespace csobj;
using namespace csobj::bench;

soak::SoakConfig makeConfig(bool Quick) {
  soak::SoakConfig Config;
  Config.Workers = 3;
  Config.Capacity = 4096;
  Config.Seed = 42;
  Config.QueueCapacity = 1u << 16;
  Config.AccessFaults = FaultPlan::chaos(Config.Workers, DefaultChaosPermille);
  Config.AccessFaults.RateSeed = Config.Seed;
  // 2s: far beyond any planned stall (ms-scale); a genuine wedge is
  // permanent and gets caught at any deadline.
  Config.OpDeadlineNs = 2'000'000'000;

  // Diurnal profile with a burst overlay. Rates are sized for the
  // single-core instrumented build CI runs on: the trough is easily
  // sustained, the peak plus a x3 burst visibly backs the queue up.
  soak::ArrivalSchedule &Sched = Config.Schedule;
  Sched.Keys = 4;
  Sched.ZipfS = 1.2;
  Sched.PushPercent = 50;
  Sched.BurstMultiplier = 3.0;
  if (Quick) {
    Config.DurationSec = 3.0;
    Config.WindowSec = 0.5;
    Sched.Phases = {{1.0, 1500, 3000}, {1.0, 3000, 1500}};
    Sched.BurstMeanPeriodSec = 1.0;
    Sched.BurstDurationSec = 0.2;
  } else {
    Config.DurationSec = 60.0;
    Config.WindowSec = 2.0;
    Sched.Phases = {{10.0, 4000, 8000}, {10.0, 8000, 4000}};
    Sched.BurstMeanPeriodSec = 8.0;
    Sched.BurstDurationSec = 1.0;
  }

  // Three-phase recurring campaign, cycled: calm, crash storm, stall
  // bursts. Victims are random workers; crashes unwind mid-operation
  // and the worker resurrects immediately.
  soak::Campaign &Camp = Config.Faults;
  if (Quick)
    Camp.Phases = {{0.8, 0, 0, 0},
                   {1.1, /*crash*/ 0.25, 0, 0},
                   {1.1, 0, /*stall*/ 0.2, /*grants*/ 1000}};
  else
    Camp.Phases = {{6.0, 0, 0, 0},
                   {7.0, /*crash*/ 1.5, 0, 0},
                   {7.0, /*crash*/ 4.0, /*stall*/ 1.0, /*grants*/ 2000}};

  // Budgets: generous enough to hold on a noisy single-core CI host,
  // tight enough that a wedged lock, a leaked backlog or a stuck
  // operation fails the run. Latency budgets skip warmup noise via the
  // whole-run histograms' sheer sample counts.
  soak::SloPolicy &Slo = Config.Slo;
  for (unsigned P = 0; P < obs::NumPaths; ++P) {
    Slo.P99BudgetNs[P] = 100'000'000;  // 100ms service p99, any path.
    Slo.P999BudgetNs[P] = 500'000'000; // 500ms service p999.
  }
  Slo.SojournP99BudgetNs = 1'000'000'000;  // 1s queueing included.
  Slo.SojournP999BudgetNs = 2'000'000'000; // 2s.
  Slo.MaxDegradedFraction = 0.9;
  Slo.MaxStuckOps = 0;
  Slo.MaxShedFraction = 0.01;
  Slo.WarmupWindows = 1;
  return Config;
}

void emitWindow(JsonReporter &Json, const soak::WindowStats &W) {
  Json.beginObject();
  Json.field("window", W.Index);
  Json.field("start_sec", W.StartSec);
  Json.field("duration_sec", W.DurationSec);
  Json.field("arrivals", W.Arrivals);
  Json.field("completed", W.Completed);
  Json.field("shed", W.Shed);
  Json.field("backlog", W.Backlog);
  Json.field("crashes", W.Crashes);
  Json.field("stalls", W.Stalls);
  Json.field("stuck_ops", W.StuckOps);
  Json.field("conserves", W.Conserves);
  Json.field("ops", W.Paths.Ops);
  for (unsigned P = 0; P < obs::NumPaths; ++P)
    Json.field(std::string("path_") +
                   obs::pathName(static_cast<obs::Path>(P)),
               W.Paths.Paths[P]);
  Json.field("degraded_fraction", W.degradedFraction());
  Json.field("sojourn_p50_ns", W.Sojourn.valueAtQuantile(0.5));
  Json.field("sojourn_p99_ns", W.Sojourn.valueAtQuantile(0.99));
  Json.field("gen_lag_p50_ns", W.GenLag.valueAtQuantile(0.5));
  Json.field("queue_wait_p50_ns", W.QueueWait.valueAtQuantile(0.5));
  Json.field("service_p99_ns", W.Service.valueAtQuantile(0.99));
  Json.endObject();
}

/// Runs one soak scenario of \p Object and appends its record to
/// \p Json. Returns the report so main can aggregate verdicts.
template <typename AdapterT>
soak::SoakReport runScenario(JsonReporter &Json,
                             const soak::SoakConfig &Config, bool Quick,
                             const char *Title, const char *Object) {
  std::cout << "E15: soaking " << Title << " for " << Config.DurationSec
            << "s (" << Config.Workers << " workers, "
            << Config.Schedule.Keys << " keys, window " << Config.WindowSec
            << "s)...\n";

  const soak::SoakReport R = soak::runSoak<AdapterT>(Config);

  TablePrinter Table({"window", "arrivals", "done", "backlog", "crash",
                      "stall", "stuck", "degr%", "soj p99", "conserve"});
  Table.setTitle(std::string("E15: soak windows (") + Title + ")");
  for (const soak::WindowStats &W : R.Windows)
    Table.addRow({std::to_string(W.Index), std::to_string(W.Arrivals),
                  std::to_string(W.Completed), std::to_string(W.Backlog),
                  std::to_string(W.Crashes), std::to_string(W.Stalls),
                  std::to_string(W.StuckOps),
                  formatDouble(100.0 * W.degradedFraction(), 1),
                  formatNs(static_cast<double>(
                      W.Sojourn.valueAtQuantile(0.99))),
                  W.Conserves ? "ok" : "VIOLATED"});
  Table.print(std::cout);

  Json.beginRecord();
  Json.field("object", Object);
  Json.field("experiment", "soak");
  Json.field("quick", Quick);
  Json.field("workers", Config.Workers);
  Json.field("keys", Config.Schedule.Keys);
  Json.field("window_sec", Config.WindowSec);
  Json.field("duration_sec", R.DurationSec);
  Json.field("total_arrivals", R.TotalArrivals);
  Json.field("total_completed", R.TotalCompleted);
  Json.field("total_shed", R.TotalShed);
  Json.field("total_crashes", R.TotalCrashes);
  Json.field("total_stalls", R.TotalStalls);
  Json.field("crashes_posted", R.CrashesPosted);
  Json.field("stalls_posted", R.StallsPosted);
  Json.field("total_stuck_ops", R.TotalStuckOps);
  Json.field("throughput_ops_per_sec", R.throughputOpsPerSec());
  Json.field("sojourn_p50_ns", R.RunSojourn.valueAtQuantile(0.5));
  Json.field("sojourn_p99_ns", R.RunSojourn.valueAtQuantile(0.99));
  Json.field("sojourn_p999_ns", R.RunSojourn.valueAtQuantile(0.999));
  Json.field("gen_lag_p50_ns", R.RunGenLag.valueAtQuantile(0.5));
  Json.field("queue_wait_p50_ns", R.RunQueueWait.valueAtQuantile(0.5));
  Json.field("service_p99_ns", R.RunService.valueAtQuantile(0.99));
  obs::emitPathBreakdown(Json, R.FinalPaths);
  Json.field("conserve_final", R.FinalConserves);
  Json.field("slo_pass", R.Verdict.Pass);
  Json.beginArray("violations");
  for (const soak::SloViolation &V : R.Verdict.Violations) {
    Json.beginObject();
    Json.field("metric", V.Metric);
    Json.field("whole_run", V.wholeRun());
    if (!V.wholeRun())
      Json.field("window", V.Window);
    Json.field("observed", V.Observed);
    Json.field("budget", V.Budget);
    Json.endObject();
  }
  Json.endArray();
  Json.beginArray("windows");
  for (const soak::WindowStats &W : R.Windows)
    emitWindow(Json, W);
  Json.endArray();
  Json.endRecord();

  std::cout << "totals: " << R.TotalCompleted << "/" << R.TotalArrivals
            << " completed, " << R.TotalShed << " shed, " << R.TotalCrashes
            << " crashes, " << R.TotalStalls << " stalls, "
            << R.TotalStuckOps << " stuck\n";
  if (R.Verdict.Pass) {
    std::cout << "PASS: SLO verdict clean over " << R.Windows.size()
              << " windows\n\n";
  } else {
    std::cerr << "FAIL: " << R.Verdict.Violations.size()
              << " SLO violation(s):\n";
    for (const soak::SloViolation &V : R.Verdict.Violations) {
      std::cerr << "  " << V.Metric;
      if (!V.wholeRun())
        std::cerr << " @window " << V.Window;
      std::cerr << ": observed " << V.Observed << " budget " << V.Budget
                << "\n";
    }
  }
  return R;
}

} // namespace

int main() {
  printRegisterPolicy(std::cout);
  const bool Quick = quickMode();
  const soak::SoakConfig Config = makeConfig(Quick);

  JsonReporter Json;

  // Scenario 1: the bounded crash-tolerant stack (lease reclamation).
  const soak::SoakReport Bounded =
      runScenario<Driven<CrashTolerantStack<>>>(
          Json, Config, Quick, "crash-tolerant stack",
          "crash-tolerant(fig3+leases)");

  // Scenario 2: the unbounded contention-sensitive stack. Same arrival
  // schedule and fault campaign, but reclamation is the hazard-pointer
  // domain: crashed workers abandon pinned chunks mid-operation and
  // their retire lists are drained by their resurrected successors, so
  // window conservation here soaks the E17 substrate, not the arbiter.
  const soak::SoakReport Unbounded = runScenario<UnboundedCsStack>(
      Json, Config, Quick, "unbounded cs stack", "unbounded-cs(fig3+hp)");

  // Scenario 3: the adaptive sharded facade. Same schedule, but the
  // campaign keeps only its stall phases — the facade's shards hold a
  // RAII TasLock, so worker crashes are out of contract (the boundary
  // that keeps its battery entry stall-plan-only). What this scenario
  // soaks is the control loop: hours of compressed diurnal load must
  // grow and shrink the mask without losing an element or an SLO.
  soak::SoakConfig AdaptiveConfig = Config;
  for (auto &Phase : AdaptiveConfig.Faults.Phases)
    Phase.CrashMeanPeriodSec = 0;
  const soak::SoakReport Adaptive = runScenario<AdaptiveShards>(
      Json, AdaptiveConfig, Quick, "adaptive sharded stack",
      "adaptive(<=8xfig3)");

  const std::string JsonPath = "BENCH_soak.json";
  if (!Json.writeFile(JsonPath)) {
    std::cerr << "error: could not write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "wrote " << JsonPath << "\n";

  if (Bounded.Verdict.Pass && Unbounded.Verdict.Pass &&
      Adaptive.Verdict.Pass)
    return 0;
  std::cerr << "FAIL: a soak scenario missed its SLO\n";
  return 1;
}
