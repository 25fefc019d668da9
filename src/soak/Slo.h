//===- soak/Slo.h - Window records and SLO verdicts -------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The soak harness's unit of account is the *window*: a fixed wall-
/// clock slice over which arrivals, completions, backlog, faults, stuck
/// operations, path deltas and latency distributions are collected and
/// then frozen. WindowStats is that record; a soak run is a vector of
/// them plus totals (soak/SoakHarness.h builds it).
///
/// Each window also carries a conservation verdict. The repo-wide law —
/// Ops == sum of terminal path counters — is exact only at quiesce, so a
/// mid-run window checks the bounded form over *cumulative* counters:
///
///   0 <= Ops - pathTotal <= Workers + CrashesSoFar
///
/// (every in-flight operation has entered but not retired; every crash
/// abandoned at most one entered operation). At final quiesce in-flight
/// drops out and the harness asserts the tight bound with crashes only.
///
/// SloPolicy turns the window series into a machine-readable PASS/FAIL:
/// per-terminal-path service-latency budgets (p99/p999), whole-run
/// sojourn budgets, a degraded-path fraction budget, stuck-operation and
/// shed-fraction budgets. Every violated budget yields one SloViolation
/// naming the metric, window, observed value and budget — the bench
/// serialises these into BENCH_soak.json so CI failure output says
/// *what* regressed, not just that something did.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_SOAK_SLO_H
#define CSOBJ_SOAK_SLO_H

#include "obs/PathCounters.h"
#include "runtime/Stats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace csobj {
namespace soak {

/// Everything the harness froze for one wall-clock window.
struct WindowStats {
  std::uint64_t Index = 0;
  double StartSec = 0;    ///< Window open, relative to soak origin.
  double DurationSec = 0; ///< Actual (measured) window length.

  std::uint64_t Arrivals = 0;  ///< Generated (enqueued + shed) this window.
  std::uint64_t Completed = 0; ///< Operations finished this window.
  std::uint64_t Shed = 0;      ///< Arrivals dropped at a full backlog.
  std::uint64_t Backlog = 0;   ///< Queue depth at window close.
  std::uint64_t Crashes = 0;   ///< Campaign crashes executed this window.
  std::uint64_t Stalls = 0;    ///< Campaign stalls executed this window.
  std::uint64_t StuckOps = 0;  ///< Watchdog reports drained this window.

  /// Path/event deltas booked this window (cumulative snapshot minus the
  /// previous window's).
  obs::PathSnapshot Paths;
  /// Bounded conservation over the cumulative counters at window close.
  bool Conserves = true;

  /// Sojourn: completion minus *nominal* arrival (queueing included — the
  /// open-loop, coordinated-omission-free number). It splits exactly, op
  /// by op, into GenLag (enqueue minus nominal: how late the generator
  /// released the arrival), QueueWait (operation start minus enqueue) and
  /// Service (operation start to completion), so the three histograms'
  /// sums add up to Sojourn's. PathLatency: service split by terminal
  /// path (the extra slot collects Path::None).
  LatencyHistogram Sojourn;
  LatencyHistogram GenLag;
  LatencyHistogram QueueWait;
  LatencyHistogram Service;
  LatencyHistogram PathLatency[obs::NumPaths + 1];

  /// Degraded-path fraction of this window's path-attributed ops.
  double degradedFraction() const {
    const std::uint64_t Total = Paths.pathTotal();
    return Total ? static_cast<double>(Paths.path(obs::Path::Degraded)) /
                       static_cast<double>(Total)
                 : 0.0;
  }
};

/// Budgets; the zero-initialised policy checks nothing but conservation.
struct SloPolicy {
  /// Per-terminal-path service-latency budgets in ns, indexed by
  /// obs::Path. 0 = that path/quantile is unchecked. Evaluated over the
  /// whole run's merged histograms (windows are too small for stable
  /// p999) but only for paths that actually retired operations.
  std::uint64_t P99BudgetNs[obs::NumPaths] = {};
  std::uint64_t P999BudgetNs[obs::NumPaths] = {};

  /// Whole-run sojourn budgets (0 = unchecked). These are the user-
  /// visible numbers; they absorb queueing, so an overload the service
  /// cannot drain shows up here even when per-path service stays flat.
  std::uint64_t SojournP99BudgetNs = 0;
  std::uint64_t SojournP999BudgetNs = 0;

  /// Largest acceptable per-window degraded-path fraction, checked after
  /// WarmupWindows. 1.0 = unchecked.
  double MaxDegradedFraction = 1.0;
  /// Largest acceptable whole-run stuck-operation count.
  std::uint64_t MaxStuckOps = ~std::uint64_t{0};
  /// Largest acceptable whole-run shed fraction (shed / arrivals).
  double MaxShedFraction = 1.0;
  /// Leading windows exempt from the degraded-fraction budget (cold
  /// structures, first fault storm).
  std::uint32_t WarmupWindows = 0;
};

/// One violated budget. Window is ~0 for whole-run metrics.
struct SloViolation {
  std::string Metric;
  std::uint64_t Window = ~std::uint64_t{0};
  double Observed = 0;
  double Budget = 0;

  bool wholeRun() const { return Window == ~std::uint64_t{0}; }
};

/// Machine-readable verdict: Pass iff no budget was violated AND every
/// window's conservation check held.
struct SloVerdict {
  bool Pass = true;
  std::vector<SloViolation> Violations;
};

/// Evaluates \p Policy over a finished run's windows. The caller hands
/// the whole-run merged histograms separately (merging 60 windows of
/// 7 histograms each here would be wasteful — the harness already has
/// them).
inline SloVerdict
evaluateSlo(const SloPolicy &Policy, const std::vector<WindowStats> &Windows,
            const LatencyHistogram &RunSojourn,
            const LatencyHistogram (&RunPathLatency)[obs::NumPaths + 1],
            std::uint64_t TotalStuckOps, std::uint64_t TotalArrivals,
            std::uint64_t TotalShed) {
  SloVerdict V;
  auto violate = [&V](std::string Metric, std::uint64_t Window,
                      double Observed, double Budget) {
    V.Pass = false;
    V.Violations.push_back({std::move(Metric), Window, Observed, Budget});
  };

  for (const WindowStats &W : Windows) {
    if (!W.Conserves)
      violate("conservation", W.Index, 0, 0);
    if (W.Index >= Policy.WarmupWindows &&
        W.degradedFraction() > Policy.MaxDegradedFraction)
      violate("degraded_fraction", W.Index, W.degradedFraction(),
              Policy.MaxDegradedFraction);
  }

  for (unsigned P = 0; P < obs::NumPaths; ++P) {
    const LatencyHistogram &H = RunPathLatency[P];
    if (H.count() == 0)
      continue;
    const std::string Name = obs::pathName(static_cast<obs::Path>(P));
    if (Policy.P99BudgetNs[P] != 0) {
      const std::uint64_t Got = H.valueAtQuantile(0.99);
      if (Got > Policy.P99BudgetNs[P])
        violate("service_p99_ns." + Name, ~std::uint64_t{0},
                static_cast<double>(Got),
                static_cast<double>(Policy.P99BudgetNs[P]));
    }
    if (Policy.P999BudgetNs[P] != 0) {
      const std::uint64_t Got = H.valueAtQuantile(0.999);
      if (Got > Policy.P999BudgetNs[P])
        violate("service_p999_ns." + Name, ~std::uint64_t{0},
                static_cast<double>(Got),
                static_cast<double>(Policy.P999BudgetNs[P]));
    }
  }

  if (Policy.SojournP99BudgetNs != 0) {
    const std::uint64_t Got = RunSojourn.valueAtQuantile(0.99);
    if (Got > Policy.SojournP99BudgetNs)
      violate("sojourn_p99_ns", ~std::uint64_t{0}, static_cast<double>(Got),
              static_cast<double>(Policy.SojournP99BudgetNs));
  }
  if (Policy.SojournP999BudgetNs != 0) {
    const std::uint64_t Got = RunSojourn.valueAtQuantile(0.999);
    if (Got > Policy.SojournP999BudgetNs)
      violate("sojourn_p999_ns", ~std::uint64_t{0}, static_cast<double>(Got),
              static_cast<double>(Policy.SojournP999BudgetNs));
  }

  if (TotalStuckOps > Policy.MaxStuckOps)
    violate("stuck_ops", ~std::uint64_t{0},
            static_cast<double>(TotalStuckOps),
            static_cast<double>(Policy.MaxStuckOps));

  if (TotalArrivals > 0) {
    const double ShedFraction =
        static_cast<double>(TotalShed) / static_cast<double>(TotalArrivals);
    if (ShedFraction > Policy.MaxShedFraction)
      violate("shed_fraction", ~std::uint64_t{0}, ShedFraction,
              Policy.MaxShedFraction);
  }

  return V;
}

} // namespace soak
} // namespace csobj

#endif // CSOBJ_SOAK_SLO_H
