//===- runtime/Workload.h - Workload configuration & reports ----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload model shared by the benchmark harness and the stress tests:
/// a closed loop of push/pop (or enqueue/dequeue) operations per thread,
/// with a configurable operation mix, think time between operations
/// (think time is how the harness dials contention up and down — zero
/// think time on a shared object is the paper's "contention" regime,
/// large think time approximates its "contention-free context"), and
/// capacity prefill so pops do not trivially hit empty.
///
/// The generic driver lives in runtime/Driver.h; this header holds the
/// plain-data configuration and report types plus their aggregation.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_RUNTIME_WORKLOAD_H
#define CSOBJ_RUNTIME_WORKLOAD_H

#include "faults/FaultPlan.h"
#include "obs/PathCounters.h"
#include "runtime/Stats.h"

#include <cstdint>
#include <vector>

namespace csobj {

/// Outcome classification for one operation attempt stream.
enum class OpOutcome {
  Ok,    ///< Pushed a value / popped a value.
  Full,  ///< Total answer: object at capacity.
  Empty, ///< Total answer: object empty.
  Abort  ///< Bottom (only surfaced by weak/abortable objects).
};

/// Closed-loop workload parameters.
struct WorkloadConfig {
  std::uint32_t Threads = 2;        ///< The paper's n.
  std::uint64_t OpsPerThread = 10000;
  std::uint32_t PushPercent = 50;   ///< Percent of ops that are pushes.
  std::uint32_t ThinkTimeNs = 0;    ///< Local spin between operations.
  std::uint32_t Capacity = 1024;    ///< The paper's k.
  std::uint32_t PrefillPercent = 50;///< Percent of capacity prefilled.
  std::uint64_t Seed = 42;          ///< Base PRNG seed.
  /// Faults to inject (faults/FaultPlan.h): crash-stop or bounded stall
  /// at named access points, and rate-based yield/stall noise
  /// (FaultPlan::chaos) that emulates asynchrony on hosts with fewer
  /// cores than threads. A crashed thread stops issuing operations; its
  /// partial tallies are kept and its Crashed flag set. Empty = no
  /// faults, and no hook installed.
  FaultPlan Faults;
  /// Per-operation liveness deadline in nanoseconds, enforced by
  /// runtime/Watchdog.h; operations overstaying it are reported in
  /// WorkloadReport::StuckOps. 0 disables the watchdog.
  std::uint64_t OpDeadlineNs = 0;
};

/// Per-thread tallies produced by the driver.
struct ThreadReport {
  std::uint64_t Pushes = 0;   ///< Successful pushes.
  std::uint64_t Pops = 0;     ///< Successful value pops.
  std::uint64_t Fulls = 0;    ///< Full answers.
  std::uint64_t Empties = 0;  ///< Empty answers.
  std::uint64_t Aborts = 0;   ///< Bottom answers that reached the caller.
  std::uint64_t Retries = 0;  ///< Internal retries reported by the object.
  bool Crashed = false;       ///< Thread hit a planned crash-stop fault.
  LatencyHistogram Latency;   ///< Per-operation completion latency.
  /// Completion latency split by the operation's terminal path (index =
  /// obs::Path; the extra slot collects Path::None, i.e. adapters without
  /// a path probe or CSOBJ_NO_METRICS builds). Only populated when the
  /// adapter exposes lastPath(Tid); the validation claim this enables is
  /// path-conditional: shortcut latency must stay flat as threads scale
  /// while lock-path latency grows.
  LatencyHistogram PathLatency[obs::NumPaths + 1];

  std::uint64_t completedOps() const {
    return Pushes + Pops + Fulls + Empties + Aborts;
  }
};

/// Whole-run report.
struct WorkloadReport {
  std::vector<ThreadReport> PerThread;
  double DurationSec = 0;
  /// Operations the watchdog caught over their deadline (0 when the
  /// watchdog was disabled — absence of evidence, not liveness).
  std::uint64_t StuckOps = 0;

  std::uint64_t totalOps() const;
  /// Threads retired by a planned crash-stop fault.
  std::uint32_t crashedThreads() const;
  std::uint64_t totalAborts() const;
  std::uint64_t totalRetries() const;
  double throughputOpsPerSec() const;
  /// Abort fraction among all completed operations.
  double abortRate() const;
  /// Mean retries per completed operation.
  double meanRetries() const;
  /// Jain fairness index over per-thread completed-op counts. Only
  /// discriminating for duration-bounded runs; in fixed-ops-per-thread
  /// runs every thread eventually completes everything, so use
  /// meanLatencyRatio() there instead.
  double fairness() const;
  /// Slowest thread's mean op latency divided by the fastest thread's:
  /// 1 = perfectly even service, large = someone was starved of service
  /// even though the closed loop eventually completed.
  double meanLatencyRatio() const;
  /// All threads' latencies merged.
  LatencyHistogram mergedLatency() const;
  /// All threads' latencies on one terminal path merged (empty histogram
  /// when no adapter path probe was available).
  LatencyHistogram mergedPathLatency(obs::Path P) const;
};

/// Busy-spins for roughly \p Ns nanoseconds of local (non-shared) work.
/// Used to model the "think time" separating operations.
void spinThink(std::uint32_t Ns);

} // namespace csobj

#endif // CSOBJ_RUNTIME_WORKLOAD_H
