//===- bench/bench_starvation.cpp - Experiment E4 ------------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E4 — starvation-freedom of Figure 3 (Theorem 1). Under sustained
/// contention, compares the Figure 3 stack against the non-blocking stack
/// (only lock-free: individual threads may retry unboundedly), the
/// TAS-locked stack (deadlock-free only: unfair handoff) and the
/// crash-tolerant Figure 3 (core/CrashTolerantStack.h). Reported:
/// latency tail (p50/p99/max) and the service ratio — slowest thread's
/// mean op latency over the fastest thread's (1 = perfectly even
/// service). The paper's claim shows up as Figure 3 keeping the service
/// ratio small with a bounded tail, with no aborts surfaced.
///
/// The second table injects lock-holder stalls — a saboteur thread
/// acquires the lease (locks/LeasedLock.h) and sits on it for a fixed
/// outage while live workers stay contended — and reports the
/// crash-tolerant stack's *degradation rate*: the fraction of operations
/// that fell back to the lock-free Figure 2 loop instead of completing
/// on the starvation-free protected path. With no outages the rate is
/// (near) zero; during an outage the patience budget runs out and the
/// fallback absorbs it instead of hanging, revoking the stuck lease.
///
/// Results are also written to BENCH_starvation.json for plots and
/// regression tooling. CSOBJ_CHAOS overrides the chaos level of every
/// cell (see bench/BenchCommon.h).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "baselines/LockedStack.h"
#include "core/CrashTolerantStack.h"
#include "core/NonBlockingStack.h"
#include "locks/TasLock.h"
#include "locks/TicketLock.h"
#include "obs/JsonReporter.h"

#include "runtime/TablePrinter.h"

#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>

namespace {

template <typename MakeFn>
void addRows(csobj::TablePrinter &Table, csobj::bench::JsonReporter &Json,
             const char *Name, MakeFn Make) {
  using namespace csobj;
  using namespace csobj::bench;
  for (const std::uint32_t Threads : threadSweep()) {
    auto Adapter = Make(Threads, conformance::BenchCapacity);
    const WorkloadReport R = runCell(Adapter, Threads);
    const LatencySummary S = summarize(R.mergedLatency());
    Table.addRow({Name, std::to_string(Threads),
                  formatNs(static_cast<double>(S.P50Ns)),
                  formatNs(static_cast<double>(S.P99Ns)),
                  formatNs(static_cast<double>(S.MaxNs)),
                  formatDouble(R.meanLatencyRatio(), 2),
                  std::to_string(R.totalAborts()),
                  formatRate(R.throughputOpsPerSec())});
    Json.beginRecord();
    Json.field("experiment", "E4a_fairness");
    Json.field("stack", Name);
    Json.field("threads", Threads);
    Json.field("ops", R.totalOps());
    Json.field("p50_ns", S.P50Ns);
    Json.field("p99_ns", S.P99Ns);
    Json.field("max_ns", S.MaxNs);
    Json.field("service_ratio", R.meanLatencyRatio());
    Json.field("aborts", R.totalAborts());
    Json.field("throughput_ops_per_sec", R.throughputOpsPerSec());
    Json.endRecord();
  }
}

/// Patience used by the E4b cells, in consecutive stable observations.
/// Deliberately small so survivors' doorway + lease budgets run out well
/// inside an injected outage: a patience-256 wait costs >=6ms of wall
/// time (observations past 128 sleep 50us each, support/SpinWait.h, and
/// the sleeps stretch on a loaded single-core host), so the outages
/// below hold the lease for tens of ms — while ordinary protected
/// sections (~1us) stay orders of magnitude below patience, keeping
/// false suspicion out of the no-outage baseline.
constexpr std::uint32_t BenchPatience = 256;

/// One cell of the lock-holder-stall table: \p Threads live workers run
/// the usual contended closed loop while a *saboteur* thread repeatedly
/// acquires the lease out-of-band and sits on it for \p HoldNs — a
/// deterministic lock-holder outage, the lease-expiry scenario of
/// locks/LeasedLock.h. (Stalling a random worker instead does not work:
/// a frozen worker generates no contention, so nobody is on the slow
/// path when the lock is stuck.) Reported: how often workers' slow paths
/// degraded to the lock-free fallback rather than hanging, and how many
/// of the saboteur's leases were revoked under it.
void addOutageRow(csobj::TablePrinter &Table,
                  csobj::bench::JsonReporter &Json, std::uint32_t Threads,
                  std::uint64_t HoldNs, std::uint64_t GapNs) {
  using namespace csobj;
  using namespace csobj::bench;
  // One extra slot for the saboteur, which never runs operations.
  Driven<CrashTolerantStack<>> Adapter(Threads + 1,
                                       conformance::BenchCapacity,
                                       BenchPatience);
  auto &Lock = Adapter.object().skeleton().slowPath().lock();
  const std::uint32_t SaboteurTid = Threads;
  std::atomic<bool> Stop{false};
  std::uint64_t Outages = 0;
  std::thread Saboteur;
  if (HoldNs > 0)
    Saboteur = std::thread([&] {
      auto &Guard = Lock.inner();
      while (!Stop.load(std::memory_order_relaxed)) {
        if (Guard.lockBounded(SaboteurTid, BenchPatience) ==
            LeaseAcquire::Acquired) {
          ++Outages;
          const auto Until = std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(HoldNs);
          while (std::chrono::steady_clock::now() < Until &&
                 !Stop.load(std::memory_order_relaxed))
            std::this_thread::yield();
          Guard.unlock(SaboteurTid); // May find the lease revoked.
        }
        std::this_thread::sleep_for(std::chrono::nanoseconds(GapNs));
      }
    });
  const WorkloadReport R = runCell(Adapter, Threads);
  Stop.store(true, std::memory_order_relaxed);
  if (Saboteur.joinable())
    Saboteur.join();
  const DegradationStats Stats = Lock.statsForTesting();
  const double Ops = static_cast<double>(R.totalOps());
  const double DegradationRate =
      Ops > 0 ? static_cast<double>(Stats.Degradations) / Ops : 0;
  Table.addRow({std::to_string(Threads), std::to_string(Outages),
                formatNs(static_cast<double>(HoldNs)),
                formatDouble(DegradationRate * 100, 3) + "%",
                std::to_string(Stats.ProtectedOps),
                std::to_string(Stats.Revocations),
                std::to_string(Stats.LostLeases),
                formatRate(R.throughputOpsPerSec())});
  Json.beginRecord();
  Json.field("experiment", "E4b_degradation");
  Json.field("stack", "crash-tolerant(fig3+leases)");
  Json.field("threads", Threads);
  Json.field("outages", Outages);
  Json.field("hold_ns", HoldNs);
  Json.field("gap_ns", GapNs);
  Json.field("ops", R.totalOps());
  Json.field("degradations", Stats.Degradations);
  Json.field("degradation_rate", DegradationRate);
  Json.field("protected_ops", Stats.ProtectedOps);
  Json.field("doorway_timeouts", Stats.DoorwayTimeouts);
  Json.field("lease_timeouts", Stats.LeaseTimeouts);
  Json.field("revocations", Stats.Revocations);
  Json.field("lost_leases", Stats.LostLeases);
  Json.field("throughput_ops_per_sec", R.throughputOpsPerSec());
  Json.endRecord();
}

} // namespace

int main() {
  using namespace csobj;
  using namespace csobj::bench;

  printRegisterPolicy(std::cout);
  JsonReporter Json;

  {
    TablePrinter Table({"stack", "threads", "p50", "p99", "max",
                        "svc-ratio", "aborts", "throughput"});
    Table.setTitle("E4a: starvation-freedom — latency tail and fairness "
                   "under contention (think=0, 50/50)");
    addRows(Table, Json, "cs(fig3)",
            make<Driven<ContentionSensitiveStack<>>>);
    addRows(Table, Json, "crash-tolerant",
            make<Driven<CrashTolerantStack<>>>);
    addRows(Table, Json, "non-blocking(fig2)",
            unthreaded<NonBlockingStack<>>);
    addRows(Table, Json, "locked(tas)", make<Driven<LockedStack<TasLock>>>);
    addRows(Table, Json, "locked(ticket)",
            make<Driven<LockedStack<TicketLock>>>);
    Table.print(std::cout);
  }

  {
    TablePrinter Table({"threads", "outages", "hold", "degradation",
                        "protected", "revocations", "lost leases",
                        "throughput"});
    Table.setTitle("E4b: crash-tolerant fig3 under injected lock-holder "
                   "stalls — degradation rate of the slow path");
    const std::uint32_t Threads = quickMode() ? 2 : 4;
    addOutageRow(Table, Json, Threads, /*HoldNs=*/0, /*GapNs=*/0);
    addOutageRow(Table, Json, Threads, /*HoldNs=*/40'000'000,
                 /*GapNs=*/10'000'000);
    addOutageRow(Table, Json, Threads, /*HoldNs=*/80'000'000,
                 /*GapNs=*/20'000'000);
    Table.print(std::cout);
  }

  const std::string JsonPath = "BENCH_starvation.json";
  if (!Json.writeFile(JsonPath)) {
    std::cerr << "error: could not write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";

  std::cout << "\npaper claim: fig3 surfaces zero aborts and keeps even "
               "per-thread service (svc-ratio near 1) with a bounded "
               "tail, while remaining lock-free in the common case;\n"
               "the crash-tolerant variant matches it when no stall is "
               "injected and degrades gracefully (bounded degradation "
               "rate, no hang) when lock holders stall past patience\n";
  return 0;
}
