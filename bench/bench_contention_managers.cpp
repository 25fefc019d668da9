//===- bench/bench_contention_managers.cpp - Experiment E11 --------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E11 — contention-manager x register-policy sweep. Two questions the
/// paper's "efficiency in the common case" argument raises but cannot
/// answer on 2011 hardware:
///
///  1. How much of the library's single-thread cost is instrumentation?
///     Every AtomicRegister access under the Instrumented policy pays a
///     thread-local lookup for the access counter and the schedule hook.
///     The Fast policy compiles registers down to bare std::atomic; the
///     solo rows of this sweep show the difference, and a direct solo
///     push+pop timing decides the check: the run fails loudly unless
///     Fast is faster than Instrumented at one thread (the zero-overhead
///     claim of the fast path).
///
///  2. Which retry-pacing discipline should the Figure 2 loop use? The
///     sweep crosses the ContentionManager implementations (none / exp /
///     yield / adaptive) with thread counts on both the non-blocking
///     stack (managers pace the unprotected weak-op retry) and the
///     Figure 3 stack (managers pace the lock-protected retry).
///
/// Results go to stdout as a table and to BENCH_stack_throughput.json as
/// a flat JSON array (schema documented in EXPERIMENTS.md) for plotting
/// and regression tracking. Chaos injection is disabled for this sweep:
/// the chaos hook only fires under the Instrumented policy, so any
/// nonzero setting would bias the policy comparison.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/NonBlockingStack.h"
#include "locks/TasLock.h"
#include "obs/JsonReporter.h"
#include "obs/MetricsJson.h"

#include "runtime/TablePrinter.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <string>

namespace {

using namespace csobj;
using namespace csobj::bench;

struct SweepOutput {
  TablePrinter &Table;
  JsonReporter &Json;
};

template <typename Policy, typename Manager, typename MakeFn>
void runRow(SweepOutput &Out, const char *Object, MakeFn Make) {
  for (const std::uint32_t Threads : threadSweep()) {
    // ChaosPermille=0: keep the Instrumented/Fast comparison honest (the
    // chaos hook is a no-op under Fast).
    auto Adapter = Make(Threads, conformance::BenchCapacity);
    const WorkloadReport R =
        runCell(Adapter, Threads, /*ThinkNs=*/0, /*PushPercent=*/50,
                conformance::BenchCapacity, /*ChaosPermille=*/0);
    const double Throughput = R.throughputOpsPerSec();
    Out.Table.addRow({Object, Policy::Name, Manager::Name,
                      std::to_string(Threads), formatRate(Throughput),
                      formatDouble(R.meanRetries(), 3)});
    Out.Json.beginRecord();
    Out.Json.field("object", Object);
    Out.Json.field("policy", Policy::Name);
    Out.Json.field("manager", Manager::Name);
    Out.Json.field("threads", Threads);
    Out.Json.field("ops", R.totalOps());
    Out.Json.field("duration_sec", R.DurationSec);
    Out.Json.field("throughput_ops_per_sec", Throughput);
    Out.Json.field("abort_rate", R.abortRate());
    Out.Json.field("mean_retries", R.meanRetries());
    Out.Json.field("mean_latency_ratio", R.meanLatencyRatio());
    if constexpr (requires { Adapter.pathSnapshot(); })
      obs::emitPathBreakdown(Out.Json, Adapter.pathSnapshot());
    Out.Json.endRecord();
  }
}

/// Nanoseconds per solo push+pop round trip on the Figure 2 stack under
/// \p Policy with no manager: the fast-path acceptance check compares
/// policies on this. It calls the stack directly, timed by soloNsPerCall
/// (median of 5 repeats), so it times the registers rather than a
/// threaded harness whose own spread is wider than the policies' gap.
template <typename Policy> double soloRoundTripNs() {
  NonBlockingStack<Compact64, NoBackoff, Policy> Stack(
      conformance::BenchCapacity);
  std::uint32_t V = 1;
  return soloNsPerCall([&] {
    (void)Stack.push(V);
    (void)Stack.pop();
    ++V;
  });
}

/// The Figure 2 stack's row and the Figure 3 stack's row (whose lock
/// matches the policy) under \p Policy and \p Manager.
template <typename Policy, typename Manager> void nbRow(SweepOutput &Out) {
  runRow<Policy, Manager>(
      Out, "nb-stack",
      unthreaded<NonBlockingStack<Compact64, Manager, Policy>>);
}

template <typename Policy, typename Manager> void csRow(SweepOutput &Out) {
  runRow<Policy, Manager>(
      Out, "cs-stack",
      make<Driven<ContentionSensitiveStack<Compact64, TasLockT<Policy>,
                                           Manager, Policy>>>);
}

template <typename Policy>
void runPolicy(SweepOutput &Out) {
  nbRow<Policy, NoBackoff>(Out);
  nbRow<Policy, ExponentialBackoff>(Out);
  nbRow<Policy, YieldBackoff>(Out);
  nbRow<Policy, AdaptiveBackoff>(Out);
  csRow<Policy, NoBackoff>(Out);
  csRow<Policy, AdaptiveBackoff>(Out);
}

} // namespace

int main() {
  printRegisterPolicy(std::cout);

  TablePrinter Table(
      {"object", "policy", "manager", "threads", "throughput", "retries/op"});
  Table.setTitle("E11: contention managers x register policy x threads "
                 "(50/50, no chaos)");
  JsonReporter Json;
  SweepOutput Out{Table, Json};

  runPolicy<Instrumented>(Out);
  runPolicy<Fast>(Out);

  Table.print(std::cout);

  const std::string JsonPath = "BENCH_stack_throughput.json";
  if (!Json.writeFile(JsonPath)) {
    std::cerr << "error: could not write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";

  // The fast-path acceptance check: at one thread with no manager, the
  // Fast policy must be faster than Instrumented — it runs strictly less
  // code per access (no thread-local counter/sched-hook lookups). The
  // policies take turns over three rounds and the medians are compared,
  // so a host hiccup during one policy's turn cannot decide the check.
  std::array<double, 3> InstRounds, FastRounds;
  for (std::size_t Round = 0; Round < InstRounds.size(); ++Round) {
    InstRounds[Round] = soloRoundTripNs<Instrumented>();
    FastRounds[Round] = soloRoundTripNs<csobj::Fast>();
  }
  std::sort(InstRounds.begin(), InstRounds.end());
  std::sort(FastRounds.begin(), FastRounds.end());
  const double InstNs = InstRounds[1], FastNs = FastRounds[1];
  std::cout << "solo nb-stack push+pop (median of 3 alternating rounds): "
            << "instrumented " << formatNs(InstNs) << "  fast "
            << formatNs(FastNs);
  if (FastNs > 0)
    std::cout << "  (fast/instrumented = "
              << formatDouble(InstNs / FastNs, 2) << "x)";
  std::cout << "\n";
  if (!(FastNs < InstNs)) {
    std::cerr << "FAIL: fast register policy not faster than instrumented "
                 "on the uncontended path\n";
    return 1;
  }
  std::cout << "PASS: fast register policy beats instrumented on the "
               "uncontended path\n";
  return 0;
}
