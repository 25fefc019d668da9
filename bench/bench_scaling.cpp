//===- bench/bench_scaling.cpp - Experiment E12 (acceleration layer) -----===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E12 — scaling sweep for the acceleration layer (src/perf/). The
/// paper's Figure 3 construction optimizes the solo case (6 shared
/// accesses) and funnels contention through one lock; the acceleration
/// layer attacks the contended case without giving the solo bound back:
///
///  * shortcut+lock (fig3)        the baseline construction
///  * eliminating(fig3+elim)      gated elimination before the lock
///  * combining(fig3+fc)          flat-combining slow path
///  * sharded(4xfig3)             four shards + elimination balancing
///  * treiber                     unbounded lock-free reference
///  * elimination                 HSY elimination-backoff reference
///
/// Sweeps threads x push-mix (30/50/70% push) under the default chaos
/// level. Results go to stdout as a table and to BENCH_scaling.json
/// (schema in EXPERIMENTS.md). The acceptance check — at >=4 threads at
/// least one accelerated stack beats plain Figure 3 — only runs when
/// the host actually has >=4 hardware threads: on smaller hosts the
/// sweep still emits valid structural output but parallel speedups are
/// physically impossible, so the check is skipped rather than faked.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "baselines/EliminationBackoffStack.h"
#include "baselines/TreiberStack.h"
#include "obs/JsonReporter.h"
#include "obs/MetricsJson.h"
#include "perf/CombiningObjects.h"

#include "runtime/TablePrinter.h"

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace csobj;
using namespace csobj::bench;

struct SweepOutput {
  TablePrinter &Table;
  JsonReporter &Json;
  /// Best throughput per (object, threads) across mixes, for the final
  /// host-conditional acceleration check.
  std::map<std::string, std::map<std::uint32_t, double>> Best;
};

/// Per-object acceleration stats, appended to the JSON record when the
/// object has them. The path breakdown (obs/MetricsJson.h) carries the
/// combiner's batches and combined ops with the per-path counts.
template <typename AdapterT>
void emitAccelStats(JsonReporter &Json, AdapterT &Adapter,
                    std::uint32_t Capacity) {
  if constexpr (requires { Adapter.footprintBytes(); })
    obs::emitMemoryFootprint(Json, Adapter.footprintBytes(), Capacity);
  if constexpr (requires { exchanges(Adapter.object()); })
    Json.field("elimination_exchanges", exchanges(Adapter.object()));
  if constexpr (requires { Adapter.pathSnapshot(); })
    obs::emitPathBreakdown(Json, Adapter.pathSnapshot());
}

template <typename MakeFn>
void runRows(SweepOutput &Out, const char *Object, MakeFn Make) {
  for (const std::uint32_t Threads : threadSweep()) {
    for (const std::uint32_t PushPercent : {30u, 50u, 70u}) {
      auto Adapter = Make(Threads, conformance::BenchCapacity);
      const WorkloadReport R =
          runCell(Adapter, Threads, /*ThinkNs=*/0, PushPercent);
      const LatencySummary S = summarize(R.mergedLatency());
      const double Throughput = R.throughputOpsPerSec();
      Out.Best[Object][Threads] =
          std::max(Out.Best[Object][Threads], Throughput);
      Out.Table.addRow({Object, std::to_string(Threads),
                        std::to_string(PushPercent) + "%",
                        formatRate(Throughput),
                        formatNs(static_cast<double>(S.P99Ns)),
                        formatDouble(R.fairness(), 4)});
      Out.Json.beginRecord();
      Out.Json.field("object", Object);
      Out.Json.field("threads", Threads);
      Out.Json.field("push_percent", PushPercent);
      Out.Json.field("ops", R.totalOps());
      Out.Json.field("duration_sec", R.DurationSec);
      Out.Json.field("throughput_ops_per_sec", Throughput);
      Out.Json.field("abort_rate", R.abortRate());
      Out.Json.field("mean_retries", R.meanRetries());
      Out.Json.field("p99_ns", static_cast<std::uint64_t>(S.P99Ns));
      Out.Json.field("jain_fairness", R.fairness());
      emitAccelStats(Out.Json, Adapter, conformance::BenchCapacity);
      Out.Json.endRecord();
    }
  }
}

} // namespace

int main() {
  printRegisterPolicy(std::cout);

  TablePrinter Table(
      {"object", "threads", "push%", "throughput", "p99", "jain"});
  Table.setTitle("E12: acceleration-layer scaling (threads x push mix)");
  JsonReporter Json;
  SweepOutput Out{Table, Json, {}};

  runRows(Out, "shortcut+lock (fig3)",
          make<Driven<ContentionSensitiveStack<>>>);
  runRows(Out, "eliminating(fig3+elim)", eliminatingStack);
  runRows(Out, "combining(fig3+fc)", make<Driven<CombiningStack<>>>);
  runRows(Out, "sharded(4xfig3)", staticShards<4>);
  runRows(Out, "treiber", make<Driven<TreiberStack>>);
  runRows(Out, "elimination", make<Driven<EliminationBackoffStack>>);

  Table.print(std::cout);

  // Host-conditional acceleration check: with real parallelism (>=4
  // hardware threads), at the 4-thread point at least one accelerated
  // variant must beat the plain Figure 3 stack on its best mix. On
  // fewer cores the sweep is still structurally valid but every stack
  // is time-sliced onto the same core, so the comparison says nothing.
  // Whether it ran is recorded in the JSON so the trajectory gate can
  // tell a small-host skip apart from a vanished check.
  const std::uint32_t HwThreads = std::thread::hardware_concurrency();
  const std::uint32_t Top = threadSweep().back();
  const bool AcceptanceSkipped = HwThreads < 4 || Top < 4;
  Json.beginRecord();
  Json.field("record", "acceptance");
  Json.field("acceptance_skipped", AcceptanceSkipped);
  Json.endRecord();

  const std::string JsonPath = "BENCH_scaling.json";
  if (!Json.writeFile(JsonPath)) {
    std::cerr << "error: could not write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";

  if (AcceptanceSkipped) {
    std::cout << "SKIP: acceleration check needs >=4 hardware threads and "
                 "a >=4-thread sweep point (host has "
              << HwThreads << ", sweep tops out at " << Top << ")\n";
    return 0;
  }
  const double Fig3 = Out.Best["shortcut+lock (fig3)"][Top];
  const double Elim = Out.Best["eliminating(fig3+elim)"][Top];
  const double Comb = Out.Best["combining(fig3+fc)"][Top];
  const double Shard = Out.Best["sharded(4xfig3)"][Top];
  std::cout << "at " << Top << " threads (best mix): fig3 "
            << formatRate(Fig3) << "  eliminating " << formatRate(Elim)
            << "  combining " << formatRate(Comb) << "  sharded "
            << formatRate(Shard) << "\n";
  if (Elim > Fig3 || Comb > Fig3 || Shard > Fig3) {
    std::cout << "PASS: an accelerated stack beats plain fig3 at " << Top
              << " threads\n";
    return 0;
  }
  std::cerr << "FAIL: no accelerated stack beats plain fig3 at " << Top
            << " threads\n";
  return 1;
}
