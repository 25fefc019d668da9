//===- bench/bench_abort_rate.cpp - Experiment E2 ------------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E2 — Figure 1's abortable semantics under load: the fraction of weak
/// operations returning bottom as contention rises (thread count up,
/// think time down). The paper's qualitative claim: solo executions never
/// abort; aborts are the price of concurrency, and adding local think
/// time between operations (approaching the "contention-free context")
/// drives the abort rate back toward zero.
///
/// Results are also written to BENCH_abort_rate.json for plots and
/// regression tooling. CSOBJ_CHAOS overrides the chaos level of every
/// cell (see bench/BenchCommon.h).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/AbortableStack.h"
#include "obs/JsonReporter.h"

#include "runtime/TablePrinter.h"

#include <iostream>
#include <string>

int main() {
  using namespace csobj;
  using namespace csobj::bench;

  printRegisterPolicy(std::cout);
  JsonReporter Json;

  {
    TablePrinter Table({"threads", "ops", "aborts", "abort-rate",
                        "throughput"});
    Table.setTitle("E2a: abort rate of weak stack ops vs thread count "
                   "(think=0, 50/50 push-pop)");
    for (const std::uint32_t Threads : threadSweep()) {
      Driven<AbortableStack<>> Stack(conformance::BenchCapacity);
      const WorkloadReport R = runCell(Stack, Threads);
      Table.addRow({std::to_string(Threads), std::to_string(R.totalOps()),
                    std::to_string(R.totalAborts()),
                    formatDouble(R.abortRate() * 100, 2) + "%",
                    formatRate(R.throughputOpsPerSec())});
      Json.beginRecord();
      Json.field("experiment", "E2a_threads");
      Json.field("threads", Threads);
      Json.field("ops", R.totalOps());
      Json.field("aborts", R.totalAborts());
      Json.field("abort_rate", R.abortRate());
      Json.field("throughput_ops_per_sec", R.throughputOpsPerSec());
      Json.endRecord();
    }
    Table.print(std::cout);
  }

  {
    TablePrinter Table({"asynchrony (permille)", "aborts", "abort-rate"});
    Table.setTitle("E2b: abort rate vs asynchrony level — dialing the "
                   "interleaving density from solo-like to adversarial "
                   "(4 threads)");
    const std::uint32_t Threads = quickMode() ? 2 : 4;
    for (const std::uint32_t Chaos : {0u, 10u, 50u, 100u, 300u}) {
      Driven<AbortableStack<>> Stack(conformance::BenchCapacity);
      const WorkloadReport R =
          runCell(Stack, Threads, /*ThinkNs=*/0, /*PushPercent=*/50,
                  /*Capacity=*/conformance::BenchCapacity, Chaos);
      Table.addRow({std::to_string(Chaos),
                    std::to_string(R.totalAborts()),
                    formatDouble(R.abortRate() * 100, 3) + "%"});
      Json.beginRecord();
      Json.field("experiment", "E2b_asynchrony");
      Json.field("threads", Threads);
      Json.field("chaos_permille", Chaos);
      Json.field("ops", R.totalOps());
      Json.field("aborts", R.totalAborts());
      Json.field("abort_rate", R.abortRate());
      Json.endRecord();
    }
    Table.print(std::cout);
  }

  {
    TablePrinter Table({"threads", "aborts", "abort-rate"});
    Table.setTitle("E2c: solo control — one thread never aborts");
    Driven<AbortableStack<>> Stack(conformance::BenchCapacity);
    const WorkloadReport R = runCell(Stack, 1);
    Table.addRow({"1", std::to_string(R.totalAborts()),
                  formatDouble(R.abortRate() * 100, 3) + "%"});
    Json.beginRecord();
    Json.field("experiment", "E2c_solo");
    Json.field("threads", std::uint32_t{1});
    Json.field("ops", R.totalOps());
    Json.field("aborts", R.totalAborts());
    Json.field("abort_rate", R.abortRate());
    Json.endRecord();
    Table.print(std::cout);
  }

  const std::string JsonPath = "BENCH_abort_rate.json";
  if (!Json.writeFile(JsonPath)) {
    std::cerr << "error: could not write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";

  std::cout << "\npaper claim: an operation executed in a contention-free "
               "context never returns bottom;\naborts appear only under "
               "interference and vanish as the asynchrony level returns to zero\n";
  return 0;
}
