//===- bench/bench_retry_nonblocking.cpp - Experiment E3 -----------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E3 — Figure 2's retry construction: no operation ever surfaces bottom;
/// the cost moves into retries. Reports mean retries per operation and
/// throughput across the thread sweep, for the paper-literal immediate
/// retry and for the exponential-backoff variant (the simplest
/// contention-manager upgrade, Section 5's theme).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/NonBlockingStack.h"

#include "runtime/TablePrinter.h"

#include <iostream>

int main() {
  using namespace csobj;
  using namespace csobj::bench;

  printRegisterPolicy(std::cout);
  TablePrinter Table({"threads", "policy", "aborts-surfaced",
                      "mean-retries/op", "p99-latency", "throughput"});
  Table.setTitle("E3: non-blocking stack (fig2) — retries replace aborts");
  for (const std::uint32_t Threads : threadSweep()) {
    {
      Driven<NonBlockingStack<>> Stack(conformance::BenchCapacity);
      const WorkloadReport R = runCell(Stack, Threads);
      const LatencySummary S = summarize(R.mergedLatency());
      Table.addRow({std::to_string(Threads), "immediate (paper)",
                    std::to_string(R.totalAborts()),
                    formatDouble(R.meanRetries(), 4),
                    formatNs(static_cast<double>(S.P99Ns)),
                    formatRate(R.throughputOpsPerSec())});
    }
    {
      Driven<NonBlockingStack<Compact64, ExponentialBackoff>> Stack(
          conformance::BenchCapacity);
      const WorkloadReport R = runCell(Stack, Threads);
      const LatencySummary S = summarize(R.mergedLatency());
      Table.addRow({std::to_string(Threads), "exp-backoff",
                    std::to_string(R.totalAborts()),
                    formatDouble(R.meanRetries(), 4),
                    formatNs(static_cast<double>(S.P99Ns)),
                    formatRate(R.throughputOpsPerSec())});
    }
  }
  Table.print(std::cout);

  std::cout << "\npaper claim: figure 2 surfaces zero bottoms (column 3) "
               "and solo runs need zero retries (threads=1 row)\n";
  return 0;
}
