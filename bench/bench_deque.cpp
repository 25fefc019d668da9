//===- bench/bench_deque.cpp - Experiment E10 ----------------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E10 — the HLM obstruction-free deque (the paper's reference [8]) and
/// its Figure 3 strengthening. Three tables:
///
///  * solo access counts per operation as occupancy grows — unlike the
///    paper's stack (constant 5/6), HLM pays an O(boundary-position)
///    oracle scan, which is why the paper's "small and constant number
///    of accesses" requirement is a real design constraint;
///  * abort rate of raw single attempts under contention;
///  * throughput of obstruction-free retry vs the contention-sensitive
///    deque (which adds starvation-freedom on top).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ContentionSensitiveDeque.h"
#include "core/ObstructionFreeDeque.h"
#include "memory/AccessCounter.h"
#include "runtime/TablePrinter.h"

#include <iostream>

namespace {

using namespace csobj;
using namespace csobj::bench;

/// Raw deque, single attempts; aborts surface. The one hand-written
/// adapter: the deque's pushRight/popRight retry, so pushOn cannot pick
/// the single attempt by name. It prefills through pushRight.
struct SingleAttempts : Driven<ObstructionFreeDeque> {
  using Driven::Driven;
  OpOutcome apply(std::uint32_t, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(object().tryPushRight(V))
                  : fromPop(object().tryPopRight());
  }
};

} // namespace

int main() {
  csobj::bench::printRegisterPolicy(std::cout);
  // Solo access counts vs occupancy: HLM's oracle makes the cost grow,
  // in contrast to the paper's constant-cost stack.
  {
    TablePrinter Table({"elements (right side)", "pushRight", "popRight",
                        "pushLeft", "popLeft"});
    Table.setTitle("E10a: solo accesses per op vs occupancy (HLM oracle "
                   "is O(boundary position); paper stack is constant)");
    for (const std::uint32_t Fill : {0u, 4u, 16u, 64u}) {
      ObstructionFreeDeque Deque(128, 2);
      for (std::uint32_t I = 0; I < Fill; ++I)
        (void)Deque.pushRight(I + 1);
      const AccessCounts PushR =
          countAccesses([&] { (void)Deque.tryPushRight(9); });
      const AccessCounts PopR =
          countAccesses([&] { (void)Deque.tryPopRight(); });
      const AccessCounts PushL =
          countAccesses([&] { (void)Deque.tryPushLeft(9); });
      const AccessCounts PopL =
          countAccesses([&] { (void)Deque.tryPopLeft(); });
      Table.addRow({std::to_string(Fill), std::to_string(PushR.total()),
                    std::to_string(PopR.total()),
                    std::to_string(PushL.total()),
                    std::to_string(PopL.total())});
    }
    Table.print(std::cout);
  }

  {
    TablePrinter Table({"deque", "threads", "throughput", "abort-rate",
                        "svc-ratio"});
    Table.setTitle("E10b: obstruction-free vs contention-sensitive deque "
                   "(right-end 50/50, capacity 64)");
    for (const std::uint32_t Threads : threadSweep()) {
      // Right-end 50/50 over capacity 64, half its slots on the left.
      const auto Run = [Threads](auto &Adapter) {
        return runCell(Adapter, Threads, /*ThinkNs=*/0, /*PushPercent=*/50,
                       /*Capacity=*/64);
      };
      const auto AddRow = [&](const char *Name, const WorkloadReport &R) {
        Table.addRow({Name, std::to_string(Threads),
                      formatRate(R.throughputOpsPerSec()),
                      formatDouble(R.abortRate() * 100, 2) + "%",
                      formatDouble(R.meanLatencyRatio(), 2)});
      };
      {
        SingleAttempts Deque(64, 32);
        AddRow("hlm attempts", Run(Deque));
      }
      {
        Driven<ObstructionFreeDeque> Deque(64, 32);
        AddRow("hlm retry (obstruction-free)", Run(Deque));
      }
      {
        Driven<ContentionSensitiveDeque<>> Deque(Threads, 64, 32);
        AddRow("cs-deque (fig3)", Run(Deque));
      }
    }
    Table.print(std::cout);
  }

  std::cout << "\npaper tie-in: [8] defines obstruction-freedom; Figure 3 "
               "lifts the same object to starvation-freedom while keeping "
               "the solo path lock-free\n";
  return 0;
}
