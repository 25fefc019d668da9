//===- bench/bench_throughput_stack.cpp - Experiment E5 ------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E5 — "the overhead introduced by locking is eliminated in the common
/// cases". Two views:
///
///  * the solo (contention-free) push+pop round trip for every
///    implementation, timed by a steady_clock loop (median of five
///    repeats) — the regime the paper optimizes; the Figure 3 stack
///    should sit near the lock-free structures and clearly below every
///    lock-based stack;
///  * a custom thread sweep crossing implementation x think-time, where
///    think time dials the workload from the paper's contended regime to
///    its contention-free regime.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "baselines/EliminationBackoffStack.h"
#include "baselines/LockedStack.h"
#include "baselines/TreiberStack.h"
#include "core/AbortableStack.h"
#include "core/NonBlockingStack.h"
#include "locks/McsLock.h"
#include "locks/TasLock.h"
#include "locks/TicketLock.h"

#include "runtime/TablePrinter.h"

#include <iostream>

namespace {

using namespace csobj;
using namespace csobj::bench;

/// One solo round trip per call: push then pop on a one-thread object.
template <typename MakeFn>
void addSolo(TablePrinter &Table, const char *Name, MakeFn Make) {
  auto Adapter = Make(1, 1024);
  std::uint64_t Retries = 0;
  std::uint32_t V = 1;
  const double Ns = soloNsPerCall([&] {
    (void)Adapter.apply(0, /*IsPush=*/true, V, Retries);
    (void)Adapter.apply(0, /*IsPush=*/false, V, Retries);
    ++V;
  });
  Table.addRow({Name, formatNs(Ns), formatRate(2e9 / Ns)});
}

template <typename MakeFn>
void addSweep(TablePrinter &Table, const char *Name, MakeFn Make) {
  for (const std::uint32_t Threads : threadSweep()) {
    for (const std::uint32_t ThinkNs : {0u, 2000u}) {
      auto Adapter = Make(Threads, conformance::BenchCapacity);
      const WorkloadReport R = runCell(Adapter, Threads, ThinkNs);
      Table.addRow({Name, std::to_string(Threads), std::to_string(ThinkNs),
                    formatRate(R.throughputOpsPerSec()),
                    formatDouble(R.abortRate() * 100, 2) + "%"});
    }
  }
}

} // namespace

int main() {
  csobj::bench::printRegisterPolicy(std::cout);
  constexpr auto Fig3 = make<Driven<ContentionSensitiveStack<>>>;

  {
    TablePrinter Table({"stack", "ns/push+pop", "ops/s"});
    Table.setTitle("E5a: solo push+pop round trip (steady_clock loop, "
                   "median of 5 repeats)");
    addSolo(Table, "cs(fig3)", Fig3);
    addSolo(Table, "abortable(fig1)", unthreaded<AbortableStack<>>);
    addSolo(Table, "non-blocking(fig2)", unthreaded<NonBlockingStack<>>);
    addSolo(Table, "treiber", make<Driven<TreiberStack>>);
    addSolo(Table, "elimination", make<Driven<EliminationBackoffStack>>);
    addSolo(Table, "locked(tas)", make<Driven<LockedStack<TasLock>>>);
    addSolo(Table, "locked(ttas)", make<Driven<LockedStack<TtasLock>>>);
    addSolo(Table, "locked(ticket)", make<Driven<LockedStack<TicketLock>>>);
    addSolo(Table, "locked(mcs)", make<Driven<LockedStack<McsLock>>>);
    addSolo(Table, "locked(mutex)", make<Driven<LockedStack<StdMutexLock>>>);
    Table.print(std::cout);
  }

  TablePrinter Table({"stack", "threads", "think-ns", "throughput",
                      "aborts"});
  Table.setTitle("E5b: throughput sweep — implementation x threads x "
                 "think time (50/50)");
  addSweep(Table, "cs(fig3)", Fig3);
  addSweep(Table, "non-blocking(fig2)", unthreaded<NonBlockingStack<>>);
  addSweep(Table, "treiber", make<Driven<TreiberStack>>);
  addSweep(Table, "elimination", make<Driven<EliminationBackoffStack>>);
  addSweep(Table, "locked(tas)", make<Driven<LockedStack<TasLock>>>);
  addSweep(Table, "locked(ticket)", make<Driven<LockedStack<TicketLock>>>);
  addSweep(Table, "locked(mutex)", make<Driven<LockedStack<StdMutexLock>>>);
  Table.print(std::cout);

  std::cout << "\npaper claim: in the contention-free regime the cs stack "
               "tracks the lock-free structures (no lock taken), while "
               "every locked stack pays its lock on each operation\n";
  return 0;
}
