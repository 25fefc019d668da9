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

#include "runtime/TablePrinter.h"

#include <iostream>

namespace {

using namespace csobj;
using namespace csobj::bench;

/// One solo round trip per call: push then pop on a one-thread object.
template <typename AdapterT>
void addSolo(TablePrinter &Table, const char *Name) {
  AdapterT Adapter(1, 1024);
  std::uint64_t Retries = 0;
  std::uint32_t V = 1;
  const double Ns = soloNsPerCall([&] {
    (void)Adapter.apply(0, /*IsPush=*/true, V, Retries);
    (void)Adapter.apply(0, /*IsPush=*/false, V, Retries);
    ++V;
  });
  Table.addRow({Name, formatNs(Ns), formatRate(2e9 / Ns)});
}

template <typename AdapterT>
void addSweep(TablePrinter &Table, const char *Name) {
  for (const std::uint32_t Threads : threadSweep()) {
    for (const std::uint32_t ThinkNs : {0u, 2000u}) {
      const WorkloadReport R = runCell<AdapterT>(Threads, ThinkNs);
      Table.addRow({Name, std::to_string(Threads), std::to_string(ThinkNs),
                    formatRate(R.throughputOpsPerSec()),
                    formatDouble(R.abortRate() * 100, 2) + "%"});
    }
  }
}

} // namespace

int main() {
  csobj::bench::printRegisterPolicy(std::cout);

  {
    TablePrinter Table({"stack", "ns/push+pop", "ops/s"});
    Table.setTitle("E5a: solo push+pop round trip (steady_clock loop, "
                   "median of 5 repeats)");
    addSolo<CsStackAdapter>(Table, "cs(fig3)");
    addSolo<WeakStackAdapter>(Table, "abortable(fig1)");
    addSolo<NonBlockingStackAdapter>(Table, "non-blocking(fig2)");
    addSolo<TreiberStackAdapter>(Table, "treiber");
    addSolo<EliminationStackAdapter>(Table, "elimination");
    addSolo<LockedStackAdapter<TasLock>>(Table, "locked(tas)");
    addSolo<LockedStackAdapter<TtasLock>>(Table, "locked(ttas)");
    addSolo<LockedStackAdapter<TicketLock>>(Table, "locked(ticket)");
    addSolo<LockedStackAdapter<McsLock>>(Table, "locked(mcs)");
    addSolo<LockedStackAdapter<StdMutexLock>>(Table, "locked(mutex)");
    Table.print(std::cout);
  }

  TablePrinter Table({"stack", "threads", "think-ns", "throughput",
                      "aborts"});
  Table.setTitle("E5b: throughput sweep — implementation x threads x "
                 "think time (50/50)");
  addSweep<CsStackAdapter>(Table, "cs(fig3)");
  addSweep<NonBlockingStackAdapter>(Table, "non-blocking(fig2)");
  addSweep<TreiberStackAdapter>(Table, "treiber");
  addSweep<EliminationStackAdapter>(Table, "elimination");
  addSweep<LockedStackAdapter<TasLock>>(Table, "locked(tas)");
  addSweep<LockedStackAdapter<TicketLock>>(Table, "locked(ticket)");
  addSweep<LockedStackAdapter<StdMutexLock>>(Table, "locked(mutex)");
  Table.print(std::cout);

  std::cout << "\npaper claim: in the contention-free regime the cs stack "
               "tracks the lock-free structures (no lock taken), while "
               "every locked stack pays its lock on each operation\n";
  return 0;
}
