//===- bench/bench_locks.cpp - Experiment E6 -----------------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E6 — the Section 4.4 transformation and the lock substrate. For every
/// lock: solo acquire/release cost in shared-memory accesses and in time,
/// then contended throughput and per-thread acquisition fairness, with
/// and without the FLAG/TURN doorway. The claim: the doorway adds a
/// small constant solo overhead and buys starvation-freedom (fairness
/// near 1) from any deadlock-free lock.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "locks/AndersonLock.h"
#include "locks/ClhLock.h"
#include "locks/LamportFastLock.h"
#include "locks/LockTraits.h"
#include "locks/McsLock.h"
#include "locks/StarvationFreeLock.h"
#include "locks/TasLock.h"
#include "locks/TicketLock.h"
#include "locks/TournamentLock.h"
#include "memory/AccessCounter.h"
#include "runtime/SpinBarrier.h"
#include "runtime/Stats.h"
#include "runtime/TablePrinter.h"

#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

namespace {

using namespace csobj;

/// Solo acquire+release time, one row per lock.
template <typename L> void timeRow(TablePrinter &Table, const char *Name) {
  L Lock(8);
  const double Ns = bench::soloNsPerCall([&] {
    Lock.lock(0);
    Lock.unlock(0);
  });
  Table.addRow({Name, formatNs(Ns)});
}

/// Fixed-duration contention run; reports throughput + fairness.
template <typename L>
void contendedRow(TablePrinter &Table, const char *Name,
                  std::uint32_t Threads) {
  L Lock(Threads);
  std::vector<std::uint64_t> Acquisitions(Threads, 0);
  std::atomic<bool> Stop{false};
  // Asynchrony injection (FaultPlan::chaos): without it, a single-core
  // host round-robins whole timeslices and even a TAS lock looks fair by
  // accident.
  const FaultPlan Chaos = FaultPlan::chaos(Threads, /*YieldPermille=*/100);
  FaultClock Clock;
  SpinBarrier Barrier(Threads + 1);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      FaultScope Faults(Chaos, T, Clock);
      Barrier.arriveAndWait();
      while (!Stop.load(std::memory_order_relaxed)) {
        Lock.lock(T);
        ++Acquisitions[T];
        Lock.unlock(T);
      }
    });
  Barrier.arriveAndWait();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(bench::quickMode() ? 50 : 200));
  Stop.store(true);
  for (auto &W : Workers)
    W.join();

  std::uint64_t Total = 0, Min = ~std::uint64_t{0};
  std::vector<double> Scores;
  for (std::uint64_t A : Acquisitions) {
    Total += A;
    Min = std::min(Min, A);
    Scores.push_back(static_cast<double>(A));
  }
  Table.addRow({Name, std::to_string(Threads), std::to_string(Total),
                std::to_string(Min), formatDouble(jainFairnessIndex(Scores),
                                                  4)});
}

/// Solo access counts (lock+unlock), one row per lock.
template <typename L>
void accessRow(TablePrinter &Table, const char *Name) {
  L Lock(8);
  const AccessCounts C = countAccesses([&] {
    Lock.lock(0);
    Lock.unlock(0);
  });
  Table.addRow({Name, std::to_string(C.total()), std::to_string(C.Reads),
                std::to_string(C.Writes),
                std::to_string(C.CasAttempts + C.Rmw)});
}

} // namespace

int main() {
  csobj::bench::printRegisterPolicy(std::cout);

  {
    TablePrinter Table({"lock", "ns/lock+unlock"});
    Table.setTitle("E6 solo: acquire+release time (steady_clock loop, "
                   "median of 5 repeats)");
    timeRow<TasLock>(Table, "tas");
    timeRow<TtasLock>(Table, "ttas");
    timeRow<TicketLock>(Table, "ticket");
    timeRow<McsLock>(Table, "mcs");
    timeRow<ClhLock>(Table, "clh");
    timeRow<AndersonLock>(Table, "anderson");
    timeRow<TournamentLock>(Table, "tournament");
    timeRow<LamportFastLock>(Table, "lamport-fast");
    timeRow<StdMutexLock>(Table, "std::mutex");
    timeRow<StarvationFreeLock<TasLock>>(Table, "sf(tas)");
    timeRow<StarvationFreeLock<LamportFastLock>>(Table, "sf(lamport)");
    Table.print(std::cout);
  }

  {
    TablePrinter Table({"lock", "solo-accesses", "reads", "writes",
                        "cas/rmw"});
    Table.setTitle("E6a: solo acquire+release shared-memory accesses");
    accessRow<TasLock>(Table, "tas");
    accessRow<TtasLock>(Table, "ttas");
    accessRow<TicketLock>(Table, "ticket");
    accessRow<McsLock>(Table, "mcs");
    accessRow<ClhLock>(Table, "clh");
    accessRow<AndersonLock>(Table, "anderson");
    accessRow<TournamentLock>(Table, "tournament");
    accessRow<LamportFastLock>(Table, "lamport-fast [16]");
    accessRow<StarvationFreeLock<TasLock>>(Table, "sf(tas) [sec4.4]");
    accessRow<StarvationFreeLock<LamportFastLock>>(Table,
                                                   "sf(lamport) [sec4.4]");
    Table.print(std::cout);
  }

  {
    TablePrinter Table({"lock", "threads", "total-acq", "min-thread-acq",
                        "jain"});
    Table.setTitle("E6b: contended acquisitions and fairness (fixed "
                   "duration)");
    const std::uint32_t Threads = bench::quickMode() ? 2 : 4;
    contendedRow<TasLock>(Table, "tas", Threads);
    contendedRow<StarvationFreeLock<TasLock>>(Table, "sf(tas)", Threads);
    contendedRow<TtasLock>(Table, "ttas", Threads);
    contendedRow<StarvationFreeLock<TtasLock>>(Table, "sf(ttas)", Threads);
    contendedRow<LamportFastLock>(Table, "lamport-fast", Threads);
    contendedRow<StarvationFreeLock<LamportFastLock>>(Table, "sf(lamport)",
                                                      Threads);
    contendedRow<TicketLock>(Table, "ticket", Threads);
    contendedRow<McsLock>(Table, "mcs", Threads);
    contendedRow<ClhLock>(Table, "clh", Threads);
    contendedRow<AndersonLock>(Table, "anderson", Threads);
    contendedRow<TournamentLock>(Table, "tournament", Threads);
    contendedRow<StdMutexLock>(Table, "std::mutex", Threads);
    Table.print(std::cout);
  }

  std::cout << "\npaper claim (sec 4.4): wrapping any deadlock-free lock "
               "in the FLAG/TURN doorway yields starvation-freedom — "
               "min-thread-acq > 0 and jain near 1 for every sf(...) row\n";
  return 0;
}
