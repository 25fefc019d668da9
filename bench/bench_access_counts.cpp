//===- bench/bench_access_counts.cpp - Experiment E1 ---------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E1 — the paper's quantitative headline (Abstract, Section 4, Theorem
/// 1): a contention-free strong operation on the Figure 3 stack uses no
/// lock and performs exactly SIX shared-memory accesses; the weak
/// operations of Figure 1 perform five; boundary answers (full/empty)
/// three. This binary measures the counts mechanically through the
/// instrumented registers and prints the per-kind breakdown, alongside
/// the same costs for every other implementation in the library so the
/// "cheap common case" claim is visible in context.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include "baselines/EliminationBackoffStack.h"
#include "baselines/LockedQueue.h"
#include "baselines/LockedStack.h"
#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
#include "core/AbortableQueue.h"
#include "core/ContentionSensitiveCounter.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/NonBlockingStack.h"
#include "locks/LamportFastLock.h"
#include "locks/StarvationFreeLock.h"
#include "locks/TicketLock.h"
#include "memory/AccessCounter.h"
#include "perf/CombiningObjects.h"
#include "runtime/TablePrinter.h"

#include <functional>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

namespace csobj {
namespace {

struct Probe {
  const char *Object;
  const char *Operation;
  std::function<AccessCounts()> Run;
};

void addRow(TablePrinter &Table, const char *Object, const char *Operation,
            const AccessCounts &C) {
  Table.addRow({Object, Operation, std::to_string(C.total()),
                std::to_string(C.Reads), std::to_string(C.Writes),
                std::to_string(C.CasAttempts)});
}

} // namespace
} // namespace csobj

int main() {
  using namespace csobj;
  bench::printRegisterPolicy(std::cout);

  TablePrinter Table({"object", "operation (solo)", "accesses", "reads",
                      "writes", "cas"});
  Table.setTitle("E1: shared-memory accesses per contention-free operation");

  // --- Figure 1: the weak operations -------------------------------------
  {
    AbortableStack<> Stack(8);
    addRow(Table, "abortable stack (fig1)", "weak_push -> done",
           countAccesses([&] { (void)Stack.weakPush(1); }));
    addRow(Table, "abortable stack (fig1)", "weak_pop -> value",
           countAccesses([&] { (void)Stack.weakPop(); }));
    addRow(Table, "abortable stack (fig1)", "weak_pop -> empty",
           countAccesses([&] { (void)Stack.weakPop(); }));
  }
  {
    AbortableStack<> Stack(1);
    (void)Stack.weakPush(1);
    addRow(Table, "abortable stack (fig1)", "weak_push -> full",
           countAccesses([&] { (void)Stack.weakPush(2); }));
  }

  // --- Figure 3: the paper's six-access claim -----------------------------
  {
    ContentionSensitiveStack<> Stack(4, 8);
    addRow(Table, "cs stack (fig3)", "strong_push -> done",
           countAccesses([&] { (void)Stack.push(0, 1); }));
    addRow(Table, "cs stack (fig3)", "strong_pop -> value",
           countAccesses([&] { (void)Stack.pop(0); }));
    addRow(Table, "cs stack (fig3)", "strong_pop -> empty",
           countAccesses([&] { (void)Stack.pop(0); }));
  }

  // --- The queue family ----------------------------------------------------
  {
    AbortableQueue<> Queue(8);
    addRow(Table, "abortable queue", "weak_enqueue -> done",
           countAccesses([&] { (void)Queue.weakEnqueue(1); }));
    addRow(Table, "abortable queue", "weak_dequeue -> value",
           countAccesses([&] { (void)Queue.weakDequeue(); }));
  }
  {
    ContentionSensitiveQueue<> Queue(4, 8);
    addRow(Table, "cs queue (fig3)", "strong_enqueue -> done",
           countAccesses([&] { (void)Queue.enqueue(0, 1); }));
    addRow(Table, "cs queue (fig3)", "strong_dequeue -> value",
           countAccesses([&] { (void)Queue.dequeue(0); }));
  }

  // --- Counter instantiation ----------------------------------------------
  {
    ContentionSensitiveCounter<> Counter(2);
    addRow(Table, "cs counter (fig3)", "strong_add",
           countAccesses([&] { (void)Counter.add(0, 1); }));
  }

  // --- Acceleration layer (src/perf/): the solo bound must survive --------
  // The rescue/combining/sharding machinery only engages after the
  // Figure 3 fast path fails, so every solo row must match fig3 exactly.
  {
    EliminatingContentionSensitiveStack<> Stack(4, 8);
    addRow(Table, "eliminating stack (fig3+elim)", "strong_push -> done",
           countAccesses([&] { (void)Stack.push(0, 1); }));
    addRow(Table, "eliminating stack (fig3+elim)", "strong_pop -> value",
           countAccesses([&] { (void)Stack.pop(0); }));
    addRow(Table, "eliminating stack (fig3+elim)", "strong_pop -> empty",
           countAccesses([&] { (void)Stack.pop(0); }));
  }
  {
    CombiningStack<> Stack(4, 8);
    addRow(Table, "combining stack (fig3+fc)", "strong_push -> done",
           countAccesses([&] { (void)Stack.push(0, 1); }));
    addRow(Table, "combining stack (fig3+fc)", "strong_pop -> value",
           countAccesses([&] { (void)Stack.pop(0); }));
  }
  {
    AdaptiveShardedStack<4> Stack(4, 8, /*InitialShards=*/4, /*SlotCount=*/4,
                                  /*SpinBudget=*/64,
                                  ShardControllerConfig{.TickOps = 0});
    addRow(Table, "sharded stack (4xfig3)", "strong_push -> done",
           countAccesses([&] { (void)Stack.push(0, 1); }));
    addRow(Table, "sharded stack (4xfig3)", "strong_pop -> value",
           countAccesses([&] { (void)Stack.pop(0); }));
  }

  // --- Batched group ops: solo batches keep the per-element budget --------
  // A contention-free push_all/pop_all of k elements runs k shortcut
  // attempts (6 accesses each) and never touches the seam, so the batch
  // costs exactly 6k — batching is free when there is no contention, and
  // these rows prove compiling the batch machinery in did not perturb
  // the solo bound.
  {
    ContentionSensitiveStack<> Stack(4, 16);
    std::uint32_t Vals[4] = {1, 2, 3, 4};
    std::uint32_t Out[4];
    addRow(Table, "cs stack (fig3)", "push_all x4 -> done",
           countAccesses([&] { (void)Stack.push_all(0, Vals, 4); }));
    addRow(Table, "cs stack (fig3)", "pop_all x4 -> values",
           countAccesses([&] { (void)Stack.pop_all(0, Out, 4); }));
  }
  {
    CombiningStack<> Stack(4, 16);
    std::uint32_t Vals[4] = {1, 2, 3, 4};
    std::uint32_t Out[4];
    addRow(Table, "combining stack (fig3+fc)", "push_all x4 -> done",
           countAccesses([&] { (void)Stack.push_all(0, Vals, 4); }));
    addRow(Table, "combining stack (fig3+fc)", "pop_all x4 -> values",
           countAccesses([&] { (void)Stack.pop_all(0, Out, 4); }));
  }
  {
    ContentionSensitiveQueue<> Queue(4, 16);
    std::uint32_t Vals[4] = {1, 2, 3, 4};
    std::uint32_t Out[4];
    addRow(Table, "cs queue (fig3)", "enqueue_all x4 -> done",
           countAccesses([&] { (void)Queue.enqueue_all(0, Vals, 4); }));
    addRow(Table, "cs queue (fig3)", "dequeue_all x4 -> values",
           countAccesses([&] { (void)Queue.dequeue_all(0, Out, 4); }));
  }

  // --- Baselines for context ----------------------------------------------
  {
    TreiberStack Stack(2, 8);
    addRow(Table, "treiber stack", "push",
           countAccesses([&] { (void)Stack.push(1); }));
    addRow(Table, "treiber stack", "pop",
           countAccesses([&] { (void)Stack.pop(); }));
  }
  {
    LockedStack<TasLock> Stack(2, 8);
    addRow(Table, "locked stack (tas)", "push (lock+unlock)",
           countAccesses([&] { (void)Stack.push(0, 1); }));
  }
  {
    LockedStack<TicketLock> Stack(2, 8);
    addRow(Table, "locked stack (ticket)", "push (lock+unlock)",
           countAccesses([&] { (void)Stack.push(0, 1); }));
  }

  // --- Lock substrate: Lamport's fast lock ([16]) and Section 4.4 ---------
  {
    LamportFastLock Lock(8);
    addRow(Table, "lamport fast lock [16]", "lock+unlock",
           countAccesses([&] {
             Lock.lock(0);
             Lock.unlock(0);
           }));
  }
  {
    StarvationFreeLock<TasLock> Lock(8);
    addRow(Table, "sf(tas) lock (sec 4.4)", "lock+unlock",
           countAccesses([&] {
             Lock.lock(0);
             Lock.unlock(0);
           }));
  }

  Table.print(std::cout);
  std::cout << "\npaper claims (solo): weak op = 5, strong op = 6 (Thm 1),"
            << "\nfull/empty answer = 3 (weak) / 4 (strong);"
            << " solo k-batch = 6k (stack) / 7k (queue);"
            << " Lamport fast lock = 7 per CS entry+exit [16]\n\n";

  // E1b: mean accesses per operation under contention — how far each
  // construction drifts from its contention-free budget when operations
  // start colliding (asynchrony injection as in E2).
  {
    TablePrinter Contended({"object", "threads", "mean-accesses/op",
                            "cas-failures/op"});
    Contended.setTitle("E1b: accesses per op under contention "
                       "(asynchrony 100 permille, 50/50)");
    const std::uint32_t OpsPerThread = bench::quickMode() ? 4000 : 20000;
    for (const std::uint32_t Threads : {1u, 2u, 4u}) {
      auto RunCounted = [&](auto &Adapter) {
        for (std::uint32_t I = 0; I < conformance::BenchCapacity / 2; ++I)
          Adapter.prefillOne(I + 1);
        const FaultPlan Chaos =
            FaultPlan::chaos(Threads, Threads > 1 ? 100 : 0);
        FaultClock Clock;
        std::vector<AccessCounts> Counts(Threads);
        SpinBarrier Barrier(Threads);
        std::vector<std::thread> Workers;
        for (std::uint32_t T = 0; T < Threads; ++T)
          Workers.emplace_back([&, T] {
            FaultScope Faults(Chaos, T, Clock);
            AccessCounterScope CountScope(Counts[T]);
            SplitMix64 Rng(T + 500);
            std::uint64_t Retries = 0;
            Barrier.arriveAndWait();
            for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
              const bool IsPush = Rng.chance(1, 2);
              const auto V = static_cast<std::uint32_t>(Rng.below(9999)) + 1;
              (void)Adapter.apply(T, IsPush, V, Retries);
            }
          });
        for (auto &W : Workers)
          W.join();
        AccessCounts Total;
        for (const AccessCounts &C : Counts) {
          Total.Reads += C.Reads;
          Total.Writes += C.Writes;
          Total.CasAttempts += C.CasAttempts;
          Total.CasFailures += C.CasFailures;
          Total.Rmw += C.Rmw;
        }
        const double Ops = static_cast<double>(Threads) * OpsPerThread;
        return std::pair<double, double>(
            static_cast<double>(Total.total()) / Ops,
            static_cast<double>(Total.CasFailures) / Ops);
      };

      {
        Driven<NonBlockingStack<>> Stack(conformance::BenchCapacity);
        const auto [Mean, Failures] = RunCounted(Stack);
        Contended.addRow({"non-blocking(fig2)", std::to_string(Threads),
                          formatDouble(Mean, 2), formatDouble(Failures, 3)});
      }
      {
        Driven<ContentionSensitiveStack<>> Stack(Threads,
                                                 conformance::BenchCapacity);
        const auto [Mean, Failures] = RunCounted(Stack);
        Contended.addRow({"cs(fig3)", std::to_string(Threads),
                          formatDouble(Mean, 2), formatDouble(Failures, 3)});
      }
    }
    Contended.print(std::cout);
    std::cout << "\nthe solo rows sit at the analytical 5 (+epsilon for "
                 "full/empty answers) and 6; contention adds retries "
                 "(fig2) or doorway traffic (fig3)\n";
  }
  return 0;
}
