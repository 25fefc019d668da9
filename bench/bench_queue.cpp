//===- bench/bench_queue.cpp - Experiment E7 -----------------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E7 — the queue family and the paper's non-interference motivation
/// ("enqueuing and dequeuing on a non-empty queue"). Two tables:
///
///  * throughput/abort sweep across the queue implementations;
///  * the non-interference experiment: one producer + one consumer on a
///    queue kept non-empty and non-full must produce ZERO aborts on the
///    abortable queue (enqueues C&S only REAR, dequeues only FRONT) — in
///    sharp contrast with the stack, where all operations collide on TOP.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "baselines/LockedQueue.h"
#include "baselines/MichaelScottQueue.h"
#include "core/AbortableQueue.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/NonBlockingQueue.h"
#include "locks/TasLock.h"
#include "locks/TicketLock.h"

#include "runtime/SpinBarrier.h"
#include "runtime/TablePrinter.h"

#include <iostream>
#include <thread>

namespace {

using namespace csobj;
using namespace csobj::bench;

template <typename MakeFn>
void addSweep(TablePrinter &Table, const char *Name, MakeFn Make) {
  for (const std::uint32_t Threads : threadSweep()) {
    auto Adapter = Make(Threads, conformance::BenchCapacity);
    const WorkloadReport R = runCell(Adapter, Threads);
    Table.addRow({Name, std::to_string(Threads),
                  formatRate(R.throughputOpsPerSec()),
                  formatDouble(R.abortRate() * 100, 2) + "%",
                  formatDouble(R.meanRetries(), 4),
                  formatDouble(R.fairness(), 4)});
  }
}

/// One producer + one consumer on a provably never-empty / never-full
/// object, through its weak operations. Returns (producer aborts,
/// consumer aborts).
template <typename ObjectT>
std::pair<std::uint64_t, std::uint64_t>
producerConsumerAborts(ObjectT &Object, std::uint64_t Ops) {
  std::uint64_t EnqAborts = 0, DeqAborts = 0;
  const FaultPlan Chaos = FaultPlan::chaos(2, DefaultChaosPermille);
  FaultClock Clock;
  SpinBarrier Barrier(2);
  std::thread Producer([&] {
    FaultScope Faults(Chaos, 0, Clock);
    Barrier.arriveAndWait();
    for (std::uint64_t I = 0; I < Ops; ++I)
      if (pushOn(Object, 0, static_cast<std::uint32_t>(I % 1000) + 1) ==
          PushResult::Abort)
        ++EnqAborts;
  });
  std::thread Consumer([&] {
    FaultScope Faults(Chaos, 1, Clock);
    Barrier.arriveAndWait();
    for (std::uint64_t I = 0; I < Ops; ++I)
      if (popOn(Object, 1).isAbort())
        ++DeqAborts;
  });
  Producer.join();
  Consumer.join();
  return {EnqAborts, DeqAborts};
}

} // namespace

int main() {
  csobj::bench::printRegisterPolicy(std::cout);
  TablePrinter Sweep({"queue", "threads", "throughput", "abort-rate",
                      "retries/op", "jain"});
  Sweep.setTitle("E7a: queue family sweep (think=0, 50/50 enq-deq)");
  addSweep(Sweep, "abortable", unthreaded<AbortableQueue<>>);
  addSweep(Sweep, "non-blocking", unthreaded<NonBlockingQueue<>>);
  addSweep(Sweep, "cs(fig3)", make<Driven<ContentionSensitiveQueue<>>>);
  addSweep(Sweep, "michael-scott", make<Driven<MichaelScottQueue>>);
  addSweep(Sweep, "locked(tas)", make<Driven<LockedQueue<TasLock>>>);
  addSweep(Sweep, "locked(ticket)", make<Driven<LockedQueue<TicketLock>>>);
  Sweep.print(std::cout);

  // Non-interference: queue vs stack under 1 producer + 1 consumer. The
  // object is sized to provably never empty nor fill (prefill Ops+8, Ops
  // enqueues and dequeues, capacity 2*Ops+16), which must fit the
  // Compact64 16-bit index field.
  const std::uint64_t Ops = std::min<std::uint64_t>(opsPerThread(), 20000);
  TablePrinter NonInterf({"object", "enq/push aborts", "deq/pop aborts"});
  NonInterf.setTitle("E7b: producer+consumer on a never-empty object — "
                     "the paper's non-interference example");
  {
    AbortableQueue<> Queue(static_cast<std::uint32_t>(2 * Ops + 16));
    for (std::uint64_t I = 0; I < Ops + 8; ++I)
      (void)Queue.weakEnqueue(1);
    const auto [E, D] = producerConsumerAborts(Queue, Ops);
    NonInterf.addRow({"abortable queue", std::to_string(E),
                      std::to_string(D)});
  }
  {
    AbortableStack<> Stack(static_cast<std::uint32_t>(2 * Ops + 16));
    for (std::uint64_t I = 0; I < Ops + 8; ++I)
      (void)Stack.weakPush(1);
    const auto [E, D] = producerConsumerAborts(Stack, Ops);
    NonInterf.addRow({"abortable stack", std::to_string(E),
                      std::to_string(D)});
  }
  NonInterf.print(std::cout);

  std::cout << "\npaper claim (sec 1.1): enq/deq on a non-empty queue are "
               "non-interfering — the queue rows must show 0 aborts, while "
               "the stack (all ops collide on TOP) shows many\n";
  return 0;
}
