//===- examples/task_bag.cpp - Batched producer/consumer task bag --------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A producer/consumer task bag driven through the batched group
/// operations (push_all/pop_all): producers hand over work items a batch
/// at a time, consumers take them a batch at a time, so each group of k
/// items crosses the strong seam once instead of k times. The same
/// traffic runs over two objects:
///
///  * the plain Figure 3 stack, operated per element (the baseline), and
///  * the flat-combining stack, operated through push_all/pop_all (one
///    combiner record carries the whole batch).
///
/// Every item carries a value; producers fold the values they handed
/// over into a checksum and consumers fold what they received, so lost
/// or duplicated elements are caught, not just counted. The example
/// prints both element rates; on a contended host the batched combining
/// run amortizes its seam crossings and comes out ahead (E14 measures
/// this sweep properly — bench/bench_batch.cpp).
///
//===----------------------------------------------------------------------===//

#include "core/ContentionSensitiveStack.h"
#include "faults/FaultInjector.h"
#include "perf/CombiningObjects.h"
#include "runtime/SpinBarrier.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

using namespace csobj;

namespace {

constexpr std::uint32_t Producers = 4;
constexpr std::uint32_t Consumers = 4;
constexpr std::uint32_t BatchSize = 32;
constexpr std::uint64_t BatchesPerProducer = 1000;
constexpr std::uint32_t Capacity = 4096;

struct RunResult {
  std::uint64_t Produced = 0, Consumed = 0;
  std::uint64_t ProducedSum = 0, ConsumedSum = 0;
  double Seconds = 0.0;
  bool balanced() const {
    return Produced == Consumed && ProducedSum == ConsumedSum;
  }
  double elementsPerSec() const {
    return Seconds > 0.0
               ? static_cast<double>(Produced + Consumed) / Seconds
               : 0.0;
  }
};

/// Runs the producer/consumer traffic over \p Bag. PushBatch/PopBatch
/// adapt the object's group entry points; per-element baselines just
/// loop inside them.
template <typename PushBatchFn, typename PopBatchFn, typename DrainFn>
RunResult runTraffic(PushBatchFn PushBatch, PopBatchFn PopBatch,
                     DrainFn Drain) {
  const std::uint32_t Threads = Producers + Consumers;
  // The library convention for contended measurements: 10% yield
  // probability per shared access emulates the paper's asynchronous
  // adversary (FaultPlan::chaos), identically for both objects.
  const FaultPlan Chaos = FaultPlan::chaos(Threads, /*YieldPermille=*/100);
  FaultClock Clock;
  SpinBarrier StartLine(Threads + 1);
  std::atomic<std::uint32_t> LiveProducers{Producers};
  std::atomic<std::uint64_t> Produced{0}, Consumed{0};
  std::atomic<std::uint64_t> ProducedSum{0}, ConsumedSum{0};
  std::vector<std::thread> Workers;

  for (std::uint32_t P = 0; P < Producers; ++P)
    Workers.emplace_back([&, P] {
      FaultScope Faults(Chaos, P, Clock);
      std::vector<std::uint32_t> Buf(BatchSize);
      StartLine.arriveAndWait();
      std::uint64_t Count = 0, Sum = 0;
      for (std::uint64_t B = 0; B < BatchesPerProducer; ++B) {
        for (std::uint32_t I = 0; I < BatchSize; ++I)
          Buf[I] = static_cast<std::uint32_t>(
              (P * BatchesPerProducer + B) * BatchSize + I + 1);
        std::size_t Sent = 0;
        while (Sent < BatchSize) {
          const std::size_t Now =
              PushBatch(P, Buf.data() + Sent, BatchSize - Sent);
          for (std::size_t I = 0; I < Now; ++I)
            Sum += Buf[Sent + I];
          Count += Now;
          Sent += Now;
          if (Now == 0)
            std::this_thread::yield(); // Bag full: let consumers drain.
        }
      }
      Produced.fetch_add(Count, std::memory_order_relaxed);
      ProducedSum.fetch_add(Sum, std::memory_order_relaxed);
      LiveProducers.fetch_sub(1, std::memory_order_release);
    });

  for (std::uint32_t C = 0; C < Consumers; ++C)
    Workers.emplace_back([&, C] {
      const std::uint32_t Tid = Producers + C;
      FaultScope Faults(Chaos, Tid, Clock);
      std::vector<std::uint32_t> Buf(BatchSize);
      StartLine.arriveAndWait();
      std::uint64_t Count = 0, Sum = 0;
      while (true) {
        const std::size_t Got = PopBatch(Tid, Buf.data(), BatchSize);
        for (std::size_t I = 0; I < Got; ++I)
          Sum += Buf[I];
        Count += Got;
        if (Got == 0) {
          if (LiveProducers.load(std::memory_order_acquire) == 0)
            break; // Producers done and the bag answered Empty.
          std::this_thread::yield();
        }
      }
      Consumed.fetch_add(Count, std::memory_order_relaxed);
      ConsumedSum.fetch_add(Sum, std::memory_order_relaxed);
    });

  StartLine.arriveAndWait();
  const auto Begin = std::chrono::steady_clock::now();
  for (std::thread &W : Workers)
    W.join();
  const auto End = std::chrono::steady_clock::now();

  RunResult R;
  // Sweep stragglers: a consumer may have seen Empty just before the
  // last producer's final batch landed.
  Drain([&](std::uint64_t Count, std::uint64_t Sum) {
    Consumed.fetch_add(Count, std::memory_order_relaxed);
    ConsumedSum.fetch_add(Sum, std::memory_order_relaxed);
  });
  R.Produced = Produced.load();
  R.Consumed = Consumed.load();
  R.ProducedSum = ProducedSum.load();
  R.ConsumedSum = ConsumedSum.load();
  R.Seconds = std::chrono::duration<double>(End - Begin).count();
  return R;
}

void report(const char *Name, const RunResult &R) {
  std::cout << Name << ": " << R.Produced << " produced / " << R.Consumed
            << " consumed, checksums "
            << (R.balanced() ? "match" : "MISMATCH") << ", "
            << static_cast<std::uint64_t>(R.elementsPerSec())
            << " elements/s\n";
}

} // namespace

int main() {
  const std::uint32_t Threads = Producers + Consumers;

  // Baseline: plain Figure 3 stack, one seam crossing per element.
  ContentionSensitiveStack<> Fig3(Threads, Capacity);
  const RunResult PerElement = runTraffic(
      [&](std::uint32_t Tid, const std::uint32_t *Vs, std::size_t N) {
        std::size_t Done = 0;
        while (Done < N && Fig3.push(Tid, Vs[Done]) == PushResult::Done)
          ++Done;
        return Done;
      },
      [&](std::uint32_t Tid, std::uint32_t *Out, std::size_t N) {
        std::size_t Got = 0;
        while (Got < N) {
          const PopResult<std::uint32_t> R = Fig3.pop(Tid);
          if (!R.isValue())
            break;
          Out[Got++] = R.value();
        }
        return Got;
      },
      [&](auto Credit) {
        std::uint32_t Out[BatchSize];
        std::size_t Got;
        while ((Got = Fig3.pop_all(0, Out, BatchSize)) != 0) {
          std::uint64_t Sum = 0;
          for (std::size_t I = 0; I < Got; ++I)
            Sum += Out[I];
          Credit(Got, Sum);
        }
      });

  // Batched: flat-combining stack, one combiner record per batch.
  CombiningStack<> Combining(Threads, Capacity);
  const RunResult Batched = runTraffic(
      [&](std::uint32_t Tid, const std::uint32_t *Vs, std::size_t N) {
        return Combining.push_all(Tid, Vs, N);
      },
      [&](std::uint32_t Tid, std::uint32_t *Out, std::size_t N) {
        return Combining.pop_all(Tid, Out, N);
      },
      [&](auto Credit) {
        std::uint32_t Out[BatchSize];
        std::size_t Got;
        while ((Got = Combining.drain(0, Out, BatchSize)) != 0) {
          std::uint64_t Sum = 0;
          for (std::size_t I = 0; I < Got; ++I)
            Sum += Out[I];
          Credit(Got, Sum);
        }
      });

  report("fig3 per-element ", PerElement);
  report("combining batched", Batched);
  if (Batched.Seconds > 0.0 && PerElement.Seconds > 0.0)
    std::cout << "batched/per-element speedup: "
              << PerElement.Seconds / Batched.Seconds << "x (batch size "
              << BatchSize << ", " << Producers << "p/" << Consumers
              << "c)\n";

  if (!PerElement.balanced() || !Batched.balanced()) {
    std::cerr << "FAIL: traffic lost or duplicated elements\n";
    return 1;
  }
  std::cout << "OK: every element produced was consumed exactly once on "
               "both objects\n";
  return 0;
}
