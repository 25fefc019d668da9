//===- runtime/Driver.h - Generic closed-loop workload driver ---*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generic multi-threaded closed-loop driver used by stress tests and
/// every benchmark binary. It is templated over an *object adapter* so
/// that all stack/queue variants (Figures 1-3, the baselines, the
/// lock-based versions) are exercised by byte-identical harness code.
/// Driven<Obj> (runtime/PushPop.h) is that adapter for any stack, queue,
/// bag or deque; no caller writes its own.
///
/// Adapter contract:
///
///   struct Adapter {
///     // Perform one operation. IsPush selects push/enqueue vs
///     // pop/dequeue. Returns the outcome; adds any internal retry
///     // count to RetriesOut.
///     OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t
///                     Value, std::uint64_t &RetriesOut);
///     // Pre-populate with one element (called single-threaded).
///     void prefillOne(std::uint32_t Value);
///   };
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_RUNTIME_DRIVER_H
#define CSOBJ_RUNTIME_DRIVER_H

#include "faults/FaultInjector.h"
#include "runtime/SpinBarrier.h"
#include "runtime/Watchdog.h"
#include "runtime/Workload.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace csobj {

/// Runs the closed-loop workload described by \p Config against
/// \p Adapter and returns per-thread tallies plus wall-clock duration.
/// Values pushed are drawn from a per-thread stream and kept below 2^31
/// so every codec and baseline can hold them.
template <typename AdapterT>
WorkloadReport runClosedLoop(AdapterT &Adapter, const WorkloadConfig &Config) {
  // Single-threaded prefill so pops do not trivially return empty.
  const std::uint64_t PrefillCount =
      static_cast<std::uint64_t>(Config.Capacity) * Config.PrefillPercent /
      100;
  SplitMix64 PrefillRng(Config.Seed ^ 0xfeedfacecafebeefull);
  for (std::uint64_t I = 0; I < PrefillCount; ++I)
    Adapter.prefillOne(static_cast<std::uint32_t>(PrefillRng.below(1u << 31)));

  WorkloadReport Report;
  Report.PerThread.resize(Config.Threads);

  SpinBarrier StartLine(Config.Threads + 1);
  std::vector<std::thread> Workers;
  Workers.reserve(Config.Threads);

  // Shared access clock for the fault plan, and the liveness watchdog
  // (runtime/Watchdog.h). Both are inert when unconfigured.
  FaultClock Clock;
  Watchdog Dog(Config.Threads, Config.OpDeadlineNs);
  // When the adapter can attribute operations to paths, let stuck-op
  // reports carry the wedged thread's last completed path as a hint.
  if constexpr (requires { Adapter.lastPath(std::uint32_t{0}); })
    Dog.setPathProbe([&Adapter](std::uint32_t T) { return Adapter.lastPath(T); });
  Dog.start();

  for (std::uint32_t Tid = 0; Tid < Config.Threads; ++Tid) {
    Workers.emplace_back([&, Tid] {
      ThreadReport &Mine = Report.PerThread[Tid];
      SplitMix64 Rng = SplitMix64(Config.Seed).split(Tid);
      // Planned faults and asynchrony noise (faults/FaultPlan.h), if any.
      FaultScope Faults(Config.Faults, Tid, Clock);
      StartLine.arriveAndWait();
      for (std::uint64_t Op = 0; Op < Config.OpsPerThread; ++Op) {
        const bool IsPush = Rng.chance(Config.PushPercent, 100);
        const std::uint32_t Value =
            static_cast<std::uint32_t>(Rng.below(1u << 31));
        const auto Begin = std::chrono::steady_clock::now();
        std::uint64_t Retries = 0;
        OpOutcome Outcome;
        Dog.arm(Tid);
        try {
          Outcome = Adapter.apply(Tid, IsPush, Value, Retries);
        } catch (const ProcessCrash &) {
          // Crash-stop: the thread is gone mid-operation. Keep partial
          // tallies; survivors' progress is what liveness tests assert.
          Dog.disarm(Tid);
          Mine.Crashed = true;
          break;
        }
        Dog.disarm(Tid);
        const auto End = std::chrono::steady_clock::now();
        const std::uint64_t LatencyNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(End - Begin)
                .count());
        Mine.Latency.record(LatencyNs);
        // Route the same sample into the per-path histogram when the
        // adapter can say which path just retired this thread's op.
        if constexpr (requires { Adapter.lastPath(Tid); }) {
          const auto P = static_cast<unsigned>(Adapter.lastPath(Tid));
          Mine.PathLatency[std::min(P, obs::NumPaths)].record(LatencyNs);
        }
        Mine.Retries += Retries;
        switch (Outcome) {
        case OpOutcome::Ok:
          if (IsPush)
            ++Mine.Pushes;
          else
            ++Mine.Pops;
          break;
        case OpOutcome::Full:
          ++Mine.Fulls;
          break;
        case OpOutcome::Empty:
          ++Mine.Empties;
          break;
        case OpOutcome::Abort:
          ++Mine.Aborts;
          break;
        }
        spinThink(Config.ThinkTimeNs);
      }
    });
  }

  const auto RunBegin = std::chrono::steady_clock::now();
  StartLine.arriveAndWait();
  for (std::thread &Worker : Workers)
    Worker.join();
  const auto RunEnd = std::chrono::steady_clock::now();
  Dog.stop();
  Report.StuckOps = Dog.stuckCount();
  Report.DurationSec =
      std::chrono::duration_cast<std::chrono::duration<double>>(RunEnd -
                                                                RunBegin)
          .count();
  return Report;
}

} // namespace csobj

#endif // CSOBJ_RUNTIME_DRIVER_H
