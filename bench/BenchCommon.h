//===- bench/BenchCommon.h - Shared benchmark settings ----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every experiment binary shares: the sweep settings, the chaos
/// plan, the cell runner, and how a cell builds its object. A cell's
/// *maker* takes the cell's worker count and capacity and returns the
/// driver adapter (runtime/Driver.h) of a fresh object: Driven<Obj>
/// (runtime/PushPop.h), built from the object's own constructor
/// arguments. Setting CSOBJ_BENCH_QUICK=1 shrinks every sweep for smoke
/// runs.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BENCH_BENCHCOMMON_H
#define CSOBJ_BENCH_BENCHCOMMON_H

#include "conformance/Params.h"
#include "core/ContentionSensitiveStack.h"
#include "memory/RegisterPolicy.h"
#include "perf/AdaptiveShardedStack.h"
#include "perf/EliminatingStack.h"
#include "runtime/Driver.h"
#include "runtime/PushPop.h"
#include "runtime/SpinBarrier.h"
#include "runtime/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace csobj {
namespace bench {

/// Prints which register policy the binary's *default* instantiations
/// were compiled with (memory/RegisterPolicy.h). Every bench main calls
/// this first so saved logs are self-describing: an "instrumented" run
/// carries per-access counting overhead and is not comparable with a
/// "fast" run.
inline void printRegisterPolicy(std::ostream &OS) {
  OS << "default register policy: " << DefaultRegisterPolicy::Name;
  if (std::is_same_v<DefaultRegisterPolicy, Instrumented>)
    OS << " (rebuild with -DCSOBJ_FAST_REGISTERS=ON for fast)";
  OS << '\n';
}

/// True when CSOBJ_BENCH_QUICK=1: shrink sweeps for smoke runs.
inline bool quickMode() {
  const char *Env = std::getenv("CSOBJ_BENCH_QUICK");
  return Env != nullptr && Env[0] == '1';
}

/// Thread counts used by all sweep experiments.
inline std::vector<std::uint32_t> threadSweep() {
  if (quickMode())
    return {1, 2};
  return {1, 2, 4, 8};
}

/// Default operations per thread per cell.
inline std::uint64_t opsPerThread() { return quickMode() ? 5000 : 40000; }

/// Nanoseconds per call of \p Body run solo on the calling thread: a
/// steady_clock loop of a fixed number of calls, repeated five times,
/// median taken, so one preempted repeat does not set the result. E5 and
/// E6 time their solo round trips with it.
template <typename BodyFn> double soloNsPerCall(BodyFn Body) {
  const std::uint64_t Calls = quickMode() ? 20000 : 1000000;
  constexpr std::size_t Repeats = 5;
  std::vector<double> Samples;
  for (std::size_t R = 0; R < Repeats; ++R) {
    const auto T0 = std::chrono::steady_clock::now();
    for (std::uint64_t I = 0; I < Calls; ++I)
      Body();
    const std::chrono::duration<double, std::nano> Elapsed =
        std::chrono::steady_clock::now() - T0;
    Samples.push_back(Elapsed.count() / static_cast<double>(Calls));
  }
  std::nth_element(Samples.begin(), Samples.begin() + Repeats / 2,
                   Samples.end());
  return Samples[Repeats / 2];
}

//===----------------------------------------------------------------------===
// Makers: how a cell of Threads workers over Capacity builds its object
//===----------------------------------------------------------------------===

/// The maker of an adapter built from (Threads, Capacity): Driven<Obj>
/// for an object whose constructor takes those two, or a type below that
/// chooses its object's other arguments.
template <typename AdapterT>
AdapterT make(std::uint32_t Threads, std::uint32_t Capacity) {
  return AdapterT(Threads, Capacity);
}

/// The maker of an object whose operations take no process id: it is
/// built from the capacity alone.
template <typename ObjT>
Driven<ObjT> unthreaded(std::uint32_t, std::uint32_t Capacity) {
  return Driven<ObjT>(Capacity);
}

/// Elimination slots for a cell of \p Threads workers: they scale with
/// the threads so concurrent rendezvous spread.
inline std::uint32_t eliminationSlots(std::uint32_t Threads) {
  return Threads > 2 ? Threads / 2 : 1;
}

/// Figure 3 with the gated elimination window (perf/EliminatingStack.h).
inline Driven<EliminatingContentionSensitiveStack<>>
eliminatingStack(std::uint32_t Threads, std::uint32_t Capacity) {
  return Driven<EliminatingContentionSensitiveStack<>>(
      Threads, Capacity, eliminationSlots(Threads), /*SpinBudget=*/64);
}

/// N Figure 3 shards behind the bag facade with elimination balancing:
/// the adaptive facade (perf/AdaptiveShardedStack.h) built at its full
/// mask with the controller off, so the mask never moves. Capacity is
/// rounded down to a multiple of N.
template <std::uint32_t N>
Driven<AdaptiveShardedStack<N>> staticShards(std::uint32_t Threads,
                                             std::uint32_t Capacity) {
  return Driven<AdaptiveShardedStack<N>>(
      Threads, Capacity - Capacity % N, /*InitialShards=*/N,
      eliminationSlots(Threads), /*SpinBudget=*/64,
      ShardControllerConfig{.TickOps = 0});
}

/// Adaptive mask over eight Figure 3 shards driven by the obs control
/// loop (perf/AdaptiveShardedStack.h). Starts at one shard; the
/// controller widens the mask under lock-path pressure and retires
/// shards that sit idle while the load is shortcut-dominant, so E18 can
/// compare one object against every static shard count across load
/// phases. A type, not a function, because E15 soaks it
/// (soak::runSoak builds its adapter from (Workers, Capacity)).
struct AdaptiveShards : Driven<AdaptiveShardedStack<8>> {
  AdaptiveShards(std::uint32_t Threads, std::uint32_t Capacity)
      : Driven(Threads, Capacity - Capacity % 8, /*InitialShards=*/1,
               eliminationSlots(Threads), /*SpinBudget=*/64) {}
};

/// Unbounded contention-sensitive stack (Figure 3 over the chunked
/// reclaiming Figure 1). Capacity is ignored: the object grows and
/// shrinks with the live population; Full exists only at the
/// 65535-value envelope. A type for E15, as above.
struct UnboundedCsStack : Driven<ContentionSensitiveUnboundedStack<>> {
  UnboundedCsStack(std::uint32_t Threads, std::uint32_t /*Capacity*/)
      : Driven(Threads) {}
};

/// Operations an elimination window matched (a pair counts 2), for the
/// objects whose window reports them: the Figure 3 stack with the gated
/// window and the sharded facades.
template <typename ObjT>
  requires requires(const ObjT &O) { O.eliminationExchangesForTesting(); } ||
           requires(const ObjT &O) {
             O.rescue().array().exchangesForTesting();
           }
std::uint64_t exchanges(const ObjT &Obj) {
  if constexpr (requires { Obj.eliminationExchangesForTesting(); })
    return Obj.eliminationExchangesForTesting();
  else
    return Obj.rescue().array().exchangesForTesting();
}

/// Default asynchrony-injection level for contended sweeps: 10% yield
/// probability per shared access (FaultPlan::chaos). On a host with
/// fewer cores than threads this emulates the paper's asynchronous
/// interleaving; all implementations run under the identical plan.
inline constexpr std::uint32_t DefaultChaosPermille = 100;

/// The chaos plan of a sweep cell of \p Threads workers, its streams
/// drawn from \p Seed: \p YieldPermille yields on every thread, or what
/// the CSOBJ_CHAOS environment variable says when it is set. CSOBJ_CHAOS
/// holds comma-separated key=value pairs, keys "yield" (permille),
/// "stall" (permille), "grants" (stall length in foreign shared
/// accesses) and "victim" (thread id the stall channel targets; omit for
/// all threads), e.g.
///
///   CSOBJ_CHAOS="yield=100,stall=5,grants=2000" ./bench_starvation
///
/// Unknown keys are ignored; unset keys keep their defaults (yield
/// DefaultChaosPermille, no stalls). A solo cell gets an empty plan: the
/// noise emulates interleaving, which takes two threads.
inline FaultPlan chaosPlan(std::uint32_t Threads, std::uint64_t Seed,
                           std::uint32_t YieldPermille = DefaultChaosPermille) {
  std::uint32_t StallPermille = 0, Victim = FaultPlan::AllThreads;
  std::uint64_t StallGrants = 0;
  const char *Env = std::getenv("CSOBJ_CHAOS");
  if (Env != nullptr && Env[0] != '\0') {
    YieldPermille = DefaultChaosPermille;
    const char *P = Env;
    while (*P != '\0') {
      const char *KeyBegin = P;
      while (*P != '\0' && *P != '=' && *P != ',')
        ++P;
      const std::size_t KeyLen = static_cast<std::size_t>(P - KeyBegin);
      std::uint64_t Value = 0;
      if (*P == '=') {
        ++P;
        while (*P >= '0' && *P <= '9')
          Value = Value * 10 + static_cast<std::uint64_t>(*P++ - '0');
      }
      const auto Is = [&](const char *Key) {
        return KeyLen == std::char_traits<char>::length(Key) &&
               std::char_traits<char>::compare(KeyBegin, Key, KeyLen) == 0;
      };
      if (Is("yield"))
        YieldPermille = static_cast<std::uint32_t>(Value);
      else if (Is("stall"))
        StallPermille = static_cast<std::uint32_t>(Value);
      else if (Is("grants"))
        StallGrants = Value;
      else if (Is("victim"))
        Victim = static_cast<std::uint32_t>(Value);
      while (*P != '\0' && *P != ',')
        ++P;
      if (*P == ',')
        ++P;
    }
  }
  FaultPlan Plan;
  if (Threads > 1)
    Plan = FaultPlan::chaos(Threads, YieldPermille, StallPermille,
                            StallGrants, Victim);
  Plan.RateSeed = Seed;
  return Plan;
}

/// Runs \p Work(T) on \p Threads workers released together from a start
/// line, each under the cell's chaos plan drawn from \p Seed, and
/// returns the slowest worker's span in seconds. Spans are measured
/// worker-side from the release, so join-scheduling noise on an
/// oversubscribed host cannot shrink or stretch the window. The cells
/// that issue their own operations (E14, E16, E17) run on it.
template <typename WorkFn>
double runWorkers(std::uint32_t Threads, std::uint64_t Seed, WorkFn Work) {
  const FaultPlan Chaos = chaosPlan(Threads, Seed);
  FaultClock Clock;
  SpinBarrier StartLine(Threads + 1);
  std::vector<double> Span(Threads, 0.0);
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      FaultScope Faults(Chaos, T, Clock);
      StartLine.arriveAndWait();
      const auto Begin = std::chrono::steady_clock::now();
      Work(T);
      const std::chrono::duration<double> Took =
          std::chrono::steady_clock::now() - Begin;
      Span[T] = Took.count();
    });
  StartLine.arriveAndWait();
  for (std::thread &W : Workers)
    W.join();
  return *std::max_element(Span.begin(), Span.end());
}

/// Runs one sweep cell on \p Adapter, a runtime/Driver.h adapter
/// (usually a maker's): the closed loop with half the capacity prefilled,
/// under the chaos plan. The adapter outlives the run, so a bench can
/// read its object's own numbers afterwards. CSOBJ_CHAOS, when set,
/// overrides the compiled-in chaos level (see chaosPlan).
template <typename AdapterT>
WorkloadReport runCell(AdapterT &Adapter, std::uint32_t Threads,
                       std::uint32_t ThinkNs = 0,
                       std::uint32_t PushPercent = 50,
                       std::uint32_t Capacity = conformance::BenchCapacity,
                       std::uint32_t ChaosPermille = DefaultChaosPermille) {
  WorkloadConfig Config;
  Config.Threads = Threads;
  Config.OpsPerThread = opsPerThread();
  Config.PushPercent = PushPercent;
  Config.ThinkTimeNs = ThinkNs;
  Config.Capacity = Capacity;
  Config.PrefillPercent = 50;
  Config.Faults = chaosPlan(Threads, Config.Seed, ChaosPermille);
  return runClosedLoop(Adapter, Config);
}

} // namespace bench
} // namespace csobj

#endif // CSOBJ_BENCH_BENCHCOMMON_H
