//===- bench/BenchCommon.h - Shared benchmark adapters ----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adapters binding every stack/queue implementation to the generic
/// closed-loop driver (runtime/Driver.h), plus the shared sweep settings
/// used by all experiment binaries. Setting CSOBJ_BENCH_QUICK=1 shrinks
/// every sweep for smoke runs.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BENCH_BENCHCOMMON_H
#define CSOBJ_BENCH_BENCHCOMMON_H

#include "baselines/EliminationBackoffStack.h"
#include "baselines/LockedQueue.h"
#include "baselines/LockedStack.h"
#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
#include "core/AbortableQueue.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "core/CrashTolerantStack.h"
#include "core/NonBlockingQueue.h"
#include "core/NonBlockingStack.h"
#include "locks/McsLock.h"
#include "locks/TicketLock.h"
#include "perf/AdaptiveShardedStack.h"
#include "perf/CombiningObjects.h"
#include "perf/EliminatingStack.h"
#include "runtime/Driver.h"
#include "runtime/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
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
// Stack adapters (driver contract: apply + prefillOne)
//===----------------------------------------------------------------------===

inline OpOutcome fromPush(PushResult R) {
  switch (R) {
  case PushResult::Done:
    return OpOutcome::Ok;
  case PushResult::Full:
    return OpOutcome::Full;
  case PushResult::Abort:
    return OpOutcome::Abort;
  }
  return OpOutcome::Abort;
}

template <typename V>
OpOutcome fromPop(const PopResult<V> &R) {
  if (R.isValue())
    return OpOutcome::Ok;
  return R.isEmpty() ? OpOutcome::Empty : OpOutcome::Abort;
}

/// Figure 1: weak operations, aborts surface to the harness.
struct WeakStackAdapter {
  static constexpr const char *Name = "abortable(fig1)";
  WeakStackAdapter(std::uint32_t, std::uint32_t Capacity)
      : Stack(Capacity) {}
  OpOutcome apply(std::uint32_t, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.weakPush(V)) : fromPop(Stack.weakPop());
  }
  void prefillOne(std::uint32_t V) { (void)Stack.weakPush(V); }
  std::size_t footprintBytes() const {
    return sizeof(Stack) + Stack.heapBytes();
  }
  AbortableStack<> Stack;
};

/// Figure 2: non-blocking retry loop; retries are reported.
struct NonBlockingStackAdapter {
  static constexpr const char *Name = "non-blocking(fig2)";
  NonBlockingStackAdapter(std::uint32_t, std::uint32_t Capacity)
      : Stack(Capacity) {}
  OpOutcome apply(std::uint32_t, bool IsPush, std::uint32_t V,
                  std::uint64_t &Retries) {
    if (IsPush) {
      const auto R = Stack.pushCounting(V);
      Retries += R.Retries;
      return fromPush(R.Result);
    }
    const auto R = Stack.popCounting();
    Retries += R.Retries;
    return fromPop(R.Result);
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(V); }
  NonBlockingStack<> Stack;
};

/// Figure 2 with exponential backoff as the retry policy.
struct BackoffStackAdapter {
  static constexpr const char *Name = "non-blocking+backoff";
  BackoffStackAdapter(std::uint32_t, std::uint32_t Capacity)
      : Stack(Capacity) {}
  OpOutcome apply(std::uint32_t, bool IsPush, std::uint32_t V,
                  std::uint64_t &Retries) {
    if (IsPush) {
      const auto R = Stack.pushCounting(V);
      Retries += R.Retries;
      return fromPush(R.Result);
    }
    const auto R = Stack.popCounting();
    Retries += R.Retries;
    return fromPop(R.Result);
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(V); }
  NonBlockingStack<Compact64, ExponentialBackoff> Stack;
};

/// Figure 3: the paper's contention-sensitive starvation-free stack.
struct CsStackAdapter {
  static constexpr const char *Name = "contention-sensitive(fig3)";
  CsStackAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(Tid, V)) : fromPop(Stack.pop(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  obs::Path lastPath(std::uint32_t Tid) const { return Stack.lastPath(Tid); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  ContentionSensitiveStack<> Stack;
};

/// Treiber's lock-free stack.
struct TreiberStackAdapter {
  static constexpr const char *Name = "treiber";
  TreiberStackAdapter(std::uint32_t, std::uint32_t Capacity)
      : Stack(Capacity) {}
  OpOutcome apply(std::uint32_t, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(V)) : fromPop(Stack.pop());
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(V); }
  TreiberStack Stack;
};

/// Elimination-backoff stack.
struct EliminationStackAdapter {
  static constexpr const char *Name = "elimination";
  EliminationStackAdapter(std::uint32_t, std::uint32_t Capacity)
      : Stack(Capacity) {}
  OpOutcome apply(std::uint32_t, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(V)) : fromPop(Stack.pop());
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(V); }
  EliminationBackoffStack Stack;
};

/// Figure 3 with the gated elimination window (perf/EliminatingStack.h).
/// Slots scale with threads so concurrent rendezvous spread.
struct EliminatingCsStackAdapter {
  static constexpr const char *Name = "eliminating(fig3+elim)";
  EliminatingCsStackAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity, /*SlotCount=*/Threads > 2 ? Threads / 2 : 1,
              /*SpinBudget=*/64) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(Tid, V)) : fromPop(Stack.pop(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  std::uint64_t exchanges() const {
    return Stack.rescue().array().exchangesForTesting();
  }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  obs::Path lastPath(std::uint32_t Tid) const { return Stack.lastPath(Tid); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  EliminatingContentionSensitiveStack<> Stack;
};

/// Figure 3 fast path over the flat-combining slow path
/// (perf/CombiningSlowPath.h).
struct CombiningStackAdapter {
  static constexpr const char *Name = "combining(fig3+fc)";
  CombiningStackAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(Tid, V)) : fromPop(Stack.pop(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  std::uint64_t batches() {
    return Stack.skeleton().slowPath().batchesForTesting();
  }
  std::uint64_t combinedOps() {
    return Stack.skeleton().slowPath().combinedOpsForTesting();
  }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  obs::Path lastPath(std::uint32_t Tid) const { return Stack.lastPath(Tid); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  CombiningStack<> Stack;
};

/// N Figure 3 shards behind the bag facade with elimination balancing:
/// the adaptive facade (perf/AdaptiveShardedStack.h) built at its full
/// mask with the controller off, so the mask never moves. Capacity is
/// rounded down to a multiple of N.
template <std::uint32_t NumShards> struct StaticShardAdapter {
  StaticShardAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity - Capacity % NumShards,
              /*InitialShards=*/NumShards,
              /*SlotCount=*/Threads > 2 ? Threads / 2 : 1,
              /*SpinBudget=*/64, ShardControllerConfig{.TickOps = 0}) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(Tid, V)) : fromPop(Stack.pop(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  std::uint64_t exchanges() const {
    return Stack.eliminationExchangesForTesting();
  }
  // No lastPath: one facade op enters several shard skeletons, so a
  // single terminal path would be ambiguous.
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  AdaptiveShardedStack<NumShards> Stack;
};

/// Adaptive mask over eight Figure 3 shards driven by the obs control
/// loop (perf/AdaptiveShardedStack.h). Starts at one shard; the
/// controller widens the mask under lock-path pressure and retires
/// shards that sit idle while the load is shortcut-dominant, so E18 can
/// compare one object against every static shard count across load
/// phases.
struct AdaptiveStackAdapter {
  static constexpr const char *Name = "adaptive(<=8xfig3)";
  AdaptiveStackAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity - Capacity % 8, /*InitialShards=*/1,
              /*SlotCount=*/Threads > 2 ? Threads / 2 : 1,
              /*SpinBudget=*/64) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(Tid, V)) : fromPop(Stack.pop(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  std::uint64_t exchanges() const {
    return Stack.eliminationExchangesForTesting();
  }
  std::uint32_t activeShards() const { return Stack.activeShards(); }
  std::uint64_t reconfigEpoch() const { return Stack.reconfigEpoch(); }
  // No lastPath, for the same reason as StaticShardAdapter.
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  AdaptiveShardedStack<8> Stack;
};

/// Crash-tolerant Figure 3 (core/CrashTolerantStack.h): leased lock,
/// recoverable doorway, lock-free fallback. Exposes the degradation
/// stats so benches can report how often the slow path fell back.
struct CrashTolerantStackAdapter {
  static constexpr const char *Name = "crash-tolerant(fig3+leases)";
  CrashTolerantStackAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity) {}
  CrashTolerantStackAdapter(std::uint32_t Threads, std::uint32_t Capacity,
                            std::uint32_t Patience)
      : Stack(Threads, Capacity, Patience) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(Tid, V)) : fromPop(Stack.pop(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  DegradationStats stats() const {
    return Stack.skeleton().slowPath().lock().statsForTesting();
  }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  obs::Path lastPath(std::uint32_t Tid) const { return Stack.lastPath(Tid); }
  CrashTolerantStack<> Stack;
};

/// Unbounded contention-sensitive stack (Figure 3 over the chunked
/// reclaiming Figure 1). Capacity is ignored — the object grows and
/// shrinks with the live population; Full exists only at the 65535-value
/// envelope. Exposes the hazard domain so benches can report retire
/// backlog and resident bytes alongside throughput.
struct UnboundedCsStackAdapter {
  static constexpr const char *Name = "unbounded-cs(fig3+hp)";
  UnboundedCsStackAdapter(std::uint32_t Threads, std::uint32_t /*Capacity*/)
      : Stack(Threads) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(Tid, V)) : fromPop(Stack.pop(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  obs::PathSnapshot pathSnapshot() const { return Stack.pathSnapshot(); }
  obs::Path lastPath(std::uint32_t Tid) const { return Stack.lastPath(Tid); }
  std::size_t footprintBytes() const { return Stack.footprintBytes(); }
  HazardDomain &domain() { return Stack.abortable().domain(); }
  ContentionSensitiveUnboundedStack<> Stack;
};

/// Coarse lock-based stack, parametric in the lock.
template <typename Lock>
struct LockedStackAdapter {
  static constexpr const char *Name = "locked";
  LockedStackAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Stack.push(Tid, V)) : fromPop(Stack.pop(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Stack.push(0, V); }
  LockedStack<Lock> Stack;
};

//===----------------------------------------------------------------------===
// Queue adapters
//===----------------------------------------------------------------------===

struct WeakQueueAdapter {
  static constexpr const char *Name = "abortable-queue";
  WeakQueueAdapter(std::uint32_t, std::uint32_t Capacity)
      : Queue(Capacity) {}
  OpOutcome apply(std::uint32_t, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Queue.weakEnqueue(V))
                  : fromPop(Queue.weakDequeue());
  }
  void prefillOne(std::uint32_t V) { (void)Queue.weakEnqueue(V); }
  AbortableQueue<> Queue;
};

struct NonBlockingQueueAdapter {
  static constexpr const char *Name = "non-blocking-queue";
  NonBlockingQueueAdapter(std::uint32_t, std::uint32_t Capacity)
      : Queue(Capacity) {}
  OpOutcome apply(std::uint32_t, bool IsPush, std::uint32_t V,
                  std::uint64_t &Retries) {
    if (IsPush) {
      const auto R = Queue.enqueueCounting(V);
      Retries += R.Retries;
      return fromPush(R.Result);
    }
    const auto R = Queue.dequeueCounting();
    Retries += R.Retries;
    return fromPop(R.Result);
  }
  void prefillOne(std::uint32_t V) { (void)Queue.enqueue(V); }
  NonBlockingQueue<> Queue;
};

struct CsQueueAdapter {
  static constexpr const char *Name = "cs-queue(fig3)";
  CsQueueAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Queue(Threads, Capacity) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Queue.enqueue(Tid, V))
                  : fromPop(Queue.dequeue(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Queue.enqueue(0, V); }
  obs::PathSnapshot pathSnapshot() const { return Queue.pathSnapshot(); }
  obs::Path lastPath(std::uint32_t Tid) const { return Queue.lastPath(Tid); }
  std::size_t footprintBytes() const { return Queue.footprintBytes(); }
  ContentionSensitiveQueue<> Queue;
};

struct MsQueueAdapter {
  static constexpr const char *Name = "michael-scott";
  MsQueueAdapter(std::uint32_t, std::uint32_t Capacity) : Queue(Capacity) {}
  OpOutcome apply(std::uint32_t, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Queue.enqueue(V)) : fromPop(Queue.dequeue());
  }
  void prefillOne(std::uint32_t V) { (void)Queue.enqueue(V); }
  MichaelScottQueue Queue;
};

template <typename Lock>
struct LockedQueueAdapter {
  static constexpr const char *Name = "locked-queue";
  LockedQueueAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Queue(Threads, Capacity) {}
  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                  std::uint64_t &) {
    return IsPush ? fromPush(Queue.enqueue(Tid, V))
                  : fromPop(Queue.dequeue(Tid));
  }
  void prefillOne(std::uint32_t V) { (void)Queue.enqueue(0, V); }
  LockedQueue<Lock> Queue;
};

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

/// Like runCell below but drives a caller-supplied adapter, so
/// per-object state (e.g. degradation counters on
/// CrashTolerantStackAdapter) survives the run for reporting.
template <typename AdapterT>
WorkloadReport runCellOn(AdapterT &Adapter, std::uint32_t Threads,
                         std::uint32_t ChaosPermille = DefaultChaosPermille,
                         std::uint32_t ThinkNs = 0,
                         std::uint32_t PushPercent = 50,
                         std::uint32_t Capacity = 4096) {
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

/// Runs one sweep cell: fresh adapter, closed loop, returns the report.
/// CSOBJ_CHAOS, when set, overrides the compiled-in chaos level for
/// every cell (chaos mode without recompiling).
template <typename AdapterT>
WorkloadReport runCell(std::uint32_t Threads, std::uint32_t ThinkNs = 0,
                       std::uint32_t PushPercent = 50,
                       std::uint32_t Capacity = 4096,
                       std::uint32_t ChaosPermille = DefaultChaosPermille) {
  AdapterT Adapter(Threads, Capacity);
  return runCellOn(Adapter, Threads, ChaosPermille, ThinkNs, PushPercent,
                   Capacity);
}

} // namespace bench
} // namespace csobj

#endif // CSOBJ_BENCH_BENCHCOMMON_H
