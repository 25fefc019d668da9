//===- soak/SoakHarness.h - Service-mode soak harness -----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Long-running service-mode harness: the layer that checks the paper's
/// constructions survive *sustained* adversarial traffic, not just a
/// fixed-op batch. It composes the pieces the repo already has —
/// Driver-style worker loops, Watchdog liveness, the SchedHook fault
/// channel, PathSnapshot conservation — into an open-loop service:
///
///   generator thread --> bounded arrival queue --> worker pool
///        (ArrivalStream         (backlog and shed      (object-instance
///         replayed in            are *visible*          pool, hot keys,
///         real time)             overload)              resurrection)
///
/// plus a CampaignRunner posting recurring crash/stall faults into the
/// workers' fault injectors and a windowed collector freezing
/// WindowStats every WindowSec. Three properties distinguish this from
/// the closed loop:
///
///  * Overload is observable: arrivals are generated on schedule whether
///    or not workers keep up; the queue grows, then sheds, and both
///    numbers land in the window record. Sojourn latency is measured
///    from the *nominal* arrival instant (coordinated-omission-free) and
///    splits per op into generator lag, queue wait and service.
///  * Crashed workers resurrect: a campaign crash unwinds the worker's
///    current operation (ProcessCrash), and the worker re-enters its
///    loop under the same thread id — continuously exercising the
///    RecoverableArbiter reclamation and degraded-path machinery that a
///    one-shot crash test touches once.
///  * Accounting is checked, not trusted: every window re-verifies the
///    bounded conservation law over cumulative path counters, and the
///    final quiesce asserts the tight form (see soak/Slo.h).
///
/// runSoak() returns a SoakReport: the window series, whole-run
/// histograms and totals, and the SloVerdict for the policy in the
/// config. bench_soak serialises it into BENCH_soak.json.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_SOAK_SOAKHARNESS_H
#define CSOBJ_SOAK_SOAKHARNESS_H

#include "memory/SchedHook.h"
#include "runtime/Watchdog.h"
#include "soak/ArrivalSchedule.h"
#include "soak/FaultCampaign.h"
#include "soak/Slo.h"
#include "support/SplitMix64.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <ctime>
#include <linux/futex.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace csobj {
namespace soak {

/// Everything a soak run needs. The adapter type is a template
/// parameter of runSoak(); it must satisfy the Driver adapter contract
/// (apply + prefillOne) with an (NumThreads, Capacity) constructor.
struct SoakConfig {
  std::uint32_t Workers = 2;
  std::uint32_t Capacity = 4096;      ///< Per object instance.
  std::uint32_t PrefillPercent = 50;  ///< Of capacity, per instance.
  double DurationSec = 10.0;
  double WindowSec = 1.0;
  std::uint64_t Seed = 42;
  /// Backlog bound: arrivals beyond this queue depth are shed (counted,
  /// not silently dropped).
  std::size_t QueueCapacity = 1u << 16;
  /// Per-operation liveness deadline (runtime/Watchdog.h); 0 disables.
  std::uint64_t OpDeadlineNs = 0;
  /// Faults keyed to each worker's shared accesses (faults/FaultPlan.h),
  /// run by the worker's injector beside the campaign's posts, e.g.
  /// FaultPlan::chaos yield noise. Empty = none.
  FaultPlan AccessFaults;

  ArrivalSchedule Schedule;
  Campaign Faults;
  SloPolicy Slo;
};

/// Finished-run report: window series + whole-run aggregates + verdict.
struct SoakReport {
  std::vector<WindowStats> Windows;
  double DurationSec = 0;

  std::uint64_t TotalArrivals = 0;
  std::uint64_t TotalCompleted = 0;
  std::uint64_t TotalShed = 0;
  std::uint64_t TotalCrashes = 0; ///< Executed (fired) crashes.
  std::uint64_t TotalStalls = 0;  ///< Executed stalls (yields excluded).
  std::uint64_t TotalStuckOps = 0;
  std::uint64_t CrashesPosted = 0;
  std::uint64_t StallsPosted = 0;

  obs::PathSnapshot FinalPaths; ///< Pool-wide cumulative, at quiesce.
  bool FinalConserves = true;   ///< Tight conservation at quiesce.

  LatencyHistogram RunSojourn;
  LatencyHistogram RunGenLag;
  LatencyHistogram RunQueueWait;
  LatencyHistogram RunService;
  LatencyHistogram RunPathLatency[obs::NumPaths + 1];

  SloVerdict Verdict;

  double throughputOpsPerSec() const {
    return DurationSec > 0
               ? static_cast<double>(TotalCompleted) / DurationSec
               : 0.0;
  }
};

namespace detail {

/// Bounded MPMC arrival queue. The generator pushes each wake-up's due
/// arrivals in one batch; workers pop with a short timeout so they can
/// notice shutdown. Arrivals beyond capacity are shed and counted — in an
/// open-loop harness losing track of dropped load would turn overload
/// back into silence.
///
/// Wake-up rule: a worker that finds the queue empty counts itself
/// parked, under the mutex, and sleeps on a wake word; pushBatch wakes
/// one parked worker, so a generator wake-up costs at most one wake, and
/// none (no syscall) when every worker is busy. On Linux the wake word
/// is a futex, whose wake never blocks the caller. glibc's
/// pthread_cond_signal can block until an earlier woken waiter has run,
/// which with every CPU busy held the generator for up to a scheduler
/// tick (~1 ms); see DESIGN.md "Soak harness".
class ArrivalQueue {
public:
  explicit ArrivalQueue(std::size_t Capacity) : Capacity(Capacity) {}

  /// Enqueues what fits; returns how many were shed.
  std::size_t pushBatch(const std::vector<Arrival> &Batch) {
    std::size_t ShedNow = 0;
    bool Wake = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      for (const Arrival &A : Batch) {
        if (Queue.size() >= Capacity) {
          ++ShedNow;
          continue;
        }
        Queue.push_back(A);
      }
      ShedTotal += ShedNow;
      Wake = Parked != 0;
    }
    if (Wake)
      wake(1);
    return ShedNow;
  }

  /// Pops one arrival, parking on an empty queue until a push or close
  /// wakes it (at most 1 ms on Linux). False on timeout or when the
  /// queue is closed and drained (check drained()).
  bool pop(Arrival &Out) {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Queue.empty() && !Closed) {
      // Read under the mutex: a push that sees this worker parked bumps
      // the word after, so the sleep below cannot miss its wake.
      const std::uint32_t Seen = WakeWord.load(std::memory_order_relaxed);
      ++Parked;
      Lock.unlock();
      sleepWhile(Seen);
      Lock.lock();
      --Parked;
    }
    if (Queue.empty())
      return false;
    Out = Queue.front();
    Queue.pop_front();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Closed = true;
    }
    wake(AllWaiters);
  }

  bool drained() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Closed && Queue.empty();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Queue.size();
  }

  std::uint64_t shedTotal() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return ShedTotal;
  }

private:
  static constexpr int AllWaiters = 1 << 30;

  /// Sleeps while the wake word still reads \p Seen: at most 1 ms on
  /// Linux, until the next wake elsewhere.
  void sleepWhile(std::uint32_t Seen) {
#ifdef __linux__
    const timespec Timeout{0, 1000 * 1000};
    syscall(SYS_futex, futexWord(), FUTEX_WAIT_PRIVATE, Seen, &Timeout,
            nullptr, 0);
#else
    WakeWord.wait(Seen, std::memory_order_relaxed);
#endif
  }

  void wake(int Waiters) {
    WakeWord.fetch_add(1, std::memory_order_relaxed);
#ifdef __linux__
    syscall(SYS_futex, futexWord(), FUTEX_WAKE_PRIVATE, Waiters, nullptr,
            nullptr, 0);
#else
    if (Waiters == 1)
      WakeWord.notify_one();
    else
      WakeWord.notify_all();
#endif
  }

#ifdef __linux__
  std::uint32_t *futexWord() {
    static_assert(sizeof(WakeWord) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free);
    return reinterpret_cast<std::uint32_t *>(&WakeWord);
  }
#endif

  const std::size_t Capacity;
  mutable std::mutex Mutex;
  std::deque<Arrival> Queue;
  std::uint64_t ShedTotal = 0;
  std::uint32_t Parked = 0; ///< Workers asleep, or about to be, on WakeWord.
  bool Closed = false;
  std::atomic<std::uint32_t> WakeWord{0};
};

/// Per-worker measurement cell, swapped out by the collector once per
/// window. The mutex is essentially uncontended (one worker, one
/// once-a-second collector), so recording stays cheap.
struct WorkerCell {
  std::mutex Mutex;
  LatencyHistogram Sojourn;
  LatencyHistogram GenLag;
  LatencyHistogram QueueWait;
  LatencyHistogram Service;
  LatencyHistogram PathLatency[obs::NumPaths + 1];
  std::uint64_t Completed = 0;

  void drainInto(WindowStats &W) {
    std::lock_guard<std::mutex> Lock(Mutex);
    W.Completed += Completed;
    W.Sojourn.merge(Sojourn);
    W.GenLag.merge(GenLag);
    W.QueueWait.merge(QueueWait);
    W.Service.merge(Service);
    for (unsigned P = 0; P <= obs::NumPaths; ++P)
      W.PathLatency[P].merge(PathLatency[P]);
    Completed = 0;
    Sojourn.reset();
    GenLag.reset();
    QueueWait.reset();
    Service.reset();
    for (unsigned P = 0; P <= obs::NumPaths; ++P)
      PathLatency[P].reset();
  }
};

} // namespace detail

/// Runs the soak described by \p Config against a pool of AdapterT
/// instances (one per schedule key) and returns the full report. Blocks
/// for ~Config.DurationSec.
template <typename AdapterT>
SoakReport runSoak(const SoakConfig &Config) {
  using SteadyClock = std::chrono::steady_clock;
  const std::uint32_t Workers = Config.Workers;
  const std::uint32_t Keys = Config.Schedule.Keys ? Config.Schedule.Keys : 1;

  // Object-instance pool, prefilled single-threaded (no hooks installed
  // yet, so prefill cannot be faulted).
  std::vector<std::unique_ptr<AdapterT>> Pool;
  Pool.reserve(Keys);
  SplitMix64 PrefillRng(Config.Seed ^ 0xfeedfacecafebeefull);
  for (std::uint32_t K = 0; K < Keys; ++K) {
    Pool.push_back(std::make_unique<AdapterT>(Workers, Config.Capacity));
    const std::uint64_t PrefillCount =
        static_cast<std::uint64_t>(Config.Capacity) * Config.PrefillPercent /
        100;
    for (std::uint64_t I = 0; I < PrefillCount; ++I)
      Pool.back()->prefillOne(
          static_cast<std::uint32_t>(PrefillRng.below(1u << 31)));
  }

  auto poolSnapshot = [&] {
    obs::PathSnapshot S;
    for (const auto &A : Pool)
      if constexpr (requires { A->pathSnapshot(); })
        S += A->pathSnapshot();
    return S;
  };

  detail::ArrivalQueue Queue(Config.QueueCapacity);
  std::vector<std::unique_ptr<detail::WorkerCell>> Cells;
  std::vector<std::unique_ptr<FaultInjector>> Injectors;
  FaultClock Clock;
  for (std::uint32_t T = 0; T < Workers; ++T) {
    Cells.push_back(std::make_unique<detail::WorkerCell>());
    Injectors.push_back(
        std::make_unique<FaultInjector>(Config.AccessFaults, T, Clock));
  }

  // Each worker's most recent key: lets the watchdog's path probe ask
  // the right pool instance about a wedged worker's last completed path.
  std::unique_ptr<std::atomic<std::uint32_t>[]> LastKey(
      new std::atomic<std::uint32_t>[Workers]);
  for (std::uint32_t T = 0; T < Workers; ++T)
    LastKey[T].store(0, std::memory_order_relaxed);

  Watchdog Dog(Workers, Config.OpDeadlineNs);
  if constexpr (requires(AdapterT &A) { A.lastPath(std::uint32_t{0}); })
    Dog.setPathProbe([&](std::uint32_t T) {
      return Pool[LastKey[T].load(std::memory_order_relaxed)]->lastPath(T);
    });
  Dog.start();

  std::vector<FaultInjector *> Victims;
  for (auto &I : Injectors)
    Victims.push_back(I.get());
  CampaignRunner Campaigns(Config.Faults, std::move(Victims));

  std::atomic<bool> StopGenerator{false};
  std::atomic<std::uint64_t> ArrivalsGenerated{0};
  const SteadyClock::time_point Origin = SteadyClock::now();
  auto elapsedNs = [Origin] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - Origin)
            .count());
  };

  // Generator: replays the deterministic stream in real time. It sleeps
  // until the next arrival's nominal instant (at most 1 ms, so a stop
  // request is noticed), then pushes everything due by "now" under one
  // queue lock, each arrival stamped with that clock read as its enqueue
  // time. Nominal timestamps ride along untouched. Linux's default 50 us
  // timer slack would stretch every sleep to ~55 us and release a clump
  // of arrivals per wake-up, so the generator asks for 1 ns.
  std::thread Generator([&] {
#ifdef __linux__
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
    ArrivalStream Stream(Config.Schedule, Config.Seed);
    Arrival Next = Stream.next();
    std::vector<Arrival> Batch;
    while (!StopGenerator.load(std::memory_order_relaxed)) {
      const std::uint64_t Now = elapsedNs();
      if (Next.NominalNs > Now) {
        const std::uint64_t GapNs = Next.NominalNs - Now;
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::uint64_t>(GapNs, 1000 * 1000)));
        continue;
      }
      Batch.clear();
      while (Next.NominalNs <= Now) {
        Next.EnqueueNs = Now;
        Batch.push_back(Next);
        Next = Stream.next();
      }
      ArrivalsGenerated.fetch_add(Batch.size(), std::memory_order_relaxed);
      Queue.pushBatch(Batch);
    }
  });

  std::vector<std::thread> WorkerThreads;
  WorkerThreads.reserve(Workers);
  for (std::uint32_t Tid = 0; Tid < Workers; ++Tid) {
    WorkerThreads.emplace_back([&, Tid] {
      SchedHookScope Scope(*Injectors[Tid]);
      detail::WorkerCell &Cell = *Cells[Tid];
      Arrival A;
      while (true) {
        if (!Queue.pop(A)) {
          if (Queue.drained())
            break;
          continue;
        }
        LastKey[Tid].store(A.Key, std::memory_order_relaxed);
        AdapterT &Obj = *Pool[A.Key];
        std::uint64_t Retries = 0;
        Dog.arm(Tid);
        const std::uint64_t BeginNs = elapsedNs();
        bool Crashed = false;
        try {
          (void)Obj.apply(Tid, A.IsPush, A.Value, Retries);
        } catch (const ProcessCrash &) {
          // Crash-stop, then resurrection: the "process" dies here and a
          // new one with the same id re-enters the loop — the scenario
          // the RecoverableArbiter's reclamation exists for. The
          // abandoned operation entered the path counters but never
          // retired; the conservation bound accounts for it.
          Crashed = true;
        }
        Dog.disarm(Tid);
        if (Crashed)
          continue;
        const std::uint64_t EndNs = elapsedNs();
        std::lock_guard<std::mutex> Lock(Cell.Mutex);
        ++Cell.Completed;
        Cell.GenLag.record(A.EnqueueNs - A.NominalNs);
        Cell.QueueWait.record(BeginNs - A.EnqueueNs);
        Cell.Service.record(EndNs - BeginNs);
        Cell.Sojourn.record(EndNs - A.NominalNs);
        if constexpr (requires { Obj.lastPath(Tid); }) {
          const auto P = static_cast<unsigned>(Obj.lastPath(Tid));
          Cell.PathLatency[std::min(P, obs::NumPaths)].record(EndNs -
                                                              BeginNs);
        }
      }
    });
  }

  Campaigns.start();

  // Collector: freeze one WindowStats per WindowSec until the soak
  // duration elapses. Deltas come from cumulative counters so a slow
  // collector tick never loses events, only shifts them a window.
  SoakReport Report;
  const std::uint64_t WindowNs =
      static_cast<std::uint64_t>(Config.WindowSec * 1e9);
  const std::uint64_t DurationNs =
      static_cast<std::uint64_t>(Config.DurationSec * 1e9);
  obs::PathSnapshot PrevPaths;
  std::uint64_t PrevArrivals = 0, PrevShed = 0;
  std::uint64_t PrevCrashes = 0, PrevStalls = 0;
  std::uint64_t PrevWindowEndNs = 0;

  auto fired = [&](FaultKind Kind) {
    std::uint64_t N = 0;
    for (const auto &I : Injectors)
      N += I->fired(Kind);
    return N;
  };

  auto collectWindow = [&](std::uint64_t Index) {
    WindowStats W;
    W.Index = Index;
    const std::uint64_t NowNs = elapsedNs();
    W.StartSec = static_cast<double>(PrevWindowEndNs) * 1e-9;
    W.DurationSec = static_cast<double>(NowNs - PrevWindowEndNs) * 1e-9;
    PrevWindowEndNs = NowNs;

    for (auto &Cell : Cells)
      Cell->drainInto(W);

    const std::uint64_t Arrivals =
        ArrivalsGenerated.load(std::memory_order_relaxed);
    const std::uint64_t Shed = Queue.shedTotal();
    const std::uint64_t Crashes = fired(FaultKind::CrashStop);
    const std::uint64_t Stalls = fired(FaultKind::Stall);
    W.Arrivals = Arrivals - PrevArrivals;
    W.Shed = Shed - PrevShed;
    W.Crashes = Crashes - PrevCrashes;
    W.Stalls = Stalls - PrevStalls;
    PrevArrivals = Arrivals;
    PrevShed = Shed;
    PrevCrashes = Crashes;
    PrevStalls = Stalls;
    W.Backlog = Queue.depth();
    W.StuckOps = Dog.drainReports().size();

    const obs::PathSnapshot Cum = poolSnapshot();
    W.Paths = Cum;
    for (unsigned I = 0; I < obs::NumPaths; ++I)
      W.Paths.Paths[I] -= PrevPaths.Paths[I];
    for (unsigned I = 0; I < obs::NumEvents; ++I)
      W.Paths.Events[I] -= PrevPaths.Events[I];
    for (unsigned I = 0; I < obs::NumBatchBuckets; ++I)
      W.Paths.BatchBuckets[I] -= PrevPaths.BatchBuckets[I];
    W.Paths.Ops = Cum.Ops - PrevPaths.Ops;
    W.Paths.OpsBefore = Cum.OpsBefore - PrevPaths.OpsBefore;
    W.Paths.BatchOps = Cum.BatchOps - PrevPaths.BatchOps;
    PrevPaths = Cum;

    // Bounded mid-run conservation over cumulative counters: no op
    // retires before it enters, and the gap between entered and retired
    // operations is at most one in-flight op per worker plus one
    // abandoned op per executed crash. The snapshot reads entries before
    // and after the retirements; each half of the check uses its read.
    const std::uint64_t Retired = Cum.pathTotal();
    W.Conserves = Retired <= Cum.Ops &&
                  (Cum.OpsBefore <= Retired ||
                   Cum.OpsBefore - Retired <= Workers + Crashes);

    Report.RunSojourn.merge(W.Sojourn);
    Report.RunGenLag.merge(W.GenLag);
    Report.RunQueueWait.merge(W.QueueWait);
    Report.RunService.merge(W.Service);
    for (unsigned P = 0; P <= obs::NumPaths; ++P)
      Report.RunPathLatency[P].merge(W.PathLatency[P]);
    Report.TotalCompleted += W.Completed;
    Report.TotalStuckOps += W.StuckOps;
    Report.Windows.push_back(std::move(W));
  };

  std::uint64_t WindowIndex = 0;
  while (true) {
    const std::uint64_t TargetNs =
        std::min<std::uint64_t>((WindowIndex + 1) * WindowNs, DurationNs);
    std::this_thread::sleep_until(Origin +
                                  std::chrono::nanoseconds(TargetNs));
    collectWindow(WindowIndex++);
    if (TargetNs >= DurationNs)
      break;
  }

  // Shutdown: silence the campaign, stop generating, drain the queue,
  // then quiesce and take the exact accounting.
  Campaigns.stop();
  StopGenerator.store(true, std::memory_order_relaxed);
  Generator.join();
  Queue.close();
  for (std::thread &T : WorkerThreads)
    T.join();
  Dog.stop();

  // Post-join drain: the workers cleared the backlog after the last
  // timed window; fold that tail into a final window so completed-op
  // totals match the arrival totals (minus shed and crash-abandoned).
  collectWindow(WindowIndex);

  Report.DurationSec = static_cast<double>(elapsedNs()) * 1e-9;
  Report.TotalArrivals = ArrivalsGenerated.load(std::memory_order_relaxed);
  Report.TotalShed = Queue.shedTotal();
  Report.TotalCrashes = fired(FaultKind::CrashStop);
  Report.TotalStalls = fired(FaultKind::Stall);
  Report.CrashesPosted = Campaigns.crashesPosted();
  Report.StallsPosted = Campaigns.stallsPosted();
  Report.FinalPaths = poolSnapshot();
  // Quiesced: no in-flight ops, so the only legitimate gap between
  // entered and retired operations is one abandoned op per crash.
  const std::uint64_t Entered = Report.FinalPaths.Ops;
  const std::uint64_t Retired = Report.FinalPaths.pathTotal();
  const std::uint64_t Gap = Entered >= Retired ? Entered - Retired : 0;
  Report.FinalConserves =
      Entered >= Retired && Gap <= Report.TotalCrashes;

  Report.Verdict = evaluateSlo(Config.Slo, Report.Windows, Report.RunSojourn,
                               Report.RunPathLatency, Report.TotalStuckOps,
                               Report.TotalArrivals, Report.TotalShed);
  if (!Report.FinalConserves) {
    Report.Verdict.Pass = false;
    Report.Verdict.Violations.push_back(
        {"final_conservation", ~std::uint64_t{0}, static_cast<double>(Gap),
         static_cast<double>(Report.TotalCrashes)});
  }
  return Report;
}

} // namespace soak
} // namespace csobj

#endif // CSOBJ_SOAK_SOAKHARNESS_H
