//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plumbing shared by the four perfbench workloads:
///
///  * Report — checks, attempted/failed op counts and named metrics with
///    units; prints the result object as the last line of standard
///    output.
///  * E2E / Layer — the full end-to-end and per-layer metric sets. Every
///    workload prints every metric of the set its mode asks for; a layer
///    the workload bypasses reads 0 (see README.md, "Metric definitions").
///  * runClosedLoop — the closed-loop engine: pinned workers, a warm-up
///    slice and N timed slices, one latency sample per chunk of ops so
///    clock reads do not set throughput. Slices rotate over several
///    identically built objects, and metrics are medians over slices: a
///    slice hit by a host stall, or an object whose hot words landed on
///    a slow cache path, moves one slice rather than the run's value.
///  * IdleSpinners — keeps idle CPUs from halting while the open loop
///    runs.
///  * Spans — the traced run's in-memory span log, written at exit.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERFBENCH_BENCH_H
#define CSOBJ_PERFBENCH_BENCH_H

#include "memory/AccessCounter.h"
#include "obs/PathCounters.h"
#include "runtime/SpinBarrier.h"
#include "runtime/Stats.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

namespace perfbench {

using csobj::LatencyHistogram;
namespace obs = csobj::obs;

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One run's command line (parsed in main.cpp).
struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Small working sets and short phases, for the benchmark's own test.
  bool Smoke = false;
  /// Where the traced run writes its spans; empty = keep them in memory.
  std::string TraceOut;
};

/// Op kinds the latency metrics are split by. The map's get is Get and
/// its insert/erase are Insert/Erase; a stack's pop is Get and its push
/// is Insert.
enum Kind : unsigned { Get = 0, Insert = 1, Erase = 2, NumKinds = 3 };

/// Pins the calling thread to \p Cpu modulo the CPUs the process may use.
inline void pinToCpu(unsigned Cpu) {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  const int Count = CPU_COUNT(&Allowed);
  if (Count <= 1)
    return;
  int Want = static_cast<int>(Cpu % static_cast<unsigned>(Count));
  for (int C = 0; C < CPU_SETSIZE; ++C) {
    if (!CPU_ISSET(C, &Allowed))
      continue;
    if (Want-- == 0) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(C, &One);
      pthread_setaffinity_np(pthread_self(), sizeof(One), &One);
      return;
    }
  }
}

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const std::size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

/// Quantile \p Q of \p H, interpolated inside the bucket that holds it
/// (samples spread evenly over the bucket's integer values). The
/// histogram's own valueAtQuantile returns bucket upper edges, ~3% apart,
/// so a steady quantile would read the same edge on every run and a
/// shift smaller than one bucket would not show. 0 when \p H is empty.
double quantileNs(const LatencyHistogram &H, double Q);

/// Path counters that moved between two snapshots of one object.
inline obs::PathSnapshot snapshotDelta(const obs::PathSnapshot &After,
                                       const obs::PathSnapshot &Before) {
  obs::PathSnapshot D;
  D.Ops = After.Ops - Before.Ops;
  for (unsigned I = 0; I < obs::NumPaths; ++I)
    D.Paths[I] = After.Paths[I] - Before.Paths[I];
  for (unsigned I = 0; I < obs::NumEvents; ++I)
    D.Events[I] = After.Events[I] - Before.Events[I];
  for (unsigned I = 0; I < obs::NumBatchBuckets; ++I)
    D.BatchBuckets[I] = After.BatchBuckets[I] - Before.BatchBuckets[I];
  D.BatchOps = After.BatchOps - Before.BatchOps;
  D.BatchMax = After.BatchMax;
  return D;
}

inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

inline void addCounts(csobj::AccessCounts &Acc,
                      const csobj::AccessCounts &D) {
  Acc.Reads += D.Reads;
  Acc.Writes += D.Writes;
  Acc.CasAttempts += D.CasAttempts;
  Acc.CasFailures += D.CasFailures;
  Acc.Rmw += D.Rmw;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Checks, op counts and metrics of one run.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }

  /// Records a correctness check; a failing one counts \p FailedOps
  /// (at least one) as failed and makes the run incorrect. Checks of the
  /// same name (one per object) share one row that passes only if all do.
  void check(const std::string &Name, bool Pass, std::uint64_t FailedOps = 1) {
    if (!Pass)
      Failed += std::max<std::uint64_t>(FailedOps, 1);
    for (CheckRow &C : Checks)
      if (C.Name == Name) {
        C.Pass = C.Pass && Pass;
        return;
      }
    Checks.push_back({Name, Pass});
  }

  void addAttempted(std::uint64_t N) { Attempted += N; }
  void info(const std::string &Key, const std::string &Value) {
    Infos.push_back({Key, Value});
  }

  /// True when checks ran, all passed, no op failed and ops were run.
  bool correct() const {
    for (const CheckRow &C : Checks)
      if (!C.Pass)
        return false;
    return Failed == 0 && !Checks.empty() && Attempted > 0;
  }

  /// Info and check lines, then the result object as the last line.
  void print() const {
    for (const auto &[Key, Value] : Infos)
      std::printf("# %s: %s\n", Key.c_str(), Value.c_str());
    for (const CheckRow &C : Checks)
      std::printf("check %s: %s\n", C.Name.c_str(), C.Pass ? "pass" : "FAIL");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    for (std::size_t I = 0; I < Metrics.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                  Metrics[I].Unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }

private:
  struct MetricRow {
    std::string Name;
    double Value;
    std::string Unit;
  };
  struct CheckRow {
    std::string Name;
    bool Pass;
  };
  std::vector<MetricRow> Metrics;
  std::vector<CheckRow> Checks;
  std::vector<std::pair<std::string, std::string>> Infos;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
};

/// The end-to-end metric set (BENCHMARK.json "end_to_end").
struct E2E {
  double ThroughputOpsS = 0;
  double OpP50Ns = 0, OpP99Ns = 0;
  double GetP50Ns = 0, GetP99Ns = 0;
  double UpdateP50Ns = 0, UpdateP99Ns = 0;
  double SojournP50Us = 0, SojournP90Us = 0;
  double SetupS = 0;
  double ObjectBytes = 0;

  void emit(Report &R) const {
    R.metric("throughput_ops_s", ThroughputOpsS, "1/s");
    R.metric("op_p50_ns", OpP50Ns, "ns");
    R.metric("op_p99_ns", OpP99Ns, "ns");
    R.metric("get_p50_ns", GetP50Ns, "ns");
    R.metric("get_p99_ns", GetP99Ns, "ns");
    R.metric("update_p50_ns", UpdateP50Ns, "ns");
    R.metric("update_p99_ns", UpdateP99Ns, "ns");
    R.metric("sojourn_p50_us", SojournP50Us, "us");
    R.metric("sojourn_p90_us", SojournP90Us, "us");
    R.metric("setup_s", SetupS, "s");
    R.metric("object_bytes", ObjectBytes, "bytes");
  }
};

/// The per-layer metric set (BENCHMARK.json "per_layer").
struct Layer {
  // core: the Fig-1 weak op and Fig-3 shortcut.
  double ShortcutRatio = 0, ShortcutSuccessRatio = 0;
  double ProtectedRetriesPerOp = 0, ShortcutP50Ns = 0;
  // locks: doorway + lock tenure.
  double LockRatio = 0, LockPathP50Ns = 0, LockPathP99Ns = 0;
  // perf: sharding, elimination, controller.
  double InnerOpsPerUserOp = 0, EliminatedRatio = 0, ReconfigsPerKop = 0;
  double GateRetunesPerKop = 0, ActiveShardsMean = 0;
  // memory: registers and reclamation.
  double AccessesPerOp = 0, CasFailureRatio = 0;
  double AccessesPerGet = 0, AccessesPerUpdate = 0;
  double HazardRetireHighWater = 0, NodesAllocated = 0;
  // core.map: the skip list behind the map.
  double MapInsertP50Ns = 0, MapEraseP50Ns = 0, MapEraseP99Ns = 0;
  double MapLockRatio = 0;
  // soak: the open-loop service.
  double ServiceP50Ns = 0, ServiceP99Ns = 0, QueueWaitP50Us = 0;
  double WorkerBusyRatio = 0, BacklogMax = 0, SojournP99Us = 0;
  double SojournMaxUs = 0;
  // bench: the cost of tracing itself.
  double TracingOverhead = 0;

  /// Fills the core/locks ratios from a path-counter delta.
  void fromPaths(const obs::PathSnapshot &D) {
    const double Ops = static_cast<double>(D.Ops);
    const double Shortcut = static_cast<double>(D.path(obs::Path::Shortcut));
    ShortcutRatio = ratio(Shortcut, Ops);
    ShortcutSuccessRatio = ratio(
        Shortcut,
        Shortcut + static_cast<double>(D.event(obs::Event::ShortcutAbort)));
    ProtectedRetriesPerOp = ratio(
        static_cast<double>(D.event(obs::Event::ProtectedRetry)), Ops);
    LockRatio = ratio(static_cast<double>(D.path(obs::Path::Lock) +
                                          D.path(obs::Path::Degraded)),
                      Ops);
  }

  /// Fills the memory ratios from per-kind access counts.
  void fromAccesses(const csobj::AccessCounts (&ByKind)[NumKinds],
                    const std::uint64_t (&OpsByKind)[NumKinds]) {
    csobj::AccessCounts All;
    std::uint64_t Ops = 0;
    for (unsigned K = 0; K < NumKinds; ++K) {
      addCounts(All, ByKind[K]);
      Ops += OpsByKind[K];
    }
    AccessesPerOp = ratio(static_cast<double>(All.total()),
                          static_cast<double>(Ops));
    CasFailureRatio = ratio(static_cast<double>(All.CasFailures),
                            static_cast<double>(All.CasAttempts));
    AccessesPerGet = ratio(static_cast<double>(ByKind[Get].total()),
                           static_cast<double>(OpsByKind[Get]));
    AccessesPerUpdate =
        ratio(static_cast<double>(ByKind[Insert].total() +
                                  ByKind[Erase].total()),
              static_cast<double>(OpsByKind[Insert] + OpsByKind[Erase]));
  }

  void emit(Report &R) const {
    R.metric("core.shortcut_ratio", ShortcutRatio, "ratio");
    R.metric("core.shortcut_success_ratio", ShortcutSuccessRatio, "ratio");
    R.metric("core.protected_retries_per_op", ProtectedRetriesPerOp, "1/op");
    R.metric("core.shortcut_p50_ns", ShortcutP50Ns, "ns");
    R.metric("locks.lock_ratio", LockRatio, "ratio");
    R.metric("locks.lock_path_p50_ns", LockPathP50Ns, "ns");
    R.metric("locks.lock_path_p99_ns", LockPathP99Ns, "ns");
    R.metric("perf.inner_ops_per_user_op", InnerOpsPerUserOp, "ratio");
    R.metric("perf.eliminated_ratio", EliminatedRatio, "ratio");
    R.metric("perf.reconfigs_per_kop", ReconfigsPerKop, "1/kop");
    R.metric("perf.gate_retunes_per_kop", GateRetunesPerKop, "1/kop");
    R.metric("perf.active_shards_mean", ActiveShardsMean, "count");
    R.metric("memory.accesses_per_op", AccessesPerOp, "accesses/op");
    R.metric("memory.cas_failure_ratio", CasFailureRatio, "ratio");
    R.metric("memory.accesses_per_get", AccessesPerGet, "accesses/op");
    R.metric("memory.accesses_per_update", AccessesPerUpdate, "accesses/op");
    R.metric("memory.hazard_retire_high_water", HazardRetireHighWater,
             "count");
    R.metric("memory.nodes_allocated", NodesAllocated, "count");
    R.metric("core.map.insert_p50_ns", MapInsertP50Ns, "ns");
    R.metric("core.map.erase_p50_ns", MapEraseP50Ns, "ns");
    R.metric("core.map.erase_p99_ns", MapEraseP99Ns, "ns");
    R.metric("core.map.lock_ratio", MapLockRatio, "ratio");
    R.metric("soak.service_p50_ns", ServiceP50Ns, "ns");
    R.metric("soak.service_p99_ns", ServiceP99Ns, "ns");
    R.metric("soak.queue_wait_p50_us", QueueWaitP50Us, "us");
    R.metric("soak.worker_busy_ratio", WorkerBusyRatio, "ratio");
    R.metric("soak.backlog_max", BacklogMax, "count");
    R.metric("soak.sojourn_p99_us", SojournP99Us, "us");
    R.metric("soak.sojourn_max_us", SojournMaxUs, "us");
    R.metric("bench.tracing_overhead", TracingOverhead, "ratio");
  }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed call into a layer's public function. Spans of one run
/// share the run's trace; Parent links a call to its phase span.
struct Span {
  const char *Name = "";
  std::uint64_t Id = 0;
  std::uint64_t Parent = 0;
  std::uint64_t StartNs = 0;
  std::uint64_t EndNs = 0;
  std::uint32_t Tid = 0;
  obs::Path Path = obs::Path::None;
};

/// Span ids: high bits name the recording thread, so threads allocate
/// ids without sharing a counter.
inline std::uint64_t spanId(std::uint32_t Tid, std::uint64_t Seq) {
  return (static_cast<std::uint64_t>(Tid + 1) << 40) | Seq;
}

/// A thread's span log, capped so a long traced phase keeps bounded
/// memory; the per-path histograms still see every sampled call.
class SpanLog {
public:
  static constexpr std::size_t Cap = 20000;

  void add(const Span &S) {
    if (Spans.size() < Cap)
      Spans.push_back(S);
    else
      ++Dropped;
  }

  std::uint64_t nextId(std::uint32_t Tid) { return spanId(Tid, ++Seq); }

  const std::vector<Span> &spans() const { return Spans; }
  std::uint64_t dropped() const { return Dropped; }

private:
  std::vector<Span> Spans;
  std::uint64_t Seq = 0;
  std::uint64_t Dropped = 0;
};

/// Writes every log's spans as JSON lines to A.TraceOut, after a header
/// line naming the run, and records the write as a check. Does nothing
/// when A.TraceOut is empty.
void writeTrace(Report &R, const Args &A,
                const std::vector<const SpanLog *> &Logs);

//===----------------------------------------------------------------------===//
// Closed loop
//===----------------------------------------------------------------------===//

/// Per-thread tallies of one slice.
struct SliceTally {
  std::uint64_t Ops = 0;
  LatencyHistogram Lat[NumKinds];
};

/// Per-thread tallies of a traced phase.
struct TraceTally {
  LatencyHistogram ByPath[obs::NumPaths + 1];
  LatencyHistogram ByKind[NumKinds];
  double ActiveShardsSum = 0;
  std::uint64_t Samples = 0;
  SpanLog Log;
};

struct LoopPlan {
  double WarmupSec = 0.3;
  double MeasureSec = 1;
  unsigned Slices = 10;
  /// Ops per latency sample (the chunk's last op is timed).
  unsigned Chunk = 64;
  /// Span parent of every sampled call in a traced phase.
  std::uint64_t PhaseSpan = 0;
};

struct LoopResult {
  /// [thread][slice]; slice 0 is the warm-up.
  std::vector<std::vector<SliceTally>> Tallies;
  std::vector<TraceTally> Traces;
  std::vector<double> SliceSec; ///< Measured slices 1..N.
  std::uint64_t TotalOps = 0;   ///< Warm-up included.

  /// Median over measured slices of completed ops per second.
  double throughput() const;
  /// Median over measured slices of the quantile of the kinds in \p Mask.
  double sliceQuantileNs(double Q, unsigned Mask) const;
};

inline constexpr unsigned AllKinds = (1u << NumKinds) - 1;
inline constexpr unsigned UpdateKinds = (1u << Insert) | (1u << Erase);

/// Runs one closed-loop phase. Sets[K] holds the workers of object K,
/// one per thread; thread T runs on its own pinned CPU and calls op() of
/// Sets[K][T] back to back, where K is 0 in the warm-up and rotates
/// through the objects from slice to slice. A worker type provides
///   Kind op();                  // one user op, checked by the worker
///   obs::Path lastPath() const; // terminal path of that op (traced)
///   const char *spanName(Kind) const;
///   double activeShards() const;
template <bool Traced, typename WorkerT>
LoopResult runClosedLoop(std::vector<std::vector<WorkerT>> &Sets,
                         const LoopPlan &Plan) {
  const unsigned N = static_cast<unsigned>(Sets.front().size());
  const unsigned Stop = Plan.Slices + 1;
  LoopResult R;
  R.Tallies.resize(N);
  for (auto &T : R.Tallies)
    T.resize(Plan.Slices + 1);
  if (Traced)
    R.Traces.resize(N);

  std::atomic<unsigned> Slice{0};
  csobj::SpinBarrier Start(N + 1);
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  for (unsigned Tid = 0; Tid < N; ++Tid)
    Threads.emplace_back([&, Tid] {
      pinToCpu(Tid + 1);
      std::vector<SliceTally> &Tallies = R.Tallies[Tid];
      Start.arriveAndWait();
      while (true) {
        const unsigned S = Slice.load(std::memory_order_relaxed);
        if (S >= Stop)
          break;
        WorkerT &W = Sets[S == 0 ? 0 : (S - 1) % Sets.size()][Tid];
        for (unsigned I = 1; I < Plan.Chunk; ++I)
          (void)W.op();
        const std::uint64_t T0 = nowNs();
        const Kind K = W.op();
        const std::uint64_t T1 = nowNs();
        SliceTally &Tally = Tallies[S];
        Tally.Lat[K].record(T1 - T0);
        Tally.Ops += Plan.Chunk;
        if constexpr (Traced) {
          TraceTally &Tr = R.Traces[Tid];
          const obs::Path P = W.lastPath();
          Tr.ByPath[std::min(static_cast<unsigned>(P), obs::NumPaths)].record(
              T1 - T0);
          Tr.ByKind[K].record(T1 - T0);
          Tr.ActiveShardsSum += W.activeShards();
          ++Tr.Samples;
          Tr.Log.add({W.spanName(K), Tr.Log.nextId(Tid), Plan.PhaseSpan, T0,
                      T1, Tid, P});
        }
      }
    });

  Start.arriveAndWait();
  using Clock = std::chrono::steady_clock;
  const auto SliceLen = std::chrono::duration<double>(Plan.MeasureSec /
                                                      Plan.Slices);
  std::this_thread::sleep_for(std::chrono::duration<double>(Plan.WarmupSec));
  const Clock::time_point Origin = Clock::now();
  Clock::time_point Prev = Origin;
  for (unsigned S = 1; S <= Plan.Slices; ++S) {
    Slice.store(S, std::memory_order_relaxed);
    std::this_thread::sleep_until(
        Origin + std::chrono::duration_cast<Clock::duration>(SliceLen * S));
    const Clock::time_point Now = Clock::now();
    R.SliceSec.push_back(std::chrono::duration<double>(Now - Prev).count());
    Prev = Now;
  }
  Slice.store(Stop, std::memory_order_relaxed);
  for (std::thread &T : Threads)
    T.join();
  for (const auto &PerThread : R.Tallies)
    for (const SliceTally &T : PerThread)
      R.TotalOps += T.Ops;
  return R;
}

/// Runs \p OpsPerThread ops on every worker at once, each thread counting
/// its shared accesses (Instrumented registers only) per op kind.
template <typename WorkerT>
void countAccesses(std::vector<WorkerT> &Workers, std::uint64_t OpsPerThread,
                   csobj::AccessCounts (&ByKind)[NumKinds],
                   std::uint64_t (&OpsByKind)[NumKinds]) {
  const unsigned N = static_cast<unsigned>(Workers.size());
  std::vector<std::array<csobj::AccessCounts, NumKinds>> PerThread(N);
  std::vector<std::array<std::uint64_t, NumKinds>> OpsPerKind(N);
  csobj::SpinBarrier Start(N);
  std::vector<std::thread> Threads;
  for (unsigned Tid = 0; Tid < N; ++Tid)
    Threads.emplace_back([&, Tid] {
      pinToCpu(Tid + 1);
      csobj::AccessCounts Counts;
      csobj::AccessCounterScope Scope(Counts);
      Start.arriveAndWait();
      for (std::uint64_t I = 0; I < OpsPerThread; ++I) {
        const csobj::AccessCounts Before = Counts;
        const Kind K = Workers[Tid].op();
        addCounts(PerThread[Tid][K], Counts - Before);
        ++OpsPerKind[Tid][K];
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned K = 0; K < NumKinds; ++K) {
    ByKind[K] = {};
    OpsByKind[K] = 0;
    for (unsigned Tid = 0; Tid < N; ++Tid) {
      addCounts(ByKind[K], PerThread[Tid][K]);
      OpsByKind[K] += OpsPerKind[Tid][K];
    }
  }
}

/// Fills the latency/throughput part of \p E from a closed-loop phase.
/// In a closed loop a request is due when the previous one completes,
/// so sojourn is the op latency itself.
void closedLoopE2E(const LoopResult &R, E2E &E);

/// Fills the traced-phase layer metrics shared by every closed loop:
/// shortcut and lock-path latencies by terminal path and the
/// active-shard mean.
void closedLoopLayer(const LoopResult &R, Layer &L);

/// Runs \p Setup (build and prefill one fresh object) \p Reps times and
/// returns every object built; \p MedianSec receives the median time.
template <typename SetupFn>
auto timedSetups(unsigned Reps, SetupFn Setup, double &MedianSec) {
  std::vector<decltype(Setup())> Objects;
  std::vector<double> Secs;
  for (unsigned I = 0; I < Reps; ++I) {
    const std::uint64_t T0 = nowNs();
    Objects.push_back(Setup());
    Secs.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
  }
  MedianSec = median(Secs);
  return Objects;
}

/// One SCHED_IDLE busy thread per CPU for the object's lifetime. A
/// halted vCPU wakes only when the host schedules it, which under host
/// load takes milliseconds; spinning keeps every vCPU running, and the
/// spinners give way at once to any other runnable thread.
class IdleSpinners {
public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners &) = delete;
  IdleSpinners &operator=(const IdleSpinners &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

/// Build and host facts every output records.
void describeBuild(Report &R, const Args &A);

} // namespace perfbench

#endif // CSOBJ_PERFBENCH_BENCH_H
