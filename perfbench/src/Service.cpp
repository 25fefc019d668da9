//===- perfbench/src/Service.cpp - service workload -------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// service: the open loop of soak::runSoak, the repository's definition
/// of end to end. A generator offers a constant 200 k arrivals/s
/// (Poisson), Zipf(1.2) over 16 CrashTolerantStack<> instances, 50/50
/// push/pop, to 2 workers; no faults, no chaos. Sojourn is measured from
/// each arrival's nominal time, so generator or worker stalls count.
///
/// The rate is about 1/7 of the saturation point on a 4-vCPU host,
/// where p90 sojourn stays steady; throughput on this workload is the
/// delivered rate and only falls below the offered rate if the service
/// saturates.
///
/// The adapter times each call into the stack, so op/get/update
/// latencies are the object's own time without queueing. The harness
/// builds its instance pool inside runSoak, so set-up time is measured
/// on an identical pool built the same way beforehand.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include "core/CrashTolerantStack.h"
#include "runtime/Workload.h"
#include "soak/SoakHarness.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <memory>
#include <optional>

namespace perfbench {
namespace {

constexpr std::uint32_t Instances = 16;
constexpr std::uint32_t Workers = 2;
constexpr std::uint32_t InstanceCapacity = csobj::Compact64::Top::MaxIndex;
constexpr std::uint32_t SmokeInstanceCapacity = 4095;
constexpr double ArrivalsPerSec = 200000;
constexpr unsigned SoaksPerRun = 4;
/// An op whose call into the stack runs longer than this is stuck: far
/// above any host stall, so a count means an op stopped making progress.
constexpr std::uint64_t StuckOpNs = 1000ull * 1000 * 1000;

template <typename Policy>
using ServiceStack =
    csobj::CrashTolerantStack<csobj::Compact64, csobj::NoBackoff, Policy>;

/// What the adapter records for one worker. Only worker Tid writes cell
/// Tid; it is read after runSoak has joined the workers.
struct WorkerProbe {
  LatencyHistogram ByKind[NumKinds];
  csobj::AccessCounts Accesses[NumKinds];
  std::uint64_t Ops[NumKinds] = {};
  std::uint64_t Stuck = 0;
  SpanLog Log;
};

struct ServiceProbe {
  bool Traced = false;
  bool CountAccesses = false;
  std::uint64_t PhaseSpan = 0;
  WorkerProbe Cells[Workers];
};

/// runSoak owns the adapter instances; they report through the probe
/// installed for the duration of one runSoak call.
ServiceProbe *ActiveProbe = nullptr;

bool sameCounters(const obs::PathSnapshot &A, const obs::PathSnapshot &B) {
  return A.Ops == B.Ops && std::equal(A.Paths, A.Paths + obs::NumPaths,
                                      B.Paths) &&
         std::equal(A.Events, A.Events + obs::NumEvents, B.Events) &&
         std::equal(A.BatchBuckets, A.BatchBuckets + obs::NumBatchBuckets,
                    B.BatchBuckets) &&
         A.BatchOps == B.BatchOps && A.BatchMax == B.BatchMax;
}

/// Collects per snapshot before settling for a possibly torn one; an
/// instance sees an op every few microseconds, a collect takes ~100 ns.
constexpr unsigned MaxCollects = 1000;

template <typename Policy> struct ServiceAdapter {
  ServiceAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : S(Threads, Capacity) {}

  csobj::OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t V,
                         std::uint64_t &) {
    WorkerProbe &P = ActiveProbe->Cells[Tid];
    const Kind K = IsPush ? Insert : Get;
    csobj::AccessCounts Counts;
    std::optional<csobj::AccessCounterScope> Scope;
    if (ActiveProbe->CountAccesses)
      Scope.emplace(Counts);
    const std::uint64_t T0 = nowNs();
    csobj::OpOutcome Out;
    if (IsPush)
      Out = S.push(Tid, V) == csobj::PushResult::Done ? csobj::OpOutcome::Ok
                                                      : csobj::OpOutcome::Full;
    else
      Out = S.pop(Tid).isValue() ? csobj::OpOutcome::Ok
                                 : csobj::OpOutcome::Empty;
    const std::uint64_t T1 = nowNs();
    Scope.reset();
    P.ByKind[K].record(T1 - T0);
    ++P.Ops[K];
    P.Stuck += T1 - T0 > StuckOpNs;
    addCounts(P.Accesses[K], Counts);
    if (ActiveProbe->Traced)
      P.Log.add({IsPush ? "core.ct_stack.push" : "core.ct_stack.pop",
                 P.Log.nextId(Tid), ActiveProbe->PhaseSpan, T0, T1, Tid,
                 S.lastPath(Tid)});
    return Out;
  }

  void prefillOne(std::uint32_t V) { (void)S.push(0, V); }

  /// An atomic snapshot for the harness's per-window conservation check.
  /// MetricSink::snapshot() reads a thread's op counter before its path
  /// counters, so a worker that completes an op between the two reads
  /// makes one read show more retired than entered ops. The counters
  /// only grow, so two equal collects in a row held those values at one
  /// instant.
  obs::PathSnapshot pathSnapshot() const {
    obs::PathSnapshot Prev = S.pathSnapshot();
    for (unsigned Attempt = 0; Attempt < MaxCollects; ++Attempt) {
      const obs::PathSnapshot Next = S.pathSnapshot();
      if (sameCounters(Prev, Next))
        return Next;
      Prev = Next;
    }
    return Prev;
  }

  obs::Path lastPath(std::uint32_t Tid) const { return S.lastPath(Tid); }

  ServiceStack<Policy> S;
};

csobj::soak::SoakConfig soakConfig(const Args &A, double Seconds) {
  csobj::soak::SoakConfig C;
  C.Workers = Workers;
  C.Capacity = A.Smoke ? SmokeInstanceCapacity : InstanceCapacity;
  C.PrefillPercent = 50;
  C.DurationSec = Seconds;
  C.WindowSec = A.Smoke ? 0.1 : 0.5;
  C.Seed = A.Seed;
  // The harness watchdog stays off (OpDeadlineNs 0): its monitor reads
  // the clock before a slot's arm time, so an op armed in between reads
  // as ~2^64 ns old and is reported stuck. Stuck ops are counted by the
  // adapter instead (StuckOpNs).
  C.Schedule = csobj::soak::ArrivalSchedule::flat(ArrivalsPerSec);
  C.Schedule.Keys = Instances;
  C.Schedule.ZipfS = 1.2;
  C.Schedule.PushPercent = 50;
  return C;
}

/// Elements runSoak pushes into each instance before the run.
std::uint64_t prefillPerInstance(const csobj::soak::SoakConfig &C) {
  return static_cast<std::uint64_t>(C.Capacity) * C.PrefillPercent / 100;
}

/// The pool runSoak builds, built the same way: one stack per key, each
/// prefilled with the harness's prefill stream.
std::vector<std::unique_ptr<ServiceStack<csobj::Fast>>>
buildPool(const csobj::soak::SoakConfig &C) {
  std::vector<std::unique_ptr<ServiceStack<csobj::Fast>>> Pool;
  csobj::SplitMix64 PrefillRng(C.Seed ^ 0xfeedfacecafebeefull);
  const std::uint64_t PrefillCount = prefillPerInstance(C);
  for (std::uint32_t K = 0; K < C.Schedule.Keys; ++K) {
    Pool.push_back(
        std::make_unique<ServiceStack<csobj::Fast>>(C.Workers, C.Capacity));
    for (std::uint64_t I = 0; I < PrefillCount; ++I)
      (void)Pool.back()->push(
          0, static_cast<std::uint32_t>(PrefillRng.below(1u << 31)));
  }
  return Pool;
}

/// Bytes the public accessors can see: the object header, the slot array
/// and the metric blocks (the recoverable arbiter's heap has no public
/// size).
std::size_t
poolBytes(std::vector<std::unique_ptr<ServiceStack<csobj::Fast>>> &Pool) {
  std::size_t Bytes = 0;
  for (auto &S : Pool)
    Bytes += sizeof(*S) + S->abortable().heapBytes() +
             S->skeleton().metrics().heapBytes();
  return Bytes;
}

template <typename Policy>
csobj::soak::SoakReport runPhase(const Args &A, double Seconds,
                                 ServiceProbe &Probe) {
  ActiveProbe = &Probe;
  csobj::soak::SoakReport Rep =
      csobj::soak::runSoak<ServiceAdapter<Policy>>(soakConfig(A, Seconds));
  ActiveProbe = nullptr;
  return Rep;
}

void checkPhase(Report &R, const csobj::soak::SoakReport &Rep,
                const ServiceProbe &P, const std::string &Label) {
  bool WindowsConserve = true;
  for (const auto &W : Rep.Windows)
    WindowsConserve = WindowsConserve && W.Conserves;
  std::uint64_t Stuck = 0;
  for (const WorkerProbe &C : P.Cells)
    Stuck += C.Stuck;
  R.addAttempted(Rep.TotalArrivals);
  R.check(Label + ".final_conserves", Rep.FinalConserves);
  R.check(Label + ".windows_conserve", WindowsConserve);
  R.check(Label + ".zero_shed", Rep.TotalShed == 0, Rep.TotalShed);
  R.check(Label + ".zero_stuck_ops", Stuck == 0, Stuck);
  R.check(Label + ".all_arrivals_completed",
          Rep.TotalCompleted == Rep.TotalArrivals,
          Rep.TotalArrivals - std::min(Rep.TotalArrivals, Rep.TotalCompleted));
}

LatencyHistogram mergedKinds(const ServiceProbe &P, unsigned Mask) {
  LatencyHistogram H;
  for (const WorkerProbe &C : P.Cells)
    for (unsigned K = 0; K < NumKinds; ++K)
      if (Mask & (1u << K))
        H.merge(C.ByKind[K]);
  return H;
}

/// Rate and sojourn are medians over the windows of every soak; op
/// latencies are medians over soaks.
void serviceE2E(const std::vector<csobj::soak::SoakReport> &Reps,
                const std::vector<std::unique_ptr<ServiceProbe>> &Probes,
                E2E &E) {
  std::vector<double> Rate, P50, P90;
  for (const csobj::soak::SoakReport &Rep : Reps)
    // The last window is the post-join drain, not part of the timed loop.
    for (std::size_t I = 0; I + 1 < Rep.Windows.size(); ++I) {
      const csobj::soak::WindowStats &W = Rep.Windows[I];
      Rate.push_back(ratio(static_cast<double>(W.Completed), W.DurationSec));
      P50.push_back(quantileNs(W.Sojourn, 0.50) / 1000);
      P90.push_back(quantileNs(W.Sojourn, 0.90) / 1000);
    }
  E.ThroughputOpsS = median(Rate);
  E.SojournP50Us = median(P50);
  E.SojournP90Us = median(P90);
  auto overSoaks = [&](unsigned Mask, double Q) {
    std::vector<double> PerSoak;
    for (const auto &P : Probes)
      PerSoak.push_back(quantileNs(mergedKinds(*P, Mask), Q));
    return median(PerSoak);
  };
  E.OpP50Ns = overSoaks(AllKinds, 0.50);
  E.OpP99Ns = overSoaks(AllKinds, 0.99);
  E.GetP50Ns = overSoaks(1u << Get, 0.50);
  E.GetP99Ns = overSoaks(1u << Get, 0.99);
  E.UpdateP50Ns = overSoaks(UpdateKinds, 0.50);
  E.UpdateP99Ns = overSoaks(UpdateKinds, 0.99);
}

void serviceLayer(const csobj::soak::SoakReport &Rep,
                  const csobj::soak::SoakConfig &C, Layer &L) {
  // FinalPaths counts from construction, so it includes the prefill:
  // single-threaded pushes, each one op on the Shortcut path.
  obs::PathSnapshot Paths = Rep.FinalPaths;
  const std::uint64_t Prefill = C.Schedule.Keys * prefillPerInstance(C);
  Paths.Ops -= Prefill;
  Paths.Paths[static_cast<unsigned>(obs::Path::Shortcut)] -= Prefill;
  L.fromPaths(Paths);
  L.InnerOpsPerUserOp = ratio(static_cast<double>(Paths.Ops),
                              static_cast<double>(Rep.TotalCompleted));
  L.ShortcutP50Ns = quantileNs(
      Rep.RunPathLatency[static_cast<unsigned>(obs::Path::Shortcut)], 0.50);
  LatencyHistogram Lock;
  Lock.merge(Rep.RunPathLatency[static_cast<unsigned>(obs::Path::Lock)]);
  Lock.merge(Rep.RunPathLatency[static_cast<unsigned>(obs::Path::Degraded)]);
  L.LockPathP50Ns = quantileNs(Lock, 0.50);
  L.LockPathP99Ns = quantileNs(Lock, 0.99);
  L.ServiceP50Ns = quantileNs(Rep.RunService, 0.50);
  L.ServiceP99Ns = quantileNs(Rep.RunService, 0.99);
  // The harness keeps sojourn and service apart, not their per-op
  // difference, so queue wait is the difference of the medians.
  L.QueueWaitP50Us = std::max(0.0, quantileNs(Rep.RunSojourn, 0.50) -
                                       quantileNs(Rep.RunService, 0.50)) /
                     1000;
  L.WorkerBusyRatio =
      ratio(Rep.RunService.mean() * static_cast<double>(Rep.RunService.count()),
            1e9 * Workers * Rep.DurationSec);
  std::uint64_t Backlog = 0;
  for (const auto &W : Rep.Windows)
    Backlog = std::max(Backlog, W.Backlog);
  L.BacklogMax = static_cast<double>(Backlog);
  L.SojournP99Us = quantileNs(Rep.RunSojourn, 0.99) / 1000;
  L.SojournMaxUs = static_cast<double>(Rep.RunSojourn.maxValue()) / 1000;
}

} // namespace

void runService(const Args &A, Report &R) {
  const csobj::soak::SoakConfig Shape = soakConfig(A, A.Seconds);

  if (!A.Trace) {
    E2E E;
    {
      auto Pools = timedSetups(
          A.Smoke ? 2 : 5, [&] { return buildPool(Shape); }, E.SetupS);
      E.ObjectBytes = static_cast<double>(poolBytes(Pools.front()));
    }
    // Each soak builds a fresh pool, so the run's medians span several
    // placements of the stacks' hot words, as the closed loops' slices do.
    const unsigned Soaks = A.Smoke ? 1 : SoaksPerRun;
    std::vector<std::unique_ptr<ServiceProbe>> Probes;
    std::vector<csobj::soak::SoakReport> Reps;
    IdleSpinners Spin;
    for (unsigned K = 0; K < Soaks; ++K) {
      Probes.push_back(std::make_unique<ServiceProbe>());
      Reps.push_back(
          runPhase<csobj::Fast>(A, A.Seconds / Soaks, *Probes.back()));
      checkPhase(R, Reps.back(), *Probes.back(), "run");
    }
    serviceE2E(Reps, Probes, E);
    E.emit(R);
    return;
  }

  SpanLog Main;
  const std::uint64_t Root = Main.nextId(0);
  const std::uint64_t T0 = nowNs();
  {
    const std::uint64_t Setup = Main.nextId(0);
    auto Pool = buildPool(Shape);
    Main.add({"setup.pool", Setup, Root, T0, nowNs(), 0, obs::Path::None});
  }

  IdleSpinners Spin;
  auto Untraced = std::make_unique<ServiceProbe>();
  const std::uint64_t T1 = nowNs();
  const auto RepUntraced = runPhase<csobj::Fast>(A, A.Seconds * 0.3, *Untraced);
  Main.add({"phase.untraced", Main.nextId(0), Root, T1, nowNs(), 0,
            obs::Path::None});
  checkPhase(R, RepUntraced, *Untraced, "run");

  auto Traced = std::make_unique<ServiceProbe>();
  Traced->Traced = true;
  Traced->PhaseSpan = Main.nextId(0);
  const std::uint64_t T2 = nowNs();
  const auto RepTraced = runPhase<csobj::Fast>(A, A.Seconds * 0.45, *Traced);
  Main.add({"phase.traced", Traced->PhaseSpan, Root, T2, nowNs(), 0,
            obs::Path::None});
  checkPhase(R, RepTraced, *Traced, "traced");

  auto Counted = std::make_unique<ServiceProbe>();
  Counted->CountAccesses = true;
  const std::uint64_t T3 = nowNs();
  const auto RepCounted =
      runPhase<csobj::Instrumented>(A, A.Seconds * 0.25, *Counted);
  Main.add({"phase.access_count", Main.nextId(0), Root, T3, nowNs(), 0,
            obs::Path::None});
  checkPhase(R, RepCounted, *Counted, "instrumented");
  Main.add({"run", Root, 0, T0, nowNs(), 0, obs::Path::None});

  Layer L;
  serviceLayer(RepTraced, Shape, L);
  csobj::AccessCounts ByKind[NumKinds];
  std::uint64_t OpsByKind[NumKinds] = {};
  for (const WorkerProbe &C : Counted->Cells)
    for (unsigned K = 0; K < NumKinds; ++K) {
      addCounts(ByKind[K], C.Accesses[K]);
      OpsByKind[K] += C.Ops[K];
    }
  L.fromAccesses(ByKind, OpsByKind);
  // Tracing work sits inside the harness's service interval.
  L.TracingOverhead =
      ratio(RepTraced.RunService.mean(), RepUntraced.RunService.mean()) - 1;

  std::vector<const SpanLog *> Logs{&Main};
  for (const WorkerProbe &C : Traced->Cells)
    Logs.push_back(&C.Log);
  writeTrace(R, A, Logs);
  L.emit(R);
}

} // namespace perfbench
