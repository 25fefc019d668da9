//===- perfbench/src/ClosedLoopRun.h - One closed-loop run ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run of a closed-loop workload (stack-solo, bag-contended,
/// map-mixed), in either mode:
///
///  * untraced (--trace 0): N timed set-ups (their median is setup_s),
///    one loop of --seconds whose slices rotate over the N objects, the
///    end-to-end metrics, the correctness checks on every object.
///  * traced (--trace 1): one set-up under spans; an untraced loop and a
///    traced loop on the same object (their throughput ratio is the
///    tracing overhead); the object's public counters read around the
///    traced loop; then a fixed-op pass over an Instrumented-register
///    twin of the object, which is the only policy AccessCounterScope
///    sees. Checks run on both objects.
///
/// A workload supplies a Traits type:
///   template <typename Policy> using Object;   // Fast / Instrumented twin
///   template <typename Policy> using Worker;   // op generator + checker
///   struct State;                              // what set-up recorded
///   struct Probe;                              // counters read around a phase
///   static constexpr unsigned Threads, Chunk;  // workers, ops per sample
///   static unsigned setupReps(const Args &);
///   static std::uint64_t accessOps(const Args &);  // per thread
///   build<Policy>(const Args &, State &, SpanLog *, std::uint64_t Parent)
///   workers<Policy>(Object &, const Args &)
///   check(Report &, Object &, const Workers &, const State &, Label)
///   probe(Object<Fast> &) -> Probe
///   layer(Layer &, const Probe &Before, const Probe &After,
///         const Object<Fast> &, const LoopResult &Traced)
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERFBENCH_CLOSEDLOOPRUN_H
#define CSOBJ_PERFBENCH_CLOSEDLOOPRUN_H

#include "Bench.h"

#include "memory/RegisterPolicy.h"

#include <memory>
#include <utility>

namespace perfbench {

/// Slice plan of one closed-loop phase of \p Seconds.
inline LoopPlan closedPlan(const Args &A, double Seconds, unsigned Chunk,
                           std::uint64_t PhaseSpan = 0) {
  LoopPlan P;
  P.WarmupSec = A.Smoke ? 0.05 : 0.3;
  P.MeasureSec = Seconds;
  // One-second slices: a host stall or a noisy neighbour moves one
  // slice, and the run reports the median slice.
  P.Slices = A.Smoke ? 2 : std::max(2u, static_cast<unsigned>(Seconds + 0.5));
  P.Chunk = Chunk;
  P.PhaseSpan = PhaseSpan;
  return P;
}

template <typename Traits> void runClosedWorkload(const Args &A, Report &R) {
  using Obj = typename Traits::template Object<csobj::Fast>;
  using IObj = typename Traits::template Object<csobj::Instrumented>;
  E2E E;

  if (!A.Trace) {
    // Every object set up for the timing is measured: the slices rotate
    // over them.
    auto Objects = timedSetups(
        Traits::setupReps(A),
        [&] {
          typename Traits::State S;
          auto O = Traits::template build<csobj::Fast>(A, S, nullptr, 0);
          return std::make_pair(std::move(O), S);
        },
        E.SetupS);
    std::vector<std::vector<typename Traits::template Worker<csobj::Fast>>>
        Sets;
    for (auto &Built : Objects)
      Sets.push_back(Traits::template workers<csobj::Fast>(*Built.first, A));
    const LoopResult Run =
        runClosedLoop<false>(Sets, closedPlan(A, A.Seconds, Traits::Chunk));
    closedLoopE2E(Run, E);
    R.addAttempted(Run.TotalOps);
    std::vector<double> Bytes;
    for (std::size_t K = 0; K < Objects.size(); ++K) {
      auto &[O, St] = Objects[K];
      Bytes.push_back(static_cast<double>(O->footprintBytes()));
      Traits::check(R, *O, Sets[K], St, "run");
    }
    E.ObjectBytes = median(Bytes);
    E.emit(R);
    return;
  }

  // Traced run. Phase spans hang off one root span; each sampled call's
  // span hangs off its phase.
  SpanLog Main;
  const std::uint64_t Root = Main.nextId(0);
  const std::uint64_t SetupSpan = Main.nextId(0);
  const std::uint64_t T0 = nowNs();
  typename Traits::State St;
  std::unique_ptr<Obj> O =
      Traits::template build<csobj::Fast>(A, St, &Main, SetupSpan);
  Main.add({"setup", SetupSpan, Root, T0, nowNs(), 0, obs::Path::None});
  std::vector<std::vector<typename Traits::template Worker<csobj::Fast>>>
      Sets{Traits::template workers<csobj::Fast>(*O, A)};

  const double Untimed = A.Seconds * 0.3, Timed = A.Seconds * 0.5;
  const std::uint64_t UntracedSpan = Main.nextId(0);
  const std::uint64_t T1 = nowNs();
  const LoopResult Untraced =
      runClosedLoop<false>(Sets, closedPlan(A, Untimed, Traits::Chunk));
  Main.add({"phase.untraced", UntracedSpan, Root, T1, nowNs(), 0,
            obs::Path::None});

  const std::uint64_t TracedSpan = Main.nextId(0);
  const auto Before = Traits::probe(*O);
  const std::uint64_t T2 = nowNs();
  const LoopResult Traced = runClosedLoop<true>(
      Sets, closedPlan(A, Timed, Traits::Chunk, TracedSpan));
  Main.add({"phase.traced", TracedSpan, Root, T2, nowNs(), 0,
            obs::Path::None});
  const auto After = Traits::probe(*O);

  Layer L;
  closedLoopLayer(Traced, L);
  Traits::layer(L, Before, After, *O, Traced);
  L.TracingOverhead = ratio(Untraced.throughput(), Traced.throughput()) - 1;
  R.addAttempted(Untraced.TotalOps + Traced.TotalOps);
  Traits::check(R, *O, Sets.front(), St, "run");

  // Access counts: a twin on Instrumented registers, same seed.
  const std::uint64_t CountSpan = Main.nextId(0);
  const std::uint64_t T3 = nowNs();
  typename Traits::State ISt;
  std::unique_ptr<IObj> IO =
      Traits::template build<csobj::Instrumented>(A, ISt, &Main, CountSpan);
  auto IWorkers = Traits::template workers<csobj::Instrumented>(*IO, A);
  csobj::AccessCounts ByKind[NumKinds];
  std::uint64_t OpsByKind[NumKinds];
  countAccesses(IWorkers, Traits::accessOps(A), ByKind, OpsByKind);
  Main.add({"phase.access_count", CountSpan, Root, T3, nowNs(), 0,
            obs::Path::None});
  L.fromAccesses(ByKind, OpsByKind);
  R.addAttempted(Traits::accessOps(A) * Traits::Threads);
  Traits::check(R, *IO, IWorkers, ISt, "instrumented");
  Main.add({"run", Root, 0, T0, nowNs(), 0, obs::Path::None});

  std::vector<const SpanLog *> Logs{&Main};
  for (const TraceTally &T : Traced.Traces)
    Logs.push_back(&T.Log);
  writeTrace(R, A, Logs);
  L.emit(R);
}

} // namespace perfbench

#endif // CSOBJ_PERFBENCH_CLOSEDLOOPRUN_H
