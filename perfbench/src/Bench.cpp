//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "memory/RegisterPolicy.h"
#include "support/SpinWait.h"

#include <bit>
#include <cmath>
#include <fstream>

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {

double quantileNs(const LatencyHistogram &H, double Q) {
  const std::uint64_t N = H.count();
  if (N == 0)
    return 0;
  const double Position = std::clamp(Q, 0.0, 1.0) * static_cast<double>(N);
  // Value at integer rank R in [1, N] (valueAtQuantile takes ceil(Q*N)).
  auto atRank = [&](std::uint64_t R) {
    return H.valueAtQuantile((static_cast<double>(R) - 0.5) /
                             static_cast<double>(N));
  };
  const std::uint64_t Rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(Position)), 1, N);
  const std::uint64_t Upper = atRank(Rank);
  // First and last rank that fall into the same bucket.
  std::uint64_t Lo = 1, Hi = Rank;
  while (Lo < Hi) {
    const std::uint64_t Mid = Lo + (Hi - Lo) / 2;
    if (atRank(Mid) < Upper)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  const std::uint64_t First = Lo;
  Lo = Rank;
  Hi = N;
  while (Lo < Hi) {
    const std::uint64_t Mid = Lo + (Hi - Lo + 1) / 2;
    if (atRank(Mid) > Upper)
      Hi = Mid - 1;
    else
      Lo = Mid;
  }
  const std::uint64_t Last = Lo;
  // Bucket width from LatencyHistogram's layout: one value per bucket
  // below 2^(SubBucketBits+1), then 2^(exponent - SubBucketBits).
  const unsigned Exp = 63 - static_cast<unsigned>(std::countl_zero(Upper));
  const std::uint64_t Width =
      Exp <= LatencyHistogram::SubBucketBits
          ? 1
          : std::uint64_t{1} << (Exp - LatencyHistogram::SubBucketBits);
  const double Fraction =
      std::clamp((Position - static_cast<double>(First - 1)) /
                     static_cast<double>(Last - First + 1),
                 0.0, 1.0);
  return static_cast<double>(Upper) + 0.5 -
         static_cast<double>(Width) * (1.0 - Fraction);
}

double LoopResult::throughput() const {
  std::vector<double> PerSlice;
  for (std::size_t S = 1; S < Tallies.front().size(); ++S) {
    std::uint64_t Ops = 0;
    for (const auto &PerThread : Tallies)
      Ops += PerThread[S].Ops;
    PerSlice.push_back(static_cast<double>(Ops) / SliceSec[S - 1]);
  }
  return median(PerSlice);
}

double LoopResult::sliceQuantileNs(double Q, unsigned Mask) const {
  std::vector<double> PerSlice;
  for (std::size_t S = 1; S < Tallies.front().size(); ++S) {
    LatencyHistogram Merged;
    for (const auto &PerThread : Tallies)
      for (unsigned K = 0; K < NumKinds; ++K)
        if (Mask & (1u << K))
          Merged.merge(PerThread[S].Lat[K]);
    if (Merged.count() != 0)
      PerSlice.push_back(quantileNs(Merged, Q));
  }
  return median(PerSlice);
}

void closedLoopE2E(const LoopResult &R, E2E &E) {
  E.ThroughputOpsS = R.throughput();
  E.OpP50Ns = R.sliceQuantileNs(0.50, AllKinds);
  E.OpP99Ns = R.sliceQuantileNs(0.99, AllKinds);
  E.GetP50Ns = R.sliceQuantileNs(0.50, 1u << Get);
  E.GetP99Ns = R.sliceQuantileNs(0.99, 1u << Get);
  E.UpdateP50Ns = R.sliceQuantileNs(0.50, UpdateKinds);
  E.UpdateP99Ns = R.sliceQuantileNs(0.99, UpdateKinds);
  E.SojournP50Us = E.OpP50Ns / 1000;
  E.SojournP90Us = R.sliceQuantileNs(0.90, AllKinds) / 1000;
}

void closedLoopLayer(const LoopResult &R, Layer &L) {
  LatencyHistogram Shortcut, Lock;
  double ShardsSum = 0;
  std::uint64_t Samples = 0;
  for (const TraceTally &T : R.Traces) {
    Shortcut.merge(T.ByPath[static_cast<unsigned>(obs::Path::Shortcut)]);
    Lock.merge(T.ByPath[static_cast<unsigned>(obs::Path::Lock)]);
    Lock.merge(T.ByPath[static_cast<unsigned>(obs::Path::Degraded)]);
    ShardsSum += T.ActiveShardsSum;
    Samples += T.Samples;
  }
  L.ShortcutP50Ns = quantileNs(Shortcut, 0.50);
  L.LockPathP50Ns = quantileNs(Lock, 0.50);
  L.LockPathP99Ns = quantileNs(Lock, 0.99);
  L.ActiveShardsMean = ratio(ShardsSum, static_cast<double>(Samples));
}

void writeTrace(Report &R, const Args &A,
                const std::vector<const SpanLog *> &Logs) {
  if (A.TraceOut.empty())
    return;
  std::uint64_t Dropped = 0;
  for (const SpanLog *Log : Logs)
    Dropped += Log->dropped();
  std::ofstream Out(A.TraceOut);
  Out << "{\"workload\": \"" << A.Workload << "\", \"seed\": " << A.Seed
      << ", \"spans_dropped\": " << Dropped << "}\n";
  for (const SpanLog *Log : Logs)
    for (const Span &S : Log->spans())
      Out << "{\"id\": " << S.Id << ", \"parent\": " << S.Parent
          << ", \"name\": \"" << S.Name << "\", \"tid\": " << S.Tid
          << ", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
          << ", \"path\": \"" << obs::pathName(S.Path) << "\"}\n";
  Out.close();
  R.check("trace.spans_written", static_cast<bool>(Out));
}

IdleSpinners::IdleSpinners() {
  const unsigned Cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned C = 0; C < Cpus; ++C)
    Threads.emplace_back([this, C] {
      pinToCpu(C);
      sched_param Param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &Param);
      while (!Stop.load(std::memory_order_relaxed))
        csobj::cpuRelax();
    });
}

IdleSpinners::~IdleSpinners() {
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Threads)
    T.join();
}

void describeBuild(Report &R, const Args &A) {
  R.info("build_flags", PERFBENCH_BUILD_FLAGS);
  R.info("register_policy", csobj::DefaultRegisterPolicy::Name);
  R.info("metrics", obs::MetricsEnabled ? "on" : "off");
  R.info("workload", A.Workload);
  R.info("seed", std::to_string(A.Seed));
  R.info("seconds", std::to_string(A.Seconds));
  R.info("trace", A.Trace ? "1" : "0");
  R.info("smoke", A.Smoke ? "1" : "0");
  R.info("nproc", std::to_string(std::thread::hardware_concurrency()));
}

} // namespace perfbench
