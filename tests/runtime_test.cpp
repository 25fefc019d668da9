//===- tests/runtime_test.cpp - Harness substrate tests ------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "runtime/Driver.h"
#include "runtime/SpinBarrier.h"
#include "runtime/Stats.h"
#include "runtime/TablePrinter.h"
#include "runtime/ThreadRegistry.h"
#include "runtime/Workload.h"

#include "baselines/LockedStack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// LatencyHistogram
//===----------------------------------------------------------------------===

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.valueAtQuantile(0.5), 0u);
  EXPECT_EQ(H.mean(), 0.0);
  EXPECT_EQ(H.maxValue(), 0u);
}

TEST(HistogramTest, SingleValue) {
  LatencyHistogram H;
  H.record(1000);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(H.maxValue(), 1000u);
  EXPECT_EQ(H.mean(), 1000.0);
  // Quantiles land in the bucket containing the value (within the
  // histogram's ~3% quantization).
  EXPECT_NEAR(static_cast<double>(H.valueAtQuantile(0.5)), 1000.0, 35.0);
  EXPECT_NEAR(static_cast<double>(H.valueAtQuantile(1.0)), 1000.0, 35.0);
}

TEST(HistogramTest, ZeroClampsToOne) {
  LatencyHistogram H;
  H.record(0);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_GE(H.minValue(), 1u);
  EXPECT_EQ(H.sum(), 0u) << "the sum takes values as given, unclamped";
}

TEST(HistogramTest, QuantilesAreMonotone) {
  LatencyHistogram H;
  SplitMix64 Rng(17);
  for (int I = 0; I < 100000; ++I)
    H.record(Rng.below(1000000) + 1);
  std::uint64_t Prev = 0;
  for (double Q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const std::uint64_t V = H.valueAtQuantile(Q);
    EXPECT_GE(V, Prev);
    Prev = V;
  }
}

TEST(HistogramTest, UniformQuantilesApproximatelyCorrect) {
  LatencyHistogram H;
  SplitMix64 Rng(23);
  for (int I = 0; I < 200000; ++I)
    H.record(Rng.below(1000000) + 1);
  // Within the log-bucket quantization error (1/32 relative).
  EXPECT_NEAR(static_cast<double>(H.valueAtQuantile(0.5)), 500000.0,
              500000.0 * 0.08);
  EXPECT_NEAR(static_cast<double>(H.valueAtQuantile(0.9)), 900000.0,
              900000.0 * 0.08);
}

TEST(HistogramTest, MergeCombinesSamples) {
  LatencyHistogram A, B;
  A.record(10);
  A.record(20);
  B.record(1000000);
  A.merge(B);
  EXPECT_EQ(A.count(), 3u);
  EXPECT_EQ(A.sum(), 10u + 20u + 1000000u);
  EXPECT_EQ(A.maxValue(), 1000000u);
  EXPECT_NEAR(A.mean(), (10.0 + 20.0 + 1000000.0) / 3.0, 0.01);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram H;
  H.record(5);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.maxValue(), 0u);
  EXPECT_EQ(H.minValue(), 0u);
}

TEST(HistogramTest, MinMaxMeanRoundTripExactly) {
  // Regression for the upward-biased minimum: minValue() used to return
  // the upper edge of the first non-empty bucket, so any recorded value
  // that was not itself a bucket edge came back inflated (by up to one
  // bucket width — ~3% relative). Min is tracked exactly now, like Max,
  // so all three moments must reproduce the inputs verbatim.
  LatencyHistogram H;
  const std::uint64_t Values[] = {1000003, 2500001, 999999937};
  for (const std::uint64_t V : Values)
    H.record(V);
  EXPECT_EQ(H.minValue(), 1000003u)
      << "minimum must be the recorded value, not its bucket's upper edge";
  EXPECT_EQ(H.maxValue(), 999999937u);
  EXPECT_NEAR(H.mean(), (1000003.0 + 2500001.0 + 999999937.0) / 3.0, 0.01);

  // Merging an empty histogram must not drag the minimum to the empty
  // side's sentinel or to zero, in either direction.
  LatencyHistogram Empty;
  H.merge(Empty);
  EXPECT_EQ(H.minValue(), 1000003u);
  LatencyHistogram Target;
  Target.merge(H);
  EXPECT_EQ(Target.minValue(), 1000003u);
  EXPECT_EQ(Target.maxValue(), 999999937u);

  // A merge from a histogram with a smaller minimum must adopt it.
  LatencyHistogram Low;
  Low.record(17);
  Target.merge(Low);
  EXPECT_EQ(Target.minValue(), 17u);

  // And reset must restore the empty-histogram answers.
  Target.reset();
  EXPECT_EQ(Target.minValue(), 0u);
  Target.record(42);
  EXPECT_EQ(Target.minValue(), 42u);
  EXPECT_EQ(Target.maxValue(), 42u);
}

TEST(HistogramTest, SummarizePopulatesAllFields) {
  LatencyHistogram H;
  for (int I = 1; I <= 100; ++I)
    H.record(static_cast<std::uint64_t>(I) * 100);
  const LatencySummary S = summarize(H);
  EXPECT_EQ(S.Count, 100u);
  EXPECT_GT(S.MeanNs, 0.0);
  EXPECT_GT(S.P99Ns, S.P50Ns);
  EXPECT_GE(S.MaxNs, S.P99Ns);
}

//===----------------------------------------------------------------------===
// Jain fairness index
//===----------------------------------------------------------------------===

TEST(FairnessTest, PerfectlyFair) {
  EXPECT_DOUBLE_EQ(jainFairnessIndex({5, 5, 5, 5}), 1.0);
}

TEST(FairnessTest, MaximallyUnfair) {
  EXPECT_NEAR(jainFairnessIndex({100, 0, 0, 0}), 0.25, 1e-9);
}

TEST(FairnessTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(jainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(jainFairnessIndex({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(jainFairnessIndex({7}), 1.0);
}

TEST(FairnessTest, IntermediateValue) {
  const double J = jainFairnessIndex({10, 20});
  EXPECT_GT(J, 0.25);
  EXPECT_LT(J, 1.0);
  EXPECT_NEAR(J, 900.0 / (2 * 500.0), 1e-9);
}

//===----------------------------------------------------------------------===
// TablePrinter
//===----------------------------------------------------------------------===

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter Table({"name", "value"});
  Table.addRow({"a", "1"});
  Table.addRow({"longer-name", "22"});
  std::ostringstream OS;
  Table.print(OS);
  const std::string Out = OS.str();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  // All data lines share one width.
  std::istringstream Lines(Out);
  std::string Line;
  std::size_t Width = 0;
  while (std::getline(Lines, Line)) {
    if (Line.empty())
      continue;
    if (Width == 0)
      Width = Line.size();
    EXPECT_EQ(Line.size(), Width) << Out;
  }
}

TEST(TablePrinterTest, TitlePrinted) {
  TablePrinter Table({"x"});
  Table.setTitle("E1");
  std::ostringstream OS;
  Table.print(OS);
  EXPECT_NE(OS.str().find("== E1 =="), std::string::npos);
}

TEST(FormatTest, NsScaling) {
  EXPECT_EQ(formatNs(500), "500ns");
  EXPECT_EQ(formatNs(1500), "1.50us");
  EXPECT_EQ(formatNs(2500000), "2.50ms");
  EXPECT_EQ(formatNs(3e9), "3.00s");
}

TEST(FormatTest, RateScaling) {
  EXPECT_EQ(formatRate(500), "500 ops/s");
  EXPECT_EQ(formatRate(1500), "1.5 Kops/s");
  EXPECT_EQ(formatRate(2500000), "2.50 Mops/s");
}

TEST(FormatTest, DoubleDecimals) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(3.14159, 4), "3.1416");
}

//===----------------------------------------------------------------------===
// ThreadRegistry / SpinBarrier
//===----------------------------------------------------------------------===

TEST(ThreadRegistryTest, DenseIdsHandedOutOnce) {
  ThreadRegistry Registry(4);
  std::vector<std::uint32_t> Ids;
  for (int I = 0; I < 4; ++I)
    Ids.push_back(Registry.acquire());
  std::sort(Ids.begin(), Ids.end());
  EXPECT_EQ(Ids, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(Registry.activeCount(), 4u);
}

TEST(ThreadRegistryTest, ReleasedIdIsReused) {
  ThreadRegistry Registry(2);
  const auto A = Registry.acquire();
  (void)Registry.acquire();
  Registry.release(A);
  EXPECT_EQ(Registry.acquire(), A);
}

TEST(ThreadRegistryTest, ScopedIdReleasesOnDestruction) {
  ThreadRegistry Registry(1);
  {
    ScopedThreadId Id(Registry);
    EXPECT_EQ(Id.id(), 0u);
    EXPECT_EQ(Registry.activeCount(), 1u);
  }
  EXPECT_EQ(Registry.activeCount(), 0u);
}

TEST(ThreadRegistryTest, ConcurrentAcquireYieldsDistinctIds) {
  constexpr std::uint32_t N = 8;
  ThreadRegistry Registry(N);
  std::vector<std::uint32_t> Got(N);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < N; ++T)
    Workers.emplace_back([&, T] { Got[T] = Registry.acquire(); });
  for (auto &W : Workers)
    W.join();
  std::sort(Got.begin(), Got.end());
  for (std::uint32_t I = 0; I < N; ++I)
    EXPECT_EQ(Got[I], I);
}

TEST(SpinBarrierTest, ReleasesAllParties) {
  constexpr int N = 4;
  SpinBarrier Barrier(N);
  std::atomic<int> Before{0}, After{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < N; ++T)
    Workers.emplace_back([&] {
      Before.fetch_add(1);
      Barrier.arriveAndWait();
      After.fetch_add(1);
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Before.load(), N);
  EXPECT_EQ(After.load(), N);
}

TEST(SpinBarrierTest, ReusableAcrossRounds) {
  constexpr int N = 3;
  SpinBarrier Barrier(N);
  std::atomic<int> Counter{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < N; ++T)
    Workers.emplace_back([&] {
      for (int Round = 0; Round < 10; ++Round) {
        Barrier.arriveAndWait();
        Counter.fetch_add(1);
        Barrier.arriveAndWait();
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Counter.load(), N * 10);
}

//===----------------------------------------------------------------------===
// Workload driver
//===----------------------------------------------------------------------===

/// Adapter binding the generic driver to the locked stack.
struct LockedStackAdapter {
  explicit LockedStackAdapter(std::uint32_t Threads, std::uint32_t Capacity)
      : Stack(Threads, Capacity) {}

  OpOutcome apply(std::uint32_t Tid, bool IsPush, std::uint32_t Value,
                  std::uint64_t &Retries) {
    (void)Retries;
    if (IsPush) {
      const PushResult R = Stack.push(Tid, Value);
      return R == PushResult::Done ? OpOutcome::Ok : OpOutcome::Full;
    }
    const auto R = Stack.pop(Tid);
    return R.isValue() ? OpOutcome::Ok : OpOutcome::Empty;
  }

  void prefillOne(std::uint32_t Value) { (void)Stack.push(0, Value); }

  LockedStack<> Stack;
};

TEST(DriverTest, RunsConfiguredOperationCount) {
  WorkloadConfig Config;
  Config.Threads = 3;
  Config.OpsPerThread = 500;
  Config.Capacity = 64;
  Config.PrefillPercent = 50;
  LockedStackAdapter Adapter(Config.Threads, Config.Capacity);
  const WorkloadReport Report = runClosedLoop(Adapter, Config);
  EXPECT_EQ(Report.PerThread.size(), 3u);
  EXPECT_EQ(Report.totalOps(), 3u * 500u);
  EXPECT_GT(Report.DurationSec, 0.0);
  EXPECT_GT(Report.throughputOpsPerSec(), 0.0);
  EXPECT_EQ(Report.totalAborts(), 0u);
  for (const ThreadReport &T : Report.PerThread)
    EXPECT_EQ(T.Latency.count(), 500u);
}

TEST(DriverTest, PrefillLeavesElementsToPop) {
  WorkloadConfig Config;
  Config.Threads = 1;
  Config.OpsPerThread = 100;
  Config.PushPercent = 0; // Pop-only: prefill must provide values.
  Config.Capacity = 1000;
  Config.PrefillPercent = 50; // 500 elements.
  LockedStackAdapter Adapter(1, Config.Capacity);
  const WorkloadReport Report = runClosedLoop(Adapter, Config);
  EXPECT_EQ(Report.PerThread[0].Pops, 100u);
  EXPECT_EQ(Report.PerThread[0].Empties, 0u);
}

TEST(DriverTest, PushOnlyWorkloadHitsFull) {
  WorkloadConfig Config;
  Config.Threads = 1;
  Config.OpsPerThread = 100;
  Config.PushPercent = 100;
  Config.Capacity = 10;
  Config.PrefillPercent = 0;
  LockedStackAdapter Adapter(1, Config.Capacity);
  const WorkloadReport Report = runClosedLoop(Adapter, Config);
  EXPECT_EQ(Report.PerThread[0].Pushes, 10u);
  EXPECT_EQ(Report.PerThread[0].Fulls, 90u);
}

TEST(DriverTest, FairnessComputedFromPerThreadCounts) {
  WorkloadReport Report;
  Report.PerThread.resize(2);
  Report.PerThread[0].Pushes = 100;
  Report.PerThread[1].Pushes = 100;
  EXPECT_DOUBLE_EQ(Report.fairness(), 1.0);
  Report.PerThread[1].Pushes = 0;
  EXPECT_NEAR(Report.fairness(), 0.5, 1e-9);
}

TEST(WorkloadTest, SpinThinkWaitsApproximately) {
  const auto Begin = std::chrono::steady_clock::now();
  spinThink(200000); // 200us.
  const auto ElapsedNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Begin)
          .count();
  EXPECT_GE(ElapsedNs, 200000);
}

} // namespace
} // namespace csobj
