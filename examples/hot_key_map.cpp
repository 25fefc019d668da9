//===- examples/hot_key_map.cpp - Zipf-skewed keyed traffic --------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hot-key cache workload over the contention-sensitive ordered map:
/// keys are drawn Zipf(1.1) through the soak layer's ArrivalStream, so a
/// handful of keys absorb most of the traffic — the regime a per-region
/// Fig-3 seam is built for. Reads (the bulk of cache traffic) stay on
/// the wait-free search path no matter how hot their key is; only
/// *writers of the same hot region* ever serialize, and the path
/// breakdown printed at the end shows exactly how often that happened.
///
/// The arrival sequence is deterministic (schedule + seed), pre-drawn,
/// and split round-robin across the workers, so reruns see identical
/// traffic. Each worker applies its slice: IsPush arrivals write (insert
/// or, on odd values, erase), the rest read. The example checks the
/// skew actually materialized (top keys dominate), that the map's path
/// counters conserve over the whole run, and prints the shortcut/lock
/// split — bench/bench_map.cpp (E16) measures the same machinery as a
/// proper sweep.
///
//===----------------------------------------------------------------------===//

#include "core/ContentionSensitiveMap.h"
#include "faults/FaultInjector.h"
#include "runtime/SpinBarrier.h"
#include "soak/ArrivalSchedule.h"

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

using namespace csobj;

namespace {

constexpr std::uint32_t Workers = 4;
constexpr std::uint32_t KeyRange = 256;
constexpr std::uint64_t TotalArrivals = 200000;
constexpr std::uint32_t WritePercent = 20; // cache traffic: mostly reads

} // namespace

int main() {
  // Zipf(1.1) keyed arrivals at a flat nominal rate. Only the key/op
  // shape matters here — the timestamps drive the soak harness (E15),
  // not this closed-loop example.
  soak::ArrivalSchedule Schedule = soak::ArrivalSchedule::flat(50000.0);
  Schedule.Keys = KeyRange;
  Schedule.ZipfS = 1.1;
  Schedule.PushPercent = WritePercent;
  soak::ArrivalStream Stream(Schedule, /*Seed=*/0x40E57ull);

  std::vector<soak::Arrival> Arrivals;
  Arrivals.reserve(TotalArrivals);
  std::vector<std::uint64_t> PerKey(KeyRange, 0);
  for (std::uint64_t I = 0; I < TotalArrivals; ++I) {
    Arrivals.push_back(Stream.next());
    ++PerKey[Arrivals.back().Key];
  }

  // The skew must be real: the 8 hottest keys of 256 should carry the
  // majority of the traffic under Zipf(1.1).
  std::vector<std::uint64_t> Sorted(PerKey);
  std::sort(Sorted.rbegin(), Sorted.rend());
  std::uint64_t Top8 = 0;
  for (std::uint32_t K = 0; K < 8; ++K)
    Top8 += Sorted[K];

  ContentionSensitiveMap<> Map(Workers, /*Capacity=*/KeyRange);
  for (std::uint32_t K = 0; K < KeyRange / 2; ++K)
    (void)Map.insert(0, K, K + 1);

  // The library convention for contended measurements: 10% yield
  // probability per shared access (FaultPlan::chaos).
  const FaultPlan Chaos = FaultPlan::chaos(Workers, /*YieldPermille=*/100);
  FaultClock Clock;
  SpinBarrier StartLine(Workers + 1);
  std::vector<std::thread> Threads;
  for (std::uint32_t W = 0; W < Workers; ++W)
    Threads.emplace_back([&, W] {
      FaultScope Faults(Chaos, W, Clock);
      StartLine.arriveAndWait();
      for (std::uint64_t I = W; I < TotalArrivals; I += Workers) {
        const soak::Arrival &A = Arrivals[I];
        if (!A.IsPush)
          (void)Map.get(W, A.Key);
        else if (A.Value % 2 == 0)
          (void)Map.insert(W, A.Key, A.Value);
        else
          (void)Map.erase(W, A.Key);
      }
    });
  StartLine.arriveAndWait();
  for (std::thread &T : Threads)
    T.join();

  const obs::PathSnapshot S = Map.pathSnapshot();
  const std::uint64_t Prefill = KeyRange / 2;
  std::cout << "hot-key map: " << TotalArrivals << " arrivals over "
            << KeyRange << " keys, Zipf(1.1), " << WritePercent
            << "% writes, " << Workers << " workers\n"
            << "  top-8 keys carried "
            << (100 * Top8 + TotalArrivals / 2) / TotalArrivals
            << "% of the traffic\n"
            << "  paths: shortcut " << S.path(obs::Path::Shortcut)
            << ", lock " << S.path(obs::Path::Lock) << " (aborted shortcuts "
            << S.event(obs::Event::ShortcutAbort) << "), live entries "
            << Map.sizeForTesting() << "\n";

  if (Top8 * 2 < TotalArrivals) {
    std::cerr << "FAIL: Zipf skew did not materialize\n";
    return 1;
  }
  if (!S.conserves() || S.Ops != TotalArrivals + Prefill) {
    std::cerr << "FAIL: path counters do not conserve over the run\n";
    return 1;
  }
  std::cout << "OK: every operation retired on exactly one path; reads "
               "never serialized\n";
  return 0;
}
