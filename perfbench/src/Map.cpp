//===- perfbench/src/Map.cpp - map-mixed workload ---------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// map-mixed: one thread on ContentionSensitiveMap<> over an 8,192-key
/// range, prefilled with a seed-chosen half of the keys. Ops are 90% get,
/// 5% insert, 5% erase on uniform keys, so the SkipListCore and its
/// HazardDomain do most of the work, with reads beside writes.
///
/// The nodes take about 0.25 MB, well inside one core's L2. A 65,536-key
/// range (1.9 MB, at the edge of a 2 MB L2) made every metric follow
/// the host's shared-L3 traffic, and a second thread made the get tail
/// follow how often a get overlapped the other thread's erase sweep:
/// either way run-to-run spreads reached 0.29.
///
/// Every key K only ever maps to valueOf(K), so each answer is checkable
/// on the spot: a get or erase returns valueOf(K) or Empty, an insert is
/// Done (capacity equals the key range, so Full is a failure).
///
//===----------------------------------------------------------------------===//

#include "ClosedLoopRun.h"
#include "Workloads.h"

#include "core/ContentionSensitiveMap.h"
#include "support/SplitMix64.h"

#include <numeric>

namespace perfbench {
namespace {

constexpr std::uint32_t KeyRange = 1u << 13;
constexpr std::uint32_t SmokeKeyRange = 1u << 12;

/// The one value key \p K is ever given.
constexpr std::uint32_t valueOf(std::uint32_t K) {
  return static_cast<std::uint32_t>((K * 0x9e3779b97f4a7c15ull) >> 33) | 1u;
}

struct MapState {};

template <typename MapT> class MapWorker {
public:
  MapWorker(MapT &M, std::uint32_t Tid, std::uint64_t Seed,
            std::uint32_t Keys)
      : M(&M), Tid(Tid), Rng(csobj::SplitMix64(Seed).split(Tid)),
        Keys(Keys) {}

  Kind op() {
    const std::uint64_t R = Rng();
    LastKey = static_cast<std::uint32_t>(((R & 0xffffffffull) * Keys) >> 32);
    const std::uint32_t Pick = static_cast<std::uint32_t>(((R >> 32) * 100) >> 32);
    if (Pick < 90) {
      const auto Res = M->get(Tid, LastKey);
      if (Res.isValue() ? Res.value() != valueOf(LastKey) : !Res.isEmpty())
        ++Failed;
      return Get;
    }
    if (Pick < 95) {
      if (M->insert(Tid, LastKey, valueOf(LastKey)) != csobj::PushResult::Done)
        ++Failed;
      return Insert;
    }
    const auto Res = M->erase(Tid, LastKey);
    if (Res.isValue() ? Res.value() != valueOf(LastKey) : !Res.isEmpty())
      ++Failed;
    return Erase;
  }

  obs::Path lastPath() const { return M->lastPath(Tid, LastKey); }
  double activeShards() const { return 0; }
  const char *spanName(Kind K) const {
    return K == Get ? "core.map.get"
                    : (K == Insert ? "core.map.insert" : "core.map.erase");
  }
  std::uint64_t failed() const { return Failed; }

private:
  MapT *M;
  std::uint32_t Tid;
  csobj::SplitMix64 Rng;
  std::uint32_t Keys;
  std::uint32_t LastKey = 0;
  std::uint64_t Failed = 0;
};

struct MapTraits {
  template <typename Policy>
  using Object =
      csobj::ContentionSensitiveMap<csobj::TasLock, csobj::NoBackoff, Policy>;
  template <typename Policy> using Worker = MapWorker<Object<Policy>>;
  using State = MapState;

  static constexpr unsigned Threads = 1;
  /// Ops take microseconds, so every op is timed.
  static constexpr unsigned Chunk = 1;

  static std::uint32_t keys(const Args &A) {
    return A.Smoke ? SmokeKeyRange : KeyRange;
  }
  static unsigned setupReps(const Args &A) { return A.Smoke ? 2 : 15; }
  static std::uint64_t accessOps(const Args &A) {
    return A.Smoke ? 2000 : 20000;
  }

  template <typename Policy>
  static std::unique_ptr<Object<Policy>> build(const Args &A, State &,
                                               SpanLog *Log,
                                               std::uint64_t Parent) {
    const std::uint32_t K = keys(A);
    const std::uint64_t T0 = nowNs();
    auto M = std::make_unique<Object<Policy>>(Threads, K);
    const std::uint64_t T1 = nowNs();
    // A seed-chosen half of the keys, inserted in shuffled order.
    std::vector<std::uint32_t> Order(K);
    std::iota(Order.begin(), Order.end(), 0u);
    csobj::SplitMix64 Rng(A.Seed ^ 0x3a9f00d5ull);
    for (std::uint32_t I = K - 1; I > 0; --I)
      std::swap(Order[I], Order[Rng.below(I + 1)]);
    for (std::uint32_t I = 0; I < K / 2; ++I)
      (void)M->insert(0, Order[I], valueOf(Order[I]));
    if (Log) {
      Log->add({"setup.construct", Log->nextId(0), Parent, T0, T1, 0,
                obs::Path::None});
      Log->add({"setup.prefill", Log->nextId(0), Parent, T1, nowNs(), 0,
                obs::Path::None});
    }
    return M;
  }

  template <typename Policy>
  static std::vector<Worker<Policy>> workers(Object<Policy> &M,
                                             const Args &A) {
    std::vector<Worker<Policy>> Ws;
    for (std::uint32_t Tid = 0; Tid < Threads; ++Tid)
      Ws.emplace_back(M, Tid, A.Seed, keys(A));
    return Ws;
  }

  /// Quiesced checks: every answer was valueOf(K) or Empty, the live
  /// walk agrees with the admission counter, and paths conserve.
  template <typename ObjectT, typename WorkerT>
  static void check(Report &R, ObjectT &M, const std::vector<WorkerT> &Ws,
                    const State &, const std::string &Label) {
    std::uint64_t Failed = 0;
    for (const auto &W : Ws)
      Failed += W.failed();
    R.check(Label + ".answers_match_value_of_key", Failed == 0, Failed);
    R.check(Label + ".live_count_matches_counter",
            M.core().liveCountForTesting() ==
                M.core().liveCounterForTesting());
    R.check(Label + ".paths_conserve", M.pathSnapshot().conserves());
  }

  struct Probe {
    obs::PathSnapshot Paths;
  };

  static Probe probe(Object<csobj::Fast> &M) {
    return {M.pathSnapshot()};
  }

  static void layer(Layer &L, const Probe &Before, const Probe &After,
                    const Object<csobj::Fast> &M, const LoopResult &Traced) {
    const obs::PathSnapshot D = snapshotDelta(After.Paths, Before.Paths);
    L.fromPaths(D);
    L.InnerOpsPerUserOp = ratio(static_cast<double>(D.Ops),
                                static_cast<double>(Traced.TotalOps));
    LatencyHistogram Inserts, Erases;
    for (const TraceTally &T : Traced.Traces) {
      Inserts.merge(T.ByKind[Insert]);
      Erases.merge(T.ByKind[Erase]);
    }
    L.MapInsertP50Ns = quantileNs(Inserts, 0.50);
    L.MapEraseP50Ns = quantileNs(Erases, 0.50);
    L.MapEraseP99Ns = quantileNs(Erases, 0.99);
    // Gets never enter a region's slow path, so the share is of updates.
    // Chunk is 1: every traced op was sampled, so the counts are exact.
    static_assert(Chunk == 1);
    L.MapLockRatio =
        ratio(static_cast<double>(D.path(obs::Path::Lock) +
                                  D.path(obs::Path::Degraded)),
              static_cast<double>(Inserts.count() + Erases.count()));
    L.HazardRetireHighWater =
        static_cast<double>(M.core().domain().retireHighWater());
    L.NodesAllocated =
        static_cast<double>(M.core().allocatedNodesForTesting());
  }
};

} // namespace

void runMapMixed(const Args &A, Report &R) {
  runClosedWorkload<MapTraits>(A, R);
}

} // namespace perfbench
