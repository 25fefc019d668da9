//===- perfbench/src/Stacks.cpp - stack-solo and bag-contended --*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two stack workloads share one worker:
///
///  * stack-solo — one thread on ContentionSensitiveStack<>: the paper's
///    contention-free path (Fig-1 weak op + Fig-3 shortcut) and nothing
///    else.
///  * bag-contended — two threads on AdaptiveShardedStack<8>: routing,
///    elimination, the shard controller and the doorway+lock path.
///
/// Ops are 50/50 push/pop drawn from the seed. Each thread's walk is
/// reflected at +-Bound around the prefill level, so the object can
/// never be full or empty: every op is a real push or pop, and a Full or
/// Empty answer is a failed op.
///
/// Capacities are the default Compact64 codec's limit: its TOP word has
/// a 16-bit index, so one stack holds at most 65535 elements.
///
//===----------------------------------------------------------------------===//

#include "ClosedLoopRun.h"
#include "Workloads.h"

#include "core/ContentionSensitiveStack.h"
#include "perf/AdaptiveShardedStack.h"
#include "support/SplitMix64.h"

#include <type_traits>

namespace perfbench {
namespace {

constexpr std::uint32_t MaxStackCapacity = csobj::Compact64::Top::MaxIndex;
constexpr std::uint32_t SmokeStackCapacity = 4095;

/// Prefill record: the conservation check needs what set-up pushed.
struct StackState {
  std::uint64_t PrefillCount = 0;
  std::uint64_t PrefillSum = 0;
};

template <typename StackT>
constexpr bool IsBag = requires(const StackT &S) { S.activeShards(); };

/// One thread's reflected 50/50 walk, with value-sum bookkeeping.
template <typename StackT> class StackWorker {
public:
  StackWorker(StackT &S, std::uint32_t Tid, std::uint64_t Seed,
              std::int64_t Bound, const char *Prefix)
      : S(&S), Tid(Tid), Rng(csobj::SplitMix64(Seed).split(Tid)),
        Bound(Bound), ValueSeq(std::uint64_t{Tid} << 40),
        PushName(std::string(Prefix) + ".push"),
        PopName(std::string(Prefix) + ".pop") {}

  Kind op() {
    if (BitsLeft == 0) {
      Bits = Rng();
      BitsLeft = 64;
    }
    bool Push = Bits & 1;
    Bits >>= 1;
    --BitsLeft;
    if (Net >= Bound)
      Push = false;
    else if (Net <= -Bound)
      Push = true;
    if (Push) {
      const std::uint32_t V = static_cast<std::uint32_t>(
          (++ValueSeq * 0x9e3779b97f4a7c15ull) >> 33);
      if (S->push(Tid, V) == csobj::PushResult::Done) {
        PushSum += V;
        ++Net;
      } else {
        ++Failed;
      }
      return Insert;
    }
    const auto Res = S->pop(Tid);
    if (Res.isValue()) {
      PopSum += Res.value();
      --Net;
    } else {
      ++Failed;
    }
    return Get;
  }

  /// Terminal path of the last op. The bag routes an op to its home
  /// shard Tid % activeShards(); a reconfiguration during the op can
  /// make this read a neighbouring shard's path (rare: a few per 1k ops).
  obs::Path lastPath() const {
    if constexpr (IsBag<StackT>)
      return S->shard(Tid % S->activeShards()).lastPath(Tid);
    else
      return S->lastPath(Tid);
  }

  double activeShards() const {
    if constexpr (IsBag<StackT>)
      return S->activeShards();
    else
      return 0;
  }

  const char *spanName(Kind K) const {
    return K == Get ? PopName.c_str() : PushName.c_str();
  }

  std::uint64_t pushSum() const { return PushSum; }
  std::uint64_t popSum() const { return PopSum; }
  std::int64_t net() const { return Net; }
  std::uint64_t failed() const { return Failed; }

private:
  StackT *S;
  std::uint32_t Tid;
  csobj::SplitMix64 Rng;
  std::uint64_t Bits = 0;
  unsigned BitsLeft = 0;
  std::int64_t Bound;
  std::int64_t Net = 0;
  std::uint64_t ValueSeq;
  std::uint64_t PushSum = 0, PopSum = 0, Failed = 0;
  std::string PushName, PopName;
};

/// Shared traits of the two stack workloads; \p Solo picks the object.
template <bool Solo> struct StackTraits {
  template <typename Policy>
  using Object = std::conditional_t<
      Solo,
      csobj::ContentionSensitiveStack<csobj::Compact64, csobj::TasLock,
                                      csobj::NoBackoff, Policy>,
      csobj::AdaptiveShardedStack<8, csobj::Compact64, csobj::TasLock,
                                  csobj::NoBackoff, Policy>>;
  template <typename Policy> using Worker = StackWorker<Object<Policy>>;
  using State = StackState;

  static constexpr unsigned Threads = Solo ? 1 : 2;
  /// One timed op per chunk: ~50 ns solo ops would otherwise pay ~40 ns
  /// of clock reads each.
  static constexpr unsigned Chunk = Solo ? 64 : 16;
  static constexpr const char *Prefix = Solo ? "core.stack" : "perf.bag";

  static std::uint32_t capacity(const Args &A) {
    const std::uint32_t PerStack = A.Smoke ? SmokeStackCapacity
                                           : MaxStackCapacity;
    return Solo ? PerStack : PerStack * 8;
  }
  static unsigned setupReps(const Args &A) {
    return A.Smoke ? 2 : (Solo ? 21 : 9);
  }
  static std::uint64_t accessOps(const Args &A) {
    return A.Smoke ? 20000 : 200000;
  }

  template <typename Policy>
  static std::unique_ptr<Object<Policy>> build(const Args &A, State &St,
                                               SpanLog *Log,
                                               std::uint64_t Parent) {
    const std::uint32_t Cap = capacity(A);
    const std::uint64_t T0 = nowNs();
    auto O = std::make_unique<Object<Policy>>(Threads, Cap);
    const std::uint64_t T1 = nowNs();
    csobj::SplitMix64 Rng(A.Seed ^ 0x5eedf111ull);
    St = {};
    for (std::uint32_t I = 0; I < Cap / 2; ++I) {
      const std::uint32_t V = static_cast<std::uint32_t>(Rng.below(1u << 31));
      if (O->push(0, V) == csobj::PushResult::Done) {
        ++St.PrefillCount;
        St.PrefillSum += V;
      }
    }
    if (Log) {
      Log->add({"setup.construct", Log->nextId(0), Parent, T0, T1, 0,
                obs::Path::None});
      Log->add({"setup.prefill", Log->nextId(0), Parent, T1, nowNs(), 0,
                obs::Path::None});
    }
    return O;
  }

  template <typename Policy>
  static std::vector<Worker<Policy>> workers(Object<Policy> &O,
                                             const Args &A) {
    // Each thread wanders at most Bound from the prefill level, so the
    // object stays strictly between empty and full.
    const std::int64_t Bound = capacity(A) / 8 / Threads;
    std::vector<Worker<Policy>> Ws;
    for (std::uint32_t Tid = 0; Tid < Threads; ++Tid)
      Ws.emplace_back(O, Tid, A.Seed, Bound, Prefix);
    return Ws;
  }

  /// Quiesced checks: path conservation, then a full drain whose value
  /// sum and count must equal prefill + pushed - popped.
  template <typename ObjectT, typename WorkerT>
  static void check(Report &R, ObjectT &O, const std::vector<WorkerT> &Ws,
                    const State &St, const std::string &Label) {
    std::uint64_t Failed = 0, Sum = St.PrefillSum;
    std::int64_t Count = static_cast<std::int64_t>(St.PrefillCount);
    for (const auto &W : Ws) {
      Failed += W.failed();
      Sum += W.pushSum() - W.popSum();
      Count += W.net();
    }
    R.check(Label + ".no_full_or_empty_answers", Failed == 0, Failed);
    R.check(Label + ".paths_conserve", O.pathSnapshot().conserves());
    std::vector<std::uint32_t> Buf(O.capacity());
    const std::size_t Drained = O.drain(0, Buf.data(), Buf.size());
    std::uint64_t DrainedSum = 0;
    for (std::size_t I = 0; I < Drained; ++I)
      DrainedSum += Buf[I];
    R.check(Label + ".value_sum_conserved",
            DrainedSum == Sum &&
                static_cast<std::int64_t>(Drained) == Count);
    R.check(Label + ".paths_conserve_after_drain",
            O.pathSnapshot().conserves());
  }

  struct Probe {
    obs::PathSnapshot Paths;
    std::uint64_t InnerOps = 0;
    std::uint64_t Epoch = 0;
  };

  static Probe probe(Object<csobj::Fast> &O) {
    Probe P;
    P.Paths = O.pathSnapshot();
    P.InnerOps = P.Paths.Ops;
    if constexpr (!Solo) {
      P.InnerOps = 0;
      for (std::uint32_t S = 0; S < O.maxShards(); ++S)
        P.InnerOps += O.shard(S).pathSnapshot().Ops;
      P.Epoch = O.reconfigEpoch();
    }
    return P;
  }

  static void layer(Layer &L, const Probe &Before, const Probe &After,
                    const Object<csobj::Fast> &, const LoopResult &Traced) {
    const obs::PathSnapshot D = snapshotDelta(After.Paths, Before.Paths);
    L.fromPaths(D);
    const double UserOps = static_cast<double>(Traced.TotalOps);
    L.InnerOpsPerUserOp =
        ratio(static_cast<double>(After.InnerOps - Before.InnerOps), UserOps);
    L.EliminatedRatio =
        ratio(static_cast<double>(D.path(obs::Path::Eliminated)), UserOps);
    L.ReconfigsPerKop =
        ratio(1000.0 * static_cast<double>(After.Epoch - Before.Epoch),
              UserOps);
    L.GateRetunesPerKop =
        ratio(1000.0 * static_cast<double>(D.event(obs::Event::GateWiden) +
                                           D.event(obs::Event::GateNarrow)),
              UserOps);
  }
};

} // namespace

void runStackSolo(const Args &A, Report &R) {
  runClosedWorkload<StackTraits<true>>(A, R);
}

void runBagContended(const Args &A, Report &R) {
  runClosedWorkload<StackTraits<false>>(A, R);
}

} // namespace perfbench
