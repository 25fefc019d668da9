//===- runtime/LincheckRounds.h - Lincheck round loop -----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The round loop that checks a stack, queue or bag for linearizability
/// outside the conformance battery: each round builds a fresh object,
/// races a few threads of random pushes and pops on it through
/// pushOn/popOn (runtime/PushPop.h), records every non-bottom answer and
/// checks the merged history against a sequential spec. It starts
/// threads, so it lives here; src/lincheck stays the pure checker. It
/// answers with the first failing round's CheckResult, so callers need
/// no test framework: verify_cli runs it from the command line.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_RUNTIME_LINCHECKROUNDS_H
#define CSOBJ_RUNTIME_LINCHECKROUNDS_H

#include "faults/FaultInjector.h"
#include "faults/FaultPlan.h"
#include "lincheck/Checker.h"
#include "lincheck/History.h"
#include "runtime/PushPop.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace csobj {

/// What the loop runs: Rounds rounds of Threads threads, each drawing
/// OpsPerThread operations, a push or a pop with even odds, pushing
/// values in [1, 2^16].
struct RoundPlan {
  std::uint32_t Threads = 3;
  std::uint32_t OpsPerThread = 6;
  std::uint32_t Rounds = 1;
  /// Thread T of round R draws from SplitMix64(SeedBase + R * SeedStride
  /// + T).
  std::uint64_t SeedBase = 0;
  std::uint64_t SeedStride = 1;
  /// Yield permille of FaultPlan::chaos on every thread, 0 for none.
  /// Round R draws its noise from SeedBase * 31 + R * 7.
  std::uint32_t ChaosPermille = 0;
};

/// How the loop ended.
struct RoundsVerdict {
  /// The first failing round's check, or the last round's.
  CheckResult Check;
  /// The round Check belongs to.
  std::uint32_t Round = 0;
  /// Answers recorded, and bottoms answered, over the rounds run.
  std::uint64_t Recorded = 0;
  std::uint64_t Aborts = 0;

  bool passed() const { return Check.Linearizable && !Check.HitSearchCap; }

  /// Why the loop failed, one line for an inconclusive search and the
  /// checker's note below it for a history that does not linearize.
  std::string failure() const {
    const std::string At = "round " + std::to_string(Round) + ": ";
    if (Check.HitSearchCap)
      return At + "INCONCLUSIVE (search cap)";
    return At + "NOT LINEARIZABLE\n" + Check.FailureNote;
  }
};

/// Runs \p Plan on a fresh ObjT(Args...) per round and checks each
/// round's history against \p Spec; stops at the first round that fails.
template <typename ObjT, typename SpecT, typename... ArgTs>
RoundsVerdict checkRounds(const RoundPlan &Plan, const SpecT &Spec,
                          const ArgTs &...Args) {
  RoundsVerdict Verdict;
  Verdict.Check.Linearizable = true;
  for (std::uint32_t Round = 0; Round < Plan.Rounds; ++Round) {
    const auto Obj = std::make_unique<ObjT>(Args...);
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < Plan.Threads; ++T)
      Recorders.emplace_back(T);
    std::vector<std::uint64_t> Aborts(Plan.Threads, 0);
    FaultPlan Noise;
    if (Plan.ChaosPermille > 0) {
      Noise = FaultPlan::chaos(Plan.Threads, Plan.ChaosPermille);
      Noise.RateSeed = Plan.SeedBase * 31 + Round * 7;
    }
    FaultClock Clock;
    SpinBarrier Barrier(Plan.Threads);
    std::vector<std::thread> Workers;
    for (std::uint32_t T = 0; T < Plan.Threads; ++T)
      Workers.emplace_back([&, T] {
        FaultScope Faults(Noise, T, Clock);
        SplitMix64 Rng(Plan.SeedBase + Round * Plan.SeedStride + T);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < Plan.OpsPerThread; ++I) {
          const bool IsPush = Rng.chance(1, 2);
          const auto V = static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
          const std::uint64_t T0 = HistoryRecorder::now();
          if (IsPush) {
            const PushResult R = pushOn(*Obj, T, V);
            recordPush(Recorders[T], R, V, T0);
            Aborts[T] += R == PushResult::Abort;
          } else {
            const PopResult<std::uint32_t> R = popOn(*Obj, T);
            recordPop(Recorders[T], R, T0);
            Aborts[T] += R.isAbort();
          }
        }
      });
    for (std::thread &W : Workers)
      W.join();

    const History H = mergeHistories(Recorders);
    Verdict.Round = Round;
    Verdict.Recorded += H.Ops.size();
    for (const std::uint64_t A : Aborts)
      Verdict.Aborts += A;
    if (H.wellFormed()) {
      Verdict.Check = checkLinearizable(H, Spec);
    } else {
      Verdict.Check = CheckResult{};
      Verdict.Check.FailureNote = "history not well formed:\n" + H.describe();
    }
    if (!Verdict.passed())
      return Verdict;
  }
  return Verdict;
}

} // namespace csobj

#endif // CSOBJ_RUNTIME_LINCHECKROUNDS_H
