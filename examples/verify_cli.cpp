//===- examples/verify_cli.cpp - Linearizability verifier CLI ------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line harness around the linearizability oracle: hammer a
/// chosen implementation with random concurrent operations, record the
/// history of every non-bottom completion, and decide linearizability
/// with the Wing & Gong checker. A downstream user modifying the library
/// (or adding an implementation) runs this to gain confidence beyond the
/// unit suite.
///
///   verify_cli [impl] [options]
///     impl: cs | nb | weak | queue | csqueue | treiber | elimination | ms
///   options:
///     --threads N    concurrent processes per round   (default 3)
///     --ops N        operations per thread per round  (default 6)
///     --rounds N     independent rounds               (default 200)
///     --capacity N   object capacity                  (default 4)
///     --seed N       base PRNG seed                   (default 1)
///     --chaos N      yield permille at shared accesses (default 150)
///
//===----------------------------------------------------------------------===//

#include "baselines/EliminationBackoffStack.h"
#include "baselines/MichaelScottQueue.h"
#include "baselines/TreiberStack.h"
#include "core/AbortableQueue.h"
#include "core/AbortableStack.h"
#include "core/ContentionSensitiveQueue.h"
#include "core/ContentionSensitiveStack.h"
#include "core/NonBlockingStack.h"
#include "faults/FaultInjector.h"
#include "lincheck/Checker.h"
#include "lincheck/Spec.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace csobj;

namespace {

struct Options {
  std::string Impl = "cs";
  std::uint32_t Threads = 3;
  std::uint32_t OpsPerThread = 6;
  std::uint32_t Rounds = 200;
  std::uint32_t Capacity = 4;
  std::uint64_t Seed = 1;
  std::uint32_t ChaosPermille = 150;
};

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto NextValue = [&](std::uint64_t &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = std::strtoull(Argv[++I], nullptr, 10);
      return true;
    };
    std::uint64_t V = 0;
    if (Arg == "--threads" && NextValue(V))
      Opts.Threads = static_cast<std::uint32_t>(V);
    else if (Arg == "--ops" && NextValue(V))
      Opts.OpsPerThread = static_cast<std::uint32_t>(V);
    else if (Arg == "--rounds" && NextValue(V))
      Opts.Rounds = static_cast<std::uint32_t>(V);
    else if (Arg == "--capacity" && NextValue(V))
      Opts.Capacity = static_cast<std::uint32_t>(V);
    else if (Arg == "--seed" && NextValue(V))
      Opts.Seed = V;
    else if (Arg == "--chaos" && NextValue(V))
      Opts.ChaosPermille = static_cast<std::uint32_t>(V);
    else if (Arg == "--help" || Arg == "-h")
      return false;
    else if (Arg[0] != '-')
      Opts.Impl = Arg;
    else {
      std::cerr << "unknown option: " << Arg << "\n";
      return false;
    }
  }
  if (Opts.Threads * Opts.OpsPerThread > 60) {
    std::cerr << "threads*ops must stay <= 60 (checker limit per round)\n";
    return false;
  }
  return true;
}

/// One operation against the object under test; records non-bottom
/// completions into the recorder.
using OpFn = std::function<void(std::uint32_t Tid, bool IsPush,
                                std::uint32_t V, HistoryRecorder &Rec)>;

void record(HistoryRecorder &Rec, OpCode Code, std::uint32_t Arg,
            PushResult R, std::uint64_t T0) {
  if (R != PushResult::Abort)
    Rec.recordOp(Code, Arg,
                 R == PushResult::Full ? ResCode::Full : ResCode::Done, 0,
                 T0, HistoryRecorder::now());
}

void record(HistoryRecorder &Rec, OpCode Code,
            const PopResult<std::uint32_t> &R, std::uint64_t T0) {
  if (R.isValue())
    Rec.recordOp(Code, 0, ResCode::Value, R.value(), T0,
                 HistoryRecorder::now());
  else if (R.isEmpty())
    Rec.recordOp(Code, 0, ResCode::Empty, 0, T0, HistoryRecorder::now());
}

/// Runs all rounds with a fresh object per round. MakeOp builds the
/// per-round operation closure; IsQueue picks the sequential spec.
int runRounds(const Options &Opts, bool IsQueue,
              const std::function<OpFn()> &MakeOp) {
  std::uint64_t TotalOps = 0;
  for (std::uint32_t Round = 0; Round < Opts.Rounds; ++Round) {
    OpFn Op = MakeOp();
    std::vector<HistoryRecorder> Recorders;
    for (std::uint32_t T = 0; T < Opts.Threads; ++T)
      Recorders.emplace_back(T);
    FaultPlan Chaos = FaultPlan::chaos(Opts.Threads, Opts.ChaosPermille);
    Chaos.RateSeed = Opts.Seed * 31 + Round * 7;
    FaultClock Clock;
    SpinBarrier Barrier(Opts.Threads);
    std::vector<std::thread> Workers;
    for (std::uint32_t T = 0; T < Opts.Threads; ++T)
      Workers.emplace_back([&, T] {
        FaultScope Faults(Chaos, T, Clock);
        SplitMix64 Rng(Opts.Seed + Round * 1009 + T);
        Barrier.arriveAndWait();
        for (std::uint32_t I = 0; I < Opts.OpsPerThread; ++I)
          Op(T, Rng.chance(1, 2),
             static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1,
             Recorders[T]);
      });
    for (auto &W : Workers)
      W.join();

    History H = mergeHistories(Recorders);
    TotalOps += H.Ops.size();
    const CheckResult Result =
        IsQueue ? checkLinearizable(H, BoundedQueueSpec(Opts.Capacity))
                : checkLinearizable(H, BoundedStackSpec(Opts.Capacity));
    if (Result.HitSearchCap) {
      std::cerr << "round " << Round << ": INCONCLUSIVE (search cap)\n";
      return 2;
    }
    if (!Result.Linearizable) {
      std::cerr << "round " << Round << ": NOT LINEARIZABLE\n"
                << Result.FailureNote << "\n";
      return 1;
    }
  }
  std::cout << "PASS: " << Opts.Rounds << " rounds, " << TotalOps
            << " completed operations, all histories linearizable\n";
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::cerr << "usage: verify_cli "
                 "[cs|nb|weak|queue|csqueue|treiber|elimination|ms] "
                 "[--threads N] [--ops N] [--rounds N] [--capacity N] "
                 "[--seed N] [--chaos N]\n";
    return 2;
  }

  std::cout << "verifying '" << Opts.Impl << "': " << Opts.Threads
            << " threads x " << Opts.OpsPerThread << " ops x "
            << Opts.Rounds << " rounds, capacity " << Opts.Capacity
            << ", chaos " << Opts.ChaosPermille << " permille\n";

  if (Opts.Impl == "cs")
    return runRounds(Opts, /*IsQueue=*/false, [&] {
      auto S = std::make_shared<ContentionSensitiveStack<>>(Opts.Threads,
                                                            Opts.Capacity);
      return OpFn([S](std::uint32_t Tid, bool IsPush, std::uint32_t V,
                      HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          record(Rec, OpCode::Push, V, S->push(Tid, V), T0);
        else
          record(Rec, OpCode::Pop, S->pop(Tid), T0);
      });
    });
  if (Opts.Impl == "nb")
    return runRounds(Opts, false, [&] {
      auto S = std::make_shared<NonBlockingStack<>>(Opts.Capacity);
      return OpFn([S](std::uint32_t, bool IsPush, std::uint32_t V,
                      HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          record(Rec, OpCode::Push, V, S->push(V), T0);
        else
          record(Rec, OpCode::Pop, S->pop(), T0);
      });
    });
  if (Opts.Impl == "weak")
    return runRounds(Opts, false, [&] {
      auto S = std::make_shared<AbortableStack<>>(Opts.Capacity);
      return OpFn([S](std::uint32_t, bool IsPush, std::uint32_t V,
                      HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          record(Rec, OpCode::Push, V, S->weakPush(V), T0);
        else
          record(Rec, OpCode::Pop, S->weakPop(), T0);
      });
    });
  if (Opts.Impl == "queue")
    return runRounds(Opts, true, [&] {
      auto Q = std::make_shared<AbortableQueue<>>(Opts.Capacity);
      return OpFn([Q](std::uint32_t, bool IsPush, std::uint32_t V,
                      HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          record(Rec, OpCode::Push, V, Q->weakEnqueue(V), T0);
        else
          record(Rec, OpCode::Pop, Q->weakDequeue(), T0);
      });
    });
  if (Opts.Impl == "csqueue")
    return runRounds(Opts, true, [&] {
      auto Q = std::make_shared<ContentionSensitiveQueue<>>(Opts.Threads,
                                                            Opts.Capacity);
      return OpFn([Q](std::uint32_t Tid, bool IsPush, std::uint32_t V,
                      HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          record(Rec, OpCode::Push, V, Q->enqueue(Tid, V), T0);
        else
          record(Rec, OpCode::Pop, Q->dequeue(Tid), T0);
      });
    });
  if (Opts.Impl == "treiber")
    return runRounds(Opts, false, [&] {
      auto S = std::make_shared<TreiberStack>(Opts.Capacity);
      return OpFn([S](std::uint32_t, bool IsPush, std::uint32_t V,
                      HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          record(Rec, OpCode::Push, V, S->push(V), T0);
        else
          record(Rec, OpCode::Pop, S->pop(), T0);
      });
    });
  if (Opts.Impl == "elimination")
    return runRounds(Opts, false, [&] {
      auto S = std::make_shared<EliminationBackoffStack>(Opts.Capacity);
      return OpFn([S](std::uint32_t, bool IsPush, std::uint32_t V,
                      HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          record(Rec, OpCode::Push, V, S->push(V), T0);
        else
          record(Rec, OpCode::Pop, S->pop(), T0);
      });
    });
  if (Opts.Impl == "ms")
    return runRounds(Opts, true, [&] {
      auto Q = std::make_shared<MichaelScottQueue>(Opts.Capacity);
      return OpFn([Q](std::uint32_t, bool IsPush, std::uint32_t V,
                      HistoryRecorder &Rec) {
        const auto T0 = HistoryRecorder::now();
        if (IsPush)
          record(Rec, OpCode::Push, V, Q->enqueue(V), T0);
        else
          record(Rec, OpCode::Pop, Q->dequeue(), T0);
      });
    });

  std::cerr << "unknown implementation: " << Opts.Impl << "\n";
  return 2;
}
