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
#include "lincheck/Spec.h"
#include "runtime/LincheckRounds.h"

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

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

/// Runs all rounds on a fresh ObjT(Args...) per round against SpecT at
/// the chosen capacity.
template <typename ObjT, typename SpecT, typename... ArgTs>
int verify(const Options &Opts, const ArgTs &...Args) {
  const RoundsVerdict V = checkRounds<ObjT>(
      {.Threads = Opts.Threads,
       .OpsPerThread = Opts.OpsPerThread,
       .Rounds = Opts.Rounds,
       .SeedBase = Opts.Seed,
       .SeedStride = 1009,
       .ChaosPermille = Opts.ChaosPermille},
      SpecT(Opts.Capacity), Args...);
  if (!V.passed()) {
    std::cerr << V.failure() << "\n";
    return V.Check.HitSearchCap ? 2 : 1;
  }
  std::cout << "PASS: " << Opts.Rounds << " rounds, " << V.Recorded
            << " completed operations, all histories linearizable\n";
  return 0;
}

/// The two ways a row builds its object: from (threads, capacity), or
/// from the capacity alone.
template <typename ObjT, typename SpecT> int threaded(const Options &O) {
  return verify<ObjT, SpecT>(O, O.Threads, O.Capacity);
}
template <typename ObjT, typename SpecT> int unthreaded(const Options &O) {
  return verify<ObjT, SpecT>(O, O.Capacity);
}

/// One row per implementation.
const struct {
  const char *Name;
  int (*Run)(const Options &);
} Impls[] = {
    {"cs", threaded<ContentionSensitiveStack<>, BoundedStackSpec>},
    {"nb", unthreaded<NonBlockingStack<>, BoundedStackSpec>},
    {"weak", unthreaded<AbortableStack<>, BoundedStackSpec>},
    {"queue", unthreaded<AbortableQueue<>, BoundedQueueSpec>},
    {"csqueue", threaded<ContentionSensitiveQueue<>, BoundedQueueSpec>},
    {"treiber", threaded<TreiberStack, BoundedStackSpec>},
    {"elimination", threaded<EliminationBackoffStack, BoundedStackSpec>},
    {"ms", threaded<MichaelScottQueue, BoundedQueueSpec>},
};

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

  for (const auto &I : Impls)
    if (Opts.Impl == I.Name)
      return I.Run(Opts);
  std::cerr << "unknown implementation: " << Opts.Impl << "\n";
  return 2;
}
