//===- examples/progress_demo.cpp - The progress-condition ladder --------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Makes the paper's hierarchy of progress conditions (Section 1.2)
/// tangible. The same workload — several threads hammering one stack
/// under injected asynchrony — runs against the three figures:
///
///  * Figure 1 (abortable): operations may return bottom; the caller
///    sees every abort.
///  * Figure 2 (non-blocking): bottoms disappear into retries; some
///    operations retry many times.
///  * Figure 3 (contention-sensitive, starvation-free): no bottoms, no
///    caller-visible retries, and the per-thread completion counts stay
///    balanced.
///
//===----------------------------------------------------------------------===//

#include "core/AbortableStack.h"
#include "core/ContentionSensitiveStack.h"
#include "core/NonBlockingStack.h"
#include "faults/FaultInjector.h"
#include "runtime/SpinBarrier.h"
#include "support/SplitMix64.h"

#include <iostream>
#include <thread>
#include <vector>

using namespace csobj;

namespace {

constexpr std::uint32_t Threads = 4;
constexpr std::uint32_t OpsPerThread = 30000;
constexpr std::uint32_t ChaosPermille = 100;

struct Tally {
  std::uint64_t Completed = 0;
  std::uint64_t Aborts = 0;
  std::uint64_t Retries = 0;
};

/// Runs the standard workload; DoOp(Stack, Tid, IsPush, V, Tally).
template <typename StackT, typename DoOpFn>
std::vector<Tally> hammer(StackT &Stack, DoOpFn DoOp) {
  std::vector<Tally> Tallies(Threads);
  const FaultPlan Chaos = FaultPlan::chaos(Threads, ChaosPermille);
  FaultClock Clock;
  SpinBarrier StartLine(Threads);
  std::vector<std::thread> Workers;
  for (std::uint32_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      FaultScope Faults(Chaos, T, Clock);
      SplitMix64 Rng(T + 100);
      StartLine.arriveAndWait();
      for (std::uint32_t I = 0; I < OpsPerThread; ++I) {
        const bool IsPush = Rng.chance(1, 2);
        const auto V = static_cast<std::uint32_t>(Rng.below(1u << 16)) + 1;
        DoOp(Stack, T, IsPush, V, Tallies[T]);
      }
    });
  for (auto &W : Workers)
    W.join();
  return Tallies;
}

void report(const char *Name, const std::vector<Tally> &Tallies) {
  std::uint64_t Completed = 0, Aborts = 0, Retries = 0;
  std::uint64_t MinCompleted = ~std::uint64_t{0};
  for (const Tally &T : Tallies) {
    Completed += T.Completed;
    Aborts += T.Aborts;
    Retries += T.Retries;
    MinCompleted = std::min(MinCompleted, T.Completed);
  }
  std::cout << Name << ":\n"
            << "  completed ops          : " << Completed << '\n'
            << "  bottoms seen by caller : " << Aborts << '\n'
            << "  internal retries       : " << Retries << '\n'
            << "  slowest thread finished: " << MinCompleted << " ops\n";
}

} // namespace

int main() {
  std::cout << "same workload (" << Threads << " threads x " << OpsPerThread
            << " ops, asynchrony injection " << ChaosPermille
            << " permille), three progress conditions:\n\n";

  {
    AbortableStack<> Stack(1024);
    const auto Tallies = hammer(Stack, [](AbortableStack<> &S, std::uint32_t,
                                          bool IsPush, std::uint32_t V,
                                          Tally &T) {
      if (IsPush) {
        if (S.weakPush(V) == PushResult::Abort)
          ++T.Aborts;
        else
          ++T.Completed;
      } else if (S.weakPop().isAbort()) {
        ++T.Aborts;
      } else {
        ++T.Completed;
      }
    });
    report("figure 1 — abortable (obstruction-free and then some)",
           Tallies);
  }

  {
    NonBlockingStack<> Stack(1024);
    const auto Tallies = hammer(
        Stack, [](NonBlockingStack<> &S, std::uint32_t, bool IsPush,
                  std::uint32_t V, Tally &T) {
          if (IsPush) {
            const auto R = S.pushCounting(V);
            T.Retries += R.Retries;
          } else {
            const auto R = S.popCounting();
            T.Retries += R.Retries;
          }
          ++T.Completed;
        });
    report("\nfigure 2 — non-blocking (bottoms become retries)", Tallies);
  }

  {
    ContentionSensitiveStack<> Stack(Threads, 1024);
    const auto Tallies = hammer(
        Stack, [](ContentionSensitiveStack<> &S, std::uint32_t Tid,
                  bool IsPush, std::uint32_t V, Tally &T) {
          if (IsPush)
            (void)S.push(Tid, V);
          else
            (void)S.pop(Tid);
          ++T.Completed;
        });
    report("\nfigure 3 — contention-sensitive, starvation-free", Tallies);
    std::cout << "  (and solo operations still cost just six shared "
                 "accesses — run access_audit)\n";
  }
  return 0;
}
