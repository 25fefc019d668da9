//===- core/TimestampBoost.h - Lock-free starvation boost -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's concluding section points to contention managers that
/// boost obstruction-free/non-blocking algorithms to starvation-free or
/// wait-free ones (its references [4], Fich-Luchangco-Moir-Shavit, and
/// [25], Taubenfeld). This header implements a simplified transformation
/// in that family as the lock-free counterpart to Figure 3:
///
///  * fast path — identical shape to Figure 3's shortcut: if nobody is
///    announced, try the weak operation once (solo cost: one extra read);
///  * slow path — instead of a lock, take a unique timestamp from a
///    fetch-and-add ticket and announce it. Announced processes defer to
///    the minimum timestamp: only the current minimum keeps retrying the
///    weak operation; everyone else waits. Timestamps are unique and
///    FIFO, so every announced process eventually becomes the minimum and
///    completes (same bounded-interference argument as the paper's
///    Lemma 2 for the stragglers still on the fast path).
///
/// Compared with Figure 3: no lock and no FLAG/TURN ring; fairness is
/// FIFO by announcement order rather than round-robin; the slow path
/// scans n announcement registers per wait iteration. Experiment E9
/// compares the two mechanisms head to head.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_TIMESTAMPBOOST_H
#define CSOBJ_CORE_TIMESTAMPBOOST_H

#include "core/ContentionSensitiveStack.h"
#include "core/Results.h"
#include "memory/AtomicRegister.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

namespace csobj {

/// Timestamp-deference skeleton: strongApply never returns bottom and is
/// starvation-free, using announcements instead of a lock.
class TimestampBoost {
public:
  /// Zero \p NumThreads throws std::invalid_argument (a hard check,
  /// kept under NDEBUG: the announcement array would be empty).
  explicit TimestampBoost(std::uint32_t NumThreads)
      : N(NumThreads),
        Announce(new CacheLinePadded<AtomicRegister<std::uint64_t>>[
            NumThreads]) {
    if (NumThreads < 1)
      throw std::invalid_argument("TimestampBoost: need at least one process");
    for (std::uint32_t I = 0; I < NumThreads; ++I)
      Announce[I].value().write(Inactive);
  }

  /// Figure 3's strongApply contract: \p WeakOp returns std::optional,
  /// nullopt meaning bottom/abort.
  template <typename WeakOpFn>
  auto strongApply(std::uint32_t Tid, WeakOpFn WeakOp)
      -> typename std::invoke_result_t<WeakOpFn>::value_type {
    assert(Tid < N && "thread id out of range");
    if (ActiveCount.read() == 0) { // Fast path: nobody announced.
      if (auto Res = WeakOp())
        return *Res;
    }
    // Slow path: announce a unique timestamp and defer to the minimum.
    ActiveCount.fetchAdd(1);
    const std::uint64_t MyStamp = Ticket.fetchAdd(1);
    Announce[Tid].value().write(MyStamp);
    SpinWait Waiter;
    while (true) {
      if (isMinimumAnnounced(Tid, MyStamp)) {
        if (auto Res = WeakOp()) {
          Announce[Tid].value().write(Inactive);
          // Decrement last so fast-path readers cannot see count 0 while
          // our announcement might still stall a minimum check.
          ActiveCount.fetchAdd(static_cast<std::uint32_t>(-1));
          return *Res;
        }
        // Interference from fast-path stragglers: bounded, retry.
        continue;
      }
      Waiter.once();
    }
  }

  std::uint32_t numThreads() const { return N; }

  /// Number of processes currently announced (test/debug aid).
  std::uint32_t announcedForTesting() const {
    return ActiveCount.peekForTesting();
  }

private:
  static constexpr std::uint64_t Inactive = ~std::uint64_t{0};

  /// True iff no announced process carries a smaller timestamp.
  bool isMinimumAnnounced(std::uint32_t Tid, std::uint64_t MyStamp) const {
    for (std::uint32_t J = 0; J < N; ++J) {
      if (J == Tid)
        continue;
      const std::uint64_t Stamp = Announce[J].value().read();
      if (Stamp < MyStamp)
        return false;
    }
    return true;
  }

  const std::uint32_t N;
  AtomicRegister<std::uint32_t> ActiveCount{0};
  AtomicRegister<std::uint64_t> Ticket{0};
  std::unique_ptr<CacheLinePadded<AtomicRegister<std::uint64_t>>[]> Announce;
};

/// TimestampBoost applied to the abortable stack: the lock-free
/// starvation-free stack (ablation counterpart of Figure 3) — the Figure 3
/// stack with the boost as its skeleton. Construct with (n, k).
template <typename Config = Compact64>
using BoostedStack =
    ContentionSensitiveStack<Config, TasLock, NoBackoff,
                             DefaultRegisterPolicy, TimestampBoost>;

} // namespace csobj

#endif // CSOBJ_CORE_TIMESTAMPBOOST_H
