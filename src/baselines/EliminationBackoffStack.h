//===- baselines/EliminationBackoffStack.h - HSY stack ----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hendler, Shavit & Yerushalmi's elimination-backoff stack (SPAA'04):
/// a Treiber stack whose contended operations retreat to an elimination
/// array where a concurrent push/pop pair cancels out without touching
/// the central stack at all. The paper's Section 5 points at contention
/// managers as the wider context; this structure is the classic
/// *collision-based* contention manager and serves as the ablation
/// contrast to the paper's shortcut-plus-lock strategy (experiment E8).
///
/// The rendezvous is perf/EliminationArray.h's HSY slot machine (Empty
/// -> WaitingGive/WaitingTake -> Done -> Empty, ABA-tagged; a waiting
/// operation spins a bounded budget, then withdraws), entered at a slot
/// drawn from a per-operation SplitMix64 stream. HSY pairs any push with
/// any pop, so the match gate is always true. The central stack is driven
/// through TreiberStack's single-attempt (abortable) operations, so every
/// lost CAS race is a chance to eliminate.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BASELINES_ELIMINATIONBACKOFFSTACK_H
#define CSOBJ_BASELINES_ELIMINATIONBACKOFFSTACK_H

#include "baselines/TreiberStack.h"
#include "perf/EliminationArray.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <optional>

namespace csobj {

/// Treiber stack with an elimination-backoff layer.
class EliminationBackoffStack {
public:
  using Value = std::uint32_t;

  /// \p NumThreads is the paper's n; \p SlotCount elimination slots;
  /// \p SpinBudget bounded wait (in slot re-reads) before withdrawing.
  EliminationBackoffStack(std::uint32_t NumThreads, std::uint32_t Capacity,
                          std::uint32_t SlotCount = 4,
                          std::uint32_t SpinBudget = 64)
      : Central(NumThreads, Capacity), Elim(SlotCount, SpinBudget) {}

  /// Pushes \p V, eliminating against a concurrent pop when the central
  /// CAS is contended. Returns Done or Full.
  PushResult push(Value V) {
    SplitMix64 Rng(seedFrom(V));
    while (true) {
      const PushResult Direct = Central.tryPushOnce(V);
      if (Direct != PushResult::Abort)
        return Direct;
      if (Elim.tryGive(V, Rng(), anyPartner))
        return PushResult::Done;
    }
  }

  /// Pops a value, eliminating against a concurrent push when the
  /// central CAS is contended. Returns a value or Empty.
  PopResult<Value> pop() {
    SplitMix64 Rng(seedFrom(0x504f50u));
    while (true) {
      const PopResult<Value> Direct = Central.tryPopOnce();
      if (!Direct.isAbort())
        return Direct;
      if (const std::optional<Value> V = Elim.tryTake(Rng(), anyPartner))
        return PopResult<Value>::value(*V);
    }
  }

  std::uint32_t capacity() const { return Central.capacity(); }
  std::uint32_t sizeForTesting() const { return Central.sizeForTesting(); }

  /// Number of operations that completed via elimination (relaxed
  /// counter; benchmarking aid for E8).
  std::uint64_t eliminationCountForTesting() const {
    return Elim.exchangesForTesting();
  }

private:
  static bool anyPartner() { return true; }

  static std::uint64_t seedFrom(std::uint32_t Salt) {
    // Thread-distinct, cheap seed; elimination only needs decorrelation.
    static thread_local std::uint64_t Counter = 0;
    return (++Counter * 0x9e3779b97f4a7c15ull) ^ Salt;
  }

  TreiberStack Central;
  EliminationArrayT<> Elim;
};

} // namespace csobj

#endif // CSOBJ_BASELINES_ELIMINATIONBACKOFFSTACK_H
