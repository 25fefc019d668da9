//===- perf/EliminationArray.h - Generic timed rendezvous ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic elimination array: inverse operations (give/take) rendezvous
/// in CASable slots and cancel out without touching the central object.
/// The slot state machine is Hendler, Shavit & Yerushalmi's (Empty ->
/// WaitingGive/WaitingTake -> Done -> Empty, ABA-tagged), which the HSY
/// baseline (baselines/EliminationBackoffStack.h) runs with an
/// always-true gate. Over the original it adds three things for the
/// acceleration layer:
///
///  * policy-templated and hook-routed: every slot access goes through
///    AtomicRegister<_, Policy>, so rendezvous runs under the wall-clock
///    Driver, the interleaving Explorer, ChaosHook and FaultInjector
///    alike. The spin budget is a bounded number of slot re-reads, so a
///    rendezvous contributes a bounded subtree to the schedule space.
///  * match-gated: the *matcher* — whichever side completes the pairing
///    CAS — first evaluates a caller-supplied gate. The gate read is the
///    linearizability witness: a successful match means the gate held at
///    an instant inside both operations' intervals (the partner was
///    parked in the slot from before the gate read until after the CAS,
///    or its withdraw CAS would have fired), so a bounded stack passes
///    "TOP.index < k" and the eliminated push/pop pair may legally
///    linearize back-to-back at that instant even though it never touches
///    TOP. Pass an always-true gate for unbounded objects.
///  * padded: each slot owns its cache line(s), so parallel rendezvous on
///    different slots never false-share.
///
/// The exchange counter is a plain relaxed std::atomic, deliberately NOT
/// an AtomicRegister: statistics must not add decision points to the
/// explorer's schedule tree or accesses to the solo counts.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERF_ELIMINATIONARRAY_H
#define CSOBJ_PERF_ELIMINATIONARRAY_H

#include "memory/AtomicRegister.h"
#include "support/BitPack.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"
#include "support/SplitMix64.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

namespace csobj {

namespace detail {
/// Per-instance nonce for elimination slot-probe hints, analogous to
/// deriveBackoffSeed (support/Backoff.h): a global construction sequence
/// whitened through SplitMix64. Facades mix this into their slot hints so
/// two unrelated objects never walk the same probe sequence — a shared
/// `static thread_local` probe counter alone restarts identically in
/// every fresh thread, correlating rendezvous attempts across instances.
inline std::uint64_t deriveSlotNonce() {
  static std::atomic<std::uint64_t> Nonce{0};
  SplitMix64 Mix((Nonce.fetch_add(1, std::memory_order_relaxed) + 1) *
                 0x9e3779b97f4a7c15ull);
  return Mix();
}
} // namespace detail

/// Elimination array over 32-bit payloads (the value field of the
/// Compact64 codec family).
///
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Policy = DefaultRegisterPolicy>
class EliminationArrayT {
public:
  using Value = std::uint32_t;
  using RegisterPolicy = Policy;

  /// \p SlotCount rendezvous slots; \p SpinBudget bounded wait (in slot
  /// re-reads) for a partner before withdrawing. A single slot with a
  /// small budget keeps the schedule tree tiny for deterministic tests;
  /// benches use a handful of slots and a larger budget.
  explicit EliminationArrayT(std::uint32_t SlotCount = 4,
                             std::uint32_t SpinBudget = 64)
      : SlotCount(SlotCount), SpinBudget(SpinBudget),
        Slots(new PaddedSlot[SlotCount]) {
    assert(SlotCount >= 1 && "need at least one rendezvous slot");
  }

  /// One rendezvous attempt as the giver: parks \p V in the slot chosen
  /// by \p SlotHint (or hands it straight to a waiting taker). Returns
  /// true iff a taker consumed the value. \p Gate is evaluated by the
  /// matcher immediately before the pairing CAS; returning false declines
  /// the match (see file comment).
  template <typename GateFn>
  bool tryGive(Value V, std::uint64_t SlotHint, GateFn Gate) {
    AtomicRegister<std::uint64_t, Policy> &Slot = slotAt(SlotHint);
    const std::uint64_t W = Slot.read();
    switch (stateOf(W)) {
    case Empty: {
      const std::uint64_t Waiting = makeSlot(WaitingGive, V, bumpTag(W));
      if (!Slot.compareAndSwap(W, Waiting))
        return false;
      const std::uint32_t Budget = spinBudget();
      for (std::uint32_t Spin = 0; Spin < Budget; ++Spin) {
        if (Slot.read() != Waiting) {
          // Only a matching taker can move us (WaitingGive -> Done).
          Slot.write(makeSlot(Empty, 0, bumpTag(Waiting) + 1));
          noteExchange();
          return true;
        }
        cpuRelax();
      }
      // Withdraw; a failed withdrawal means a taker matched meanwhile.
      if (Slot.compareAndSwap(Waiting, makeSlot(Empty, 0, bumpTag(Waiting))))
        return false;
      Slot.write(makeSlot(Empty, 0, bumpTag(Waiting) + 1));
      noteExchange();
      return true;
    }
    case WaitingTake:
      // We are the matcher: witness the gate, then hand the value over.
      if (!Gate())
        return false;
      if (Slot.compareAndSwap(W, makeSlot(Done, V, bumpTag(W)))) {
        noteExchange();
        return true;
      }
      return false;
    case WaitingGive:
    case Done:
      return false;
    }
    return false;
  }

  /// One rendezvous attempt as the taker; returns the giver's value on a
  /// match. Same gate contract as tryGive.
  template <typename GateFn>
  std::optional<Value> tryTake(std::uint64_t SlotHint, GateFn Gate) {
    AtomicRegister<std::uint64_t, Policy> &Slot = slotAt(SlotHint);
    const std::uint64_t W = Slot.read();
    switch (stateOf(W)) {
    case Empty: {
      const std::uint64_t Waiting = makeSlot(WaitingTake, 0, bumpTag(W));
      if (!Slot.compareAndSwap(W, Waiting))
        return std::nullopt;
      const std::uint32_t Budget = spinBudget();
      for (std::uint32_t Spin = 0; Spin < Budget; ++Spin) {
        const std::uint64_t Now = Slot.read();
        if (Now != Waiting) {
          // A giver moved us to Done carrying its value.
          const Value V = valueOf(Now);
          Slot.write(makeSlot(Empty, 0, bumpTag(Now)));
          noteExchange();
          return V;
        }
        cpuRelax();
      }
      if (Slot.compareAndSwap(Waiting, makeSlot(Empty, 0, bumpTag(Waiting))))
        return std::nullopt;
      const std::uint64_t Now = Slot.read();
      const Value V = valueOf(Now);
      Slot.write(makeSlot(Empty, 0, bumpTag(Now)));
      noteExchange();
      return V;
    }
    case WaitingGive: {
      if (!Gate())
        return std::nullopt;
      const Value V = valueOf(W);
      if (Slot.compareAndSwap(W, makeSlot(Done, V, bumpTag(W)))) {
        noteExchange();
        return V;
      }
      return std::nullopt;
    }
    case WaitingTake:
    case Done:
      return std::nullopt;
    }
    return std::nullopt;
  }

  std::uint32_t slotCount() const { return SlotCount; }
  std::uint32_t spinBudget() const {
    return SpinBudget.load(std::memory_order_relaxed);
  }

  /// Retunes the rendezvous window width. The budget is a plain relaxed
  /// atomic like the exchange counter — a control knob, not algorithm
  /// state — so adjusting it adds no decision points to the explorer's
  /// schedule tree and no accesses to the solo counts. Each rendezvous
  /// reads the budget once on entry; in-flight waits finish under the
  /// budget they started with.
  void setSpinBudget(std::uint32_t Budget) {
    SpinBudget.store(Budget, std::memory_order_relaxed);
  }

  /// Heap owned by the array: the padded rendezvous slots.
  std::size_t heapBytes() const {
    return std::size_t{SlotCount} * sizeof(PaddedSlot);
  }

  /// Completed rendezvous (counted once per pair, by the side that
  /// observes the Done handoff first — matcher and parked partner both
  /// note it, so this counts *operations* finished via elimination).
  std::uint64_t exchangesForTesting() const {
    return Exchanges.load(std::memory_order_relaxed);
  }

  /// The slot element type, exposed so the false-sharing regression can
  /// static_assert that adjacent slots never share a line.
  struct alignas(CacheLineSize) PaddedSlot {
    AtomicRegister<std::uint64_t, Policy> Word{};
  };

private:
  enum SlotState : std::uint64_t {
    Empty = 0,
    WaitingGive = 1,
    WaitingTake = 2,
    Done = 3
  };

  // Slot word: state:2 | value:32 | tag:30.
  using StateField = BitField<std::uint64_t, 0, 2>;
  using ValueField = BitField<std::uint64_t, 2, 32>;
  using TagField = BitField<std::uint64_t, 34, 30>;

  static std::uint64_t makeSlot(SlotState S, Value V, std::uint64_t Tag) {
    return StateField::encode(S) | ValueField::encode(V) |
           TagField::encode(Tag & TagField::maxValue());
  }
  static SlotState stateOf(std::uint64_t W) {
    return static_cast<SlotState>(StateField::get(W));
  }
  static Value valueOf(std::uint64_t W) {
    return static_cast<Value>(ValueField::get(W));
  }
  static std::uint64_t bumpTag(std::uint64_t W) {
    return (TagField::get(W) + 1) & TagField::maxValue();
  }

  AtomicRegister<std::uint64_t, Policy> &slotAt(std::uint64_t Hint) {
    // Fibonacci-hash the hint so sequential per-thread hints spread.
    const std::uint64_t Mixed = Hint * 0x9e3779b97f4a7c15ull;
    return Slots[Mixed % SlotCount].Word;
  }

  void noteExchange() { Exchanges.fetch_add(1, std::memory_order_relaxed); }

  const std::uint32_t SlotCount;
  std::atomic<std::uint32_t> SpinBudget;
  std::unique_ptr<PaddedSlot[]> Slots;
  std::atomic<std::uint64_t> Exchanges{0};
};

/// The library-default elimination array.
using EliminationArray = EliminationArrayT<>;

} // namespace csobj

#endif // CSOBJ_PERF_ELIMINATIONARRAY_H
