//===- core/AbortableQueue.h - Abortable array-based queue ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The companion object of the paper's stack: an abortable bounded FIFO
/// queue in the lazy-helping style of Shafiei's array-based algorithms
/// (the paper's reference [22], which covers stacks *and* queues). The
/// paper motivates contention-sensitiveness with "enqueuing and dequeuing
/// on a non-empty queue" as the canonical pair of *non-interfering*
/// operations — this object realizes that: enqueue operations C&S only
/// REAR, dequeue operations C&S only FRONT, so on a non-empty non-full
/// queue they never abort each other (experiment E7).
///
/// Representation (ring of Capacity+1 slots; one is kept free to separate
/// full from empty):
///  * REAR  = <index, value, seqnb>: the last enqueued position, lazy
///    exactly like the stack's TOP — the value is written into
///    ITEMS[index] by the *next* operation's help.
///  * FRONT = <index, cycle>: the position *before* the oldest element
///    (the queue's dummy). The tag counts completed ring cycles (it
///    increments only when INDEX wraps to 0), which both serves as the
///    ABA tag for the FRONT C&S and lets a dequeue compute the exact
///    generation number its target slot must carry (see below).
///  * ITEMS[0..Capacity]: <val, sn> pairs as in the stack. A slot's sn
///    counts how many times the slot has been occupied: enqueues derive
///    each new REAR seqnb from the slot's previous sn + 1, so every slot
///    carries sn = o during its o-th occupancy. Slot 0 starts at sn = -1
///    so that absorbing the help of the initial dummy REAR <0, bot, 0>
///    lands it on sn = 0, the same footing as the other slots.
///
/// Full/empty answers need care that the single-register stack does not:
/// REAR and FRONT cannot be read in one atomic snapshot. Where the paper
/// would need a proof that a stale snapshot still linearizes, this
/// implementation re-validates both registers and *aborts when
/// uncertain* — which abortable semantics explicitly permit (a solo
/// operation never takes these abort paths, as the tests verify).
///
/// The value read also needs certifying. Slot contents are governed by
/// REAR (helped lazily), not FRONT, so a dequeue delayed between its
/// REAR read and its FRONT C&S can observe ITEMS[next(FRONT)] holding
/// the *previous* generation's value — the current occupant's value
/// still unhelped inside REAR — and the FRONT C&S alone would publish
/// that stale value a second time. The cycle tag in FRONT closes the
/// hole for free: the dequeuer knows the exact sn its slot must carry,
/// and on a mismatch the only legal cause (while FRONT is unmoved,
/// which the C&S certifies) is that the current REAR is the unhelped
/// enqueue of that very slot. It re-reads REAR, demands exactly that
/// <index, seqnb>, helps it, and completes with REAR's value; any other
/// disagreement aborts. Solo cost stays at six accesses — the detour
/// (three extra accesses, still bounded) is taken only under
/// concurrency, and a dequeue never aborts merely because REAR advanced,
/// preserving the paper's enqueue/dequeue non-interference.
///
/// Memory orderings (audited for the Fast register policy; identical
/// under Instrumented): ITEMS reads are acquire and every C&S is acq_rel,
/// by the same publish/observe happens-before chain as the stack's TOP
/// (core/AbortableStack.h). Reads of REAR and FRONT stay seq_cst: the
/// full/empty certification argues about a *cross-register* snapshot
/// ("FRONT was unchanged while REAR was re-read"), which leans on a total
/// order over these four loads — exactly what seq_cst provides and
/// acquire alone does not promise in the C++ abstract machine.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_ABORTABLEQUEUE_H
#define CSOBJ_CORE_ABORTABLEQUEUE_H

#include "core/Results.h"
#include "memory/AtomicRegister.h"
#include "memory/TaggedValue.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace csobj {

/// Abortable, linearizable, lock-free bounded FIFO queue.
///
/// \tparam Policy register policy (Instrumented / Fast), see
///         memory/RegisterPolicy.h.
template <typename Config = Compact64,
          typename Policy = DefaultRegisterPolicy>
class AbortableQueue {
public:
  using TopC = typename Config::Top;   ///< Codec for REAR (a triple).
  using SlotC = typename Config::Slot; ///< Codec for ITEMS and FRONT.
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;

  static constexpr Value Bottom = TopC::Bottom;

  /// Creates a queue holding up to \p Capacity elements. The ring has
  /// Capacity + 1 slots, which must fit the REAR codec's index field;
  /// otherwise (or for Capacity 0) throws std::invalid_argument, a hard
  /// check kept under NDEBUG.
  explicit AbortableQueue(std::uint32_t Capacity)
      : K(checkedCapacity(Capacity)), Ring(Capacity + 1),
        Items(new AtomicRegister<SlotWord, Policy>[Capacity + 1]) {
    Rear.write(TopC::pack({/*Index=*/0, /*Value=*/Bottom, /*Seq=*/0}));
    Front.write(SlotC::pack({/*Value=*/0, /*Seq=*/0}));
    Items[0].write(SlotC::pack({Bottom, TopC::seqAdd(0, -1)}));
    for (std::uint32_t X = 1; X < Ring; ++X)
      Items[X].write(SlotC::pack({Bottom, 0}));
  }

  /// weak_enqueue(v): Done, Full, or Abort. Solo operations never abort.
  PushResult weakEnqueue(Value V) {
    assert(V != Bottom && "cannot enqueue the reserved bottom value");
    const TopWord RearW = Rear.read();
    const TopFields<Value> R = TopC::unpack(RearW);
    helpRear(R);
    const SlotWord FrontW = Front.read();
    const std::uint32_t FrontIdx = frontIndex(FrontW);
    if (next(R.Index) == FrontIdx) {
      // Possibly full; certify against stale REAR/FRONT (see file
      // comment) or abort under concurrency.
      if (Rear.read() != RearW)
        return PushResult::Abort;
      if (Front.read() != FrontW)
        return PushResult::Abort;
      return PushResult::Full;
    }
    const SlotFields<Value> Next = SlotC::unpack(
        Items[next(R.Index)].read(std::memory_order_acquire));
    const TopWord NewRear =
        TopC::pack({next(R.Index), V, TopC::seqAdd(Next.Seq, +1)});
    if (Rear.compareAndSwap(RearW, NewRear, std::memory_order_acq_rel))
      return PushResult::Done;
    return PushResult::Abort;
  }

  /// weak_dequeue(): the oldest value, Empty, or Abort. Solo operations
  /// never abort.
  PopResult<Value> weakDequeue() {
    const TopWord RearW = Rear.read();
    const TopFields<Value> R = TopC::unpack(RearW);
    helpRear(R);
    const SlotWord FrontW = Front.read();
    const std::uint32_t FrontIdx = frontIndex(FrontW);
    if (FrontIdx == R.Index) {
      // Possibly empty; certify: REAR still at FRONT's position and
      // FRONT unmoved => the queue was empty at the FRONT re-read.
      const TopFields<Value> R2 = TopC::unpack(Rear.read());
      if (R2.Index != FrontIdx)
        return PopResult<Value>::abort();
      if (Front.read() != FrontW)
        return PopResult<Value>::abort();
      return PopResult<Value>::empty();
    }
    const std::uint32_t OldestIdx = next(FrontIdx);
    const SlotFields<Value> Oldest = SlotC::unpack(
        Items[OldestIdx].read(std::memory_order_acquire));
    // Generation certificate (see file comment): with c completed ring
    // cycles recorded in FRONT, the oldest slot is in occupancy c + 1
    // and must carry exactly that sn.
    const std::uint32_t Cycle = frontCycle(FrontW);
    const std::uint32_t Expected = TopC::seqAdd(Cycle, +1);
    Value Out = Oldest.Value;
    if (Oldest.Seq != Expected) {
      // Stale slot. The only legal cause while FRONT is unmoved (which
      // the C&S below certifies) is that the current REAR is the
      // still-unhelped enqueue of this very slot: demand exactly that,
      // help it, and take the value from REAR itself.
      const TopFields<Value> R2 = TopC::unpack(Rear.read());
      if (R2.Index != OldestIdx || R2.Seq != Expected)
        return PopResult<Value>::abort();
      helpRear(R2);
      Out = R2.Value;
    }
    const SlotWord NewFront = SlotC::pack(
        {static_cast<Value>(OldestIdx),
         OldestIdx == 0 ? TopC::seqAdd(Cycle, +1) : Cycle});
    if (Front.compareAndSwap(FrontW, NewFront, std::memory_order_acq_rel))
      return PopResult<Value>::value(Out);
    return PopResult<Value>::abort();
  }

  std::uint32_t capacity() const { return K; }

  /// Heap owned by the queue: the ITEMS ring (k + 1 slots).
  std::size_t heapBytes() const {
    return std::size_t{Ring} * sizeof(AtomicRegister<SlotWord, Policy>);
  }

  /// Quiescent-only element count (test/debug aid).
  std::uint32_t sizeForTesting() const {
    const std::uint32_t R = TopC::unpack(Rear.peekForTesting()).Index;
    const std::uint32_t F = frontIndex(Front.peekForTesting());
    return (R + Ring - F) % Ring;
  }

private:
  using TopWord = typename TopC::Word;
  using SlotWord = typename SlotC::Word;

  std::uint32_t next(std::uint32_t Index) const {
    return (Index + 1) % Ring;
  }

  static std::uint32_t frontIndex(SlotWord W) {
    return static_cast<std::uint32_t>(SlotC::unpack(W).Value);
  }
  /// FRONT's tag: completed ring cycles (increments on index wrap).
  static std::uint32_t frontCycle(SlotWord W) {
    return SlotC::unpack(W).Seq;
  }

  /// Completes the lazy ITEMS write of the last enqueue recorded in REAR
  /// (identical to the stack's help, lines 15-16 of Figure 1).
  void helpRear(const TopFields<Value> &R) {
    const SlotFields<Value> Cur = SlotC::unpack(
        Items[R.Index].read(std::memory_order_acquire));
    Items[R.Index].compareAndSwap(
        SlotC::pack({Cur.Value, TopC::seqAdd(R.Seq, -1)}),
        SlotC::pack({R.Value, R.Seq}), std::memory_order_acq_rel);
  }

  static std::uint32_t checkedCapacity(std::uint32_t Capacity) {
    if (Capacity < 1)
      throw std::invalid_argument("AbortableQueue: capacity must be >= 1");
    if (Capacity >= TopC::MaxIndex)
      throw std::invalid_argument(
          "AbortableQueue: capacity + 1 exceeds the REAR codec's index field");
    return Capacity;
  }

  const std::uint32_t K;
  const std::uint32_t Ring; ///< Number of slots (K + 1).
  AtomicRegister<TopWord, Policy> Rear;
  AtomicRegister<SlotWord, Policy> Front;
  std::unique_ptr<AtomicRegister<SlotWord, Policy>[]> Items;
};

} // namespace csobj

#endif // CSOBJ_CORE_ABORTABLEQUEUE_H
