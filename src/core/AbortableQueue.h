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
/// ITEMS lives in a slot store (memory/SlotStore.h), as the stack's
/// STACK[] does: FlatStore (the default) is the ring of Capacity + 1
/// registers; ChunkedStore, spelled UnboundedQueue<>, spans the codec's
/// whole index space (65536 positions for Compact64: capacity 65535)
/// but keeps only the chunks covering the live window
/// [FRONT .. next(REAR)] resident. An enqueue crossing into an absent
/// chunk installs one; a dequeue whose FRONT crosses a chunk boundary
/// trims everything outside the window. Solo costs stay at six accesses.
///
/// The queue's chunk rules differ from the stack's because of the
/// generation certificate: a slot's sn must equal its occupancy count,
/// and a chunk reinstalled with any other seed would fail every
/// certificate on its slots forever (the strong wrapper would spin). So
/// an installed chunk resumes the *exact* sequence run of the untrimmed
/// ring: under the directory lock a fresh REAR read <r, s> fixes the seed
/// — s for ring indices 1..r, which REAR's current pass has covered, s-1
/// for the rest — and an install asked for any position but
/// chunkOf(next(r)) is refused, which proves the requester's REAR view
/// stale and turns its operation into the Abort its own REAR C&S would
/// have produced. With exact resumption the ABA envelope is the flat
/// ring's own: 2^16 occupancies of one slot.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_ABORTABLEQUEUE_H
#define CSOBJ_CORE_ABORTABLEQUEUE_H

#include "core/Results.h"
#include "memory/AtomicRegister.h"
#include "memory/SlotStore.h"
#include "memory/TaggedValue.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace csobj {

/// Abortable, linearizable, lock-free FIFO queue.
///
/// \tparam Policy register policy (Instrumented / Fast), see
///         memory/RegisterPolicy.h.
/// \tparam Store  the slot store holding ITEMS: FlatStore (bounded,
///         preallocated) or ChunkedStore (unbounded, reclaimed).
template <typename Config = Compact64,
          typename Policy = DefaultRegisterPolicy,
          typename Store = FlatStore>
class AbortableQueue {
  using SlotsT = typename Store::template Slots<Config, Policy>;

public:
  using TopC = typename Config::Top;   ///< Codec for REAR (a triple).
  using SlotC = typename Config::Slot; ///< Codec for ITEMS and FRONT.
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;

  static constexpr Value Bottom = TopC::Bottom;

  /// Identifies the calling thread to the slot store (see AbortableStack).
  using Caller = typename SlotsT::Caller;

  /// Over the flat store \p Size is the capacity: the ring has Size + 1
  /// slots, which must fit the REAR codec's index field; otherwise (or
  /// for Size 0) throws std::invalid_argument, a hard check kept under
  /// NDEBUG. Over the chunked store \p Size is the thread count, which
  /// sizes the hazard domain; the capacity is the codec's envelope.
  explicit AbortableQueue(std::uint32_t Size)
      : Slots(Store::Chunked ? Size : checkedCapacity(Size),
              SlotC::pack({Bottom, TopC::seqAdd(0, -1)}),
              SlotC::pack({Bottom, 0})) {
    Rear.write(TopC::pack({/*Index=*/0, /*Value=*/Bottom, /*Seq=*/0}));
    Front.write(SlotC::pack({/*Value=*/0, /*Seq=*/0}));
  }

  /// weak_enqueue(v): Done, Full, or Abort. Solo operations never abort.
  PushResult weakEnqueue(Caller Tid, Value V) {
    assert(V != Bottom && "cannot enqueue the reserved bottom value");
    const TopWord RearW = Rear.read();
    const TopFields<Value> R = TopC::unpack(RearW);
    Pin Help(Slots, Tid, 0);
    if (!Help.pin(R.Index))
      return PushResult::Abort; // stale REAR: its chunk was reclaimed
    helpRear(Help.slot(), R);
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
    Pin Behind(Slots, Tid, 1);
    if (!Behind.pinOrInstall(next(R.Index), *this))
      return PushResult::Abort; // install refused: REAR view stale
    const SlotFields<Value> Next =
        SlotC::unpack(Behind.slot().read(std::memory_order_acquire));
    const TopWord NewRear =
        TopC::pack({next(R.Index), V, TopC::seqAdd(Next.Seq, +1)});
    if (Rear.compareAndSwap(RearW, NewRear, std::memory_order_acq_rel))
      return PushResult::Done;
    return PushResult::Abort;
  }

  /// weak_dequeue(): the oldest value, Empty, or Abort. Solo operations
  /// never abort.
  PopResult<Value> weakDequeue(Caller Tid) {
    const TopWord RearW = Rear.read();
    const TopFields<Value> R = TopC::unpack(RearW);
    Pin Help(Slots, Tid, 0);
    if (!Help.pin(R.Index))
      return PopResult<Value>::abort(); // stale REAR
    helpRear(Help.slot(), R);
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
    Pin Head(Slots, Tid, 1);
    if (!Head.pin(OldestIdx))
      return PopResult<Value>::abort(); // stale FRONT
    const SlotFields<Value> Oldest =
        SlotC::unpack(Head.slot().read(std::memory_order_acquire));
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
      helpRear(Head.slot(), R2);
      Out = R2.Value;
    }
    const SlotWord NewFront = SlotC::pack(
        {static_cast<Value>(OldestIdx),
         OldestIdx == 0 ? TopC::seqAdd(Cycle, +1) : Cycle});
    if (Front.compareAndSwap(FrontW, NewFront, std::memory_order_acq_rel)) {
      Slots.trim(Tid, FrontIdx, OldestIdx, *this);
      return PopResult<Value>::value(Out);
    }
    return PopResult<Value>::abort();
  }

  /// The flat store's Tid-free spellings.
  PushResult weakEnqueue(Value V) requires(!Store::Chunked) {
    return weakEnqueue(0, V);
  }
  PopResult<Value> weakDequeue() requires(!Store::Chunked) {
    return weakDequeue(0);
  }

  std::uint32_t capacity() const { return Slots.lastIndex(); }

  /// Heap owned by the queue: the slot store's (the ITEMS ring, or every
  /// chunk ever allocated plus the hazard domain).
  std::size_t heapBytes() const { return Slots.heapBytes(); }

  /// Quiescent-only element count (test/debug aid).
  std::uint32_t sizeForTesting() const {
    const std::uint32_t R = TopC::unpack(Rear.peekForTesting()).Index;
    const std::uint32_t F = frontIndex(Front.peekForTesting());
    return (R + ring() - F) % ring();
  }

  /// The chunked store's oracles (test/bench aids): chunks installed now
  /// and ever allocated, and the reclamation domain.
  std::uint32_t installedChunksForTesting() const {
    return Slots.installedChunksForTesting();
  }
  std::size_t allocatedChunksForTesting() const {
    return Slots.allocatedChunksForTesting();
  }
  HazardDomain &domain() { return Slots.domain(); }

private:
  using TopWord = typename TopC::Word;
  using SlotWord = typename SlotC::Word;
  using Pin = typename SlotsT::Pin;

  /// Number of ring slots (capacity + 1).
  std::uint32_t ring() const { return Slots.lastIndex() + 1; }
  std::uint32_t next(std::uint32_t Index) const {
    return (Index + 1) % ring();
  }

  static std::uint32_t frontIndex(SlotWord W) {
    return static_cast<std::uint32_t>(SlotC::unpack(W).Value);
  }
  /// FRONT's tag: completed ring cycles (increments on index wrap).
  static std::uint32_t frontCycle(SlotWord W) {
    return SlotC::unpack(W).Seq;
  }

  /// Completes the lazy ITEMS write of the last enqueue recorded in REAR
  /// into its pinned register \p S (identical to the stack's help, lines
  /// 15-16 of Figure 1).
  static void helpRear(AtomicRegister<SlotWord, Policy> &S,
                       const TopFields<Value> &R) {
    const SlotFields<Value> Cur =
        SlotC::unpack(S.read(std::memory_order_acquire));
    S.compareAndSwap(SlotC::pack({Cur.Value, TopC::seqAdd(R.Seq, -1)}),
                     SlotC::pack({R.Value, R.Seq}),
                     std::memory_order_acq_rel);
  }

  static std::uint32_t checkedCapacity(std::uint32_t Capacity) {
    if (Capacity < 1)
      throw std::invalid_argument("AbortableQueue: capacity must be >= 1");
    if (Capacity >= TopC::MaxIndex)
      throw std::invalid_argument(
          "AbortableQueue: capacity + 1 exceeds the REAR codec's index field");
    return Capacity;
  }

  // The queue's chunk rules, which the chunked store calls under its
  // directory lock (see memory/SlotStore.h).
  friend SlotsT;

  /// Install rule: only the growth position chunkOf(next(REAR)) may be
  /// installed, seeded to resume the untrimmed ring's sequence run.
  /// Per-slot seed = genuine occupancies completed: with REAR at <r, s>
  /// (slot r in its s-th occupancy), REAR's current pass has covered
  /// ring indices 1..r, which carry s; the rest — including slot 0,
  /// permanently one occupancy behind from the dummy-init absorption, so
  /// the pass boundary sits between slot 0 and slot 1 — carry s-1.
  template <typename FillFn> bool seedChunk(std::uint32_t Pos, FillFn Fill) {
    const TopFields<Value> R = TopC::unpack(Rear.readReclaim());
    if (Pos != SlotsT::chunkOf(next(R.Index)))
      return false;
    Fill([R](std::uint32_t Index) {
      return SlotC::pack({Bottom, Index >= 1 && Index <= R.Index
                                      ? R.Seq
                                      : TopC::seqAdd(R.Seq, -1)});
    });
    return true;
  }

  /// Trim rule: keep the live window [chunkOf(FRONT) ..
  /// chunkOf(next(REAR))], a ring interval, read on the reclamation
  /// channel.
  std::pair<std::uint32_t, std::uint32_t> liveChunks() const {
    const std::uint32_t F = frontIndex(Front.readReclaim());
    const std::uint32_t Rr = TopC::unpack(Rear.readReclaim()).Index;
    return {SlotsT::chunkOf(F), SlotsT::chunkOf(next(Rr))};
  }

  AtomicRegister<TopWord, Policy> Rear;
  AtomicRegister<SlotWord, Policy> Front;
  SlotsT Slots;
};

/// The queue over the chunked, hazard-reclaimed slot store: the
/// unbounded abortable FIFO. Construct with the thread count n; the weak
/// operations take the caller's id.
template <typename Config = Compact64,
          typename Policy = DefaultRegisterPolicy>
using UnboundedQueue = AbortableQueue<Config, Policy, ChunkedStore>;

} // namespace csobj

#endif // CSOBJ_CORE_ABORTABLEQUEUE_H
