//===- core/UnboundedQueue.h - Unbounded abortable FIFO + Fig 3 -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abortable queue of core/AbortableQueue.h over a chunked,
/// hazard-reclaimed ring. The ring logically spans the codec's whole
/// index space (65536 positions for Compact64 — capacity 65535, one
/// position kept free to separate full from empty), but only the chunks
/// covering the live window [FRONT .. next(REAR)] are resident: an
/// enqueue crossing into an absent chunk installs one, a dequeue whose
/// FRONT crosses a chunk boundary trims everything outside the window
/// and retires it through memory/HazardDomain.h. Resident memory tracks
/// the queue's population, not the index space.
///
/// The algorithm (lazy REAR help, abort-when-uncertain full/empty
/// certification, the FRONT-cycle generation certificate) is unchanged;
/// only ITEMS[x] addressing goes through the chunk directory, on the
/// same uncounted reclamation channel as the unbounded stack — solo
/// access counts stay at the bounded queue's six (seven through the
/// Figure-3 wrapper).
///
/// Chunk seeding is where the queue differs from the stack. The
/// generation certificate demands that a slot's sequence number equal
/// its occupancy count — the dequeuer computes the exact sn its slot
/// must carry from FRONT's cycle tag, and any other value (while FRONT
/// is unmoved) must mean "the current REAR is this slot's unhelped
/// enqueue". A chunk reinstalled with an arbitrary seed would violate
/// that arithmetic forever (every certificate on its slots would fail
/// and the strong wrapper would spin). So an installed chunk resumes
/// the *exact* sequence run of the untrimmed ring: under the directory
/// lock, a fresh REAR read <r, s> fixes the seed — s-1 for a chunk
/// entered mid-cycle, s for the wrap into position 0 (where the
/// per-cycle seqnb increment happens) — and an install requested for
/// any position other than chunkOf(next(r)) is refused, which proves
/// the requester's REAR view stale and turns its operation into the
/// Abort its own REAR C&S would have produced. With exact resumption,
/// the ABA envelope is the bounded ring's own: 2^16 occupancies of one
/// slot.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_UNBOUNDEDQUEUE_H
#define CSOBJ_CORE_UNBOUNDEDQUEUE_H

#include "core/ContentionSensitive.h"
#include "core/Results.h"
#include "locks/TasLock.h"
#include "memory/AtomicRegister.h"
#include "memory/HazardDomain.h"
#include "memory/NodePool.h"
#include "memory/TaggedValue.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace csobj {

/// Unbounded abortable FIFO queue: the bounded algorithm over a chunked,
/// hazard-reclaimed ring spanning the codec's index space.
template <typename Config = Compact64,
          typename Policy = DefaultRegisterPolicy>
class UnboundedQueue {
public:
  using TopC = typename Config::Top;   ///< Codec for REAR (a triple).
  using SlotC = typename Config::Slot; ///< Codec for ITEMS and FRONT.
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;

  static constexpr Value Bottom = TopC::Bottom;
  static constexpr std::uint32_t ChunkSlots = 64;
  /// Ring positions: the whole index space (MaxIndex+1, a multiple of
  /// ChunkSlots, so chunk arithmetic wraps cleanly with the ring).
  static constexpr std::uint32_t Ring = TopC::MaxIndex + 1;
  /// Usable capacity (one position separates full from empty).
  static constexpr std::uint32_t EnvelopeCapacity = Ring - 1;
  static constexpr std::uint32_t DirSize = Ring / ChunkSlots;
  static constexpr std::uint32_t HazardSlots = 2;
  static_assert(Ring % ChunkSlots == 0,
                "ring must be chunk-aligned for wrapped chunk arithmetic");

  struct Chunk {
    AtomicRegister<typename SlotC::Word, Policy> Slots[ChunkSlots];
  };

  /// \p NumThreads sizes the hazard domain. Construct outside counting
  /// scopes: initialisation writes REAR and FRONT.
  explicit UnboundedQueue(std::uint32_t NumThreads)
      : Domain(NumThreads, HazardSlots) {
    assert(NumThreads >= 1 && "need at least one process");
    for (std::uint32_t P = 0; P < DirSize; ++P)
      Dir[P].store(nullptr, std::memory_order_relaxed);
    Chunk *C0 = Pool.acquire();
    for (std::uint32_t X = 0; X < ChunkSlots; ++X)
      C0->Slots[X].writeReclaim(SlotC::pack({Bottom, 0}));
    C0->Slots[0].writeReclaim(SlotC::pack({Bottom, TopC::seqAdd(0, -1)}));
    Dir[0].store(C0, std::memory_order_seq_cst);
    Rear.write(TopC::pack({/*Index=*/0, /*Value=*/Bottom, /*Seq=*/0}));
    Front.write(SlotC::pack({/*Value=*/0, /*Seq=*/0}));
  }

  /// weak_enqueue(v): Done, Full (envelope only), or Abort. Solo
  /// operations never abort (their chunks are always resident).
  PushResult weakEnqueue(std::uint32_t Tid, Value V) {
    assert(V != Bottom && "cannot enqueue the reserved bottom value");
    const TopWord RearW = Rear.read();
    const TopFields<Value> R = TopC::unpack(RearW);
    HazardGuard HelpGuard(Domain, Tid, 0);
    Chunk *HelpC = pin(chunkOf(R.Index), HelpGuard);
    if (!HelpC)
      return PushResult::Abort;
    helpRear(*HelpC, R);
    const SlotWord FrontW = Front.read();
    const std::uint32_t FrontIdx = frontIndex(FrontW);
    if (next(R.Index) == FrontIdx) {
      // Possibly full; certify against stale REAR/FRONT or abort.
      if (Rear.read() != RearW)
        return PushResult::Abort;
      if (Front.read() != FrontW)
        return PushResult::Abort;
      return PushResult::Full;
    }
    HazardGuard NextGuard(Domain, Tid, 1);
    Chunk *NextC = pinOrInstall(chunkOf(next(R.Index)), NextGuard);
    if (!NextC)
      return PushResult::Abort; // install refused: REAR view stale
    const SlotFields<Value> Next = SlotC::unpack(
        slotIn(*NextC, next(R.Index)).read(std::memory_order_acquire));
    const TopWord NewRear =
        TopC::pack({next(R.Index), V, TopC::seqAdd(Next.Seq, +1)});
    if (Rear.compareAndSwap(RearW, NewRear, std::memory_order_acq_rel))
      return PushResult::Done;
    return PushResult::Abort;
  }

  /// weak_dequeue(): the oldest value, Empty, or Abort. Solo operations
  /// never abort. A FRONT move across a chunk boundary trims the chunks
  /// that fell out of the live window.
  PopResult<Value> weakDequeue(std::uint32_t Tid) {
    const TopWord RearW = Rear.read();
    const TopFields<Value> R = TopC::unpack(RearW);
    HazardGuard HelpGuard(Domain, Tid, 0);
    Chunk *HelpC = pin(chunkOf(R.Index), HelpGuard);
    if (!HelpC)
      return PopResult<Value>::abort();
    helpRear(*HelpC, R);
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
    HazardGuard OldestGuard(Domain, Tid, 1);
    Chunk *OldestC = pin(chunkOf(OldestIdx), OldestGuard);
    if (!OldestC)
      return PopResult<Value>::abort();
    const SlotFields<Value> Oldest = SlotC::unpack(
        slotIn(*OldestC, OldestIdx).read(std::memory_order_acquire));
    // Generation certificate (see core/AbortableQueue.h): with c
    // completed ring cycles in FRONT, the oldest slot must carry sn =
    // c + 1.
    const std::uint32_t Cycle = frontCycle(FrontW);
    const std::uint32_t Expected = TopC::seqAdd(Cycle, +1);
    Value Out = Oldest.Value;
    if (Oldest.Seq != Expected) {
      // Stale slot: the only legal cause while FRONT is unmoved is that
      // the current REAR is the still-unhelped enqueue of this slot.
      const TopFields<Value> R2 = TopC::unpack(Rear.read());
      if (R2.Index != OldestIdx || R2.Seq != Expected)
        return PopResult<Value>::abort();
      helpRear(*OldestC, R2);
      Out = R2.Value;
    }
    const SlotWord NewFront = SlotC::pack(
        {static_cast<Value>(OldestIdx),
         OldestIdx == 0 ? TopC::seqAdd(Cycle, +1) : Cycle});
    if (Front.compareAndSwap(FrontW, NewFront,
                             std::memory_order_acq_rel)) {
      if (chunkOf(OldestIdx) != chunkOf(FrontIdx))
        trim(Tid); // uncounted: reclamation channel
      return PopResult<Value>::value(Out);
    }
    return PopResult<Value>::abort();
  }

  std::uint32_t capacity() const { return EnvelopeCapacity; }
  std::uint32_t numThreads() const { return Domain.numThreads(); }

  /// Quiescent-only element count (test/debug aid).
  std::uint32_t sizeForTesting() const {
    const std::uint32_t R = TopC::unpack(Rear.peekForTesting()).Index;
    const std::uint32_t F = frontIndex(Front.peekForTesting());
    return (R + Ring - F) % Ring;
  }

  std::uint32_t installedChunksForTesting() const {
    std::uint32_t Count = 0;
    for (std::uint32_t P = 0; P < DirSize; ++P)
      if (Dir[P].load(std::memory_order_seq_cst))
        ++Count;
    return Count;
  }

  HazardDomain &domain() { return Domain; }
  const HazardDomain &domain() const { return Domain; }

  std::size_t allocatedChunksForTesting() const {
    return Pool.allocatedCount();
  }

  /// Heap owned by the queue (chunks ever allocated + reclamation
  /// bookkeeping) — the bytes_per_element footprint.
  std::size_t heapBytes() const {
    return Pool.heapBytes() + Domain.heapBytes();
  }

private:
  using TopWord = typename TopC::Word;
  using SlotWord = typename SlotC::Word;

  static constexpr std::uint32_t next(std::uint32_t Index) {
    return (Index + 1) % Ring;
  }
  static constexpr std::uint32_t chunkOf(std::uint32_t Index) {
    return Index / ChunkSlots;
  }
  static AtomicRegister<SlotWord, Policy> &slotIn(Chunk &C,
                                                  std::uint32_t Index) {
    return C.Slots[Index % ChunkSlots];
  }
  static std::uint32_t frontIndex(SlotWord W) {
    return static_cast<std::uint32_t>(SlotC::unpack(W).Value);
  }
  static std::uint32_t frontCycle(SlotWord W) {
    return SlotC::unpack(W).Seq;
  }

  /// Completes the lazy ITEMS write of the last enqueue recorded in
  /// REAR, through a pinned chunk.
  void helpRear(Chunk &C, const TopFields<Value> &R) {
    AtomicRegister<SlotWord, Policy> &S = slotIn(C, R.Index);
    const SlotFields<Value> Cur =
        SlotC::unpack(S.read(std::memory_order_acquire));
    S.compareAndSwap(SlotC::pack({Cur.Value, TopC::seqAdd(R.Seq, -1)}),
                     SlotC::pack({R.Value, R.Seq}),
                     std::memory_order_acq_rel);
  }

  /// Hazard handshake (read, publish, re-validate); nullptr proves the
  /// caller's view stale.
  Chunk *pin(std::uint32_t Pos, HazardGuard &Guard) {
    Chunk *C = Dir[Pos].load(std::memory_order_seq_cst);
    while (C) {
      Guard.protect(C);
      Chunk *Again = Dir[Pos].load(std::memory_order_seq_cst);
      if (Again == C)
        return C;
      C = Again;
    }
    return nullptr;
  }

  /// pin that installs the growth chunk if absent. Returns nullptr when
  /// the install is refused (the requested position is not the current
  /// growth position — the caller's REAR view is stale).
  Chunk *pinOrInstall(std::uint32_t Pos, HazardGuard &Guard) {
    while (true) {
      if (Chunk *C = pin(Pos, Guard))
        return C;
      if (!installAt(Pos))
        return nullptr;
    }
  }

  /// Installs a chunk at \p Pos seeded to resume the untrimmed ring's
  /// sequence run (see file comment). Only the growth position
  /// chunkOf(next(REAR)) may be installed; anything else is refused.
  bool installAt(std::uint32_t Pos) {
    SpinGuard G(DirLock);
    if (Dir[Pos].load(std::memory_order_seq_cst))
      return true;
    const TopFields<Value> R = TopC::unpack(Rear.readReclaim());
    const std::uint32_t Growth = next(R.Index);
    if (Pos != chunkOf(Growth))
      return false;
    // Per-slot seed = genuine occupancies completed. With REAR at
    // <r, s> (slot r in its s-th occupancy), REAR's current pass has
    // already covered ring indices 1..r — those slots carry s; the rest
    // (including slot 0, which is permanently one occupancy behind from
    // the dummy-init absorption, so the pass boundary sits between
    // slot 0 and slot 1) carry s-1.
    Chunk *C = Pool.acquire();
    for (std::uint32_t X = 0; X < ChunkSlots; ++X) {
      const std::uint32_t Index = Pos * ChunkSlots + X;
      const std::uint32_t Seed = (Index >= 1 && Index <= R.Index)
                                     ? R.Seq
                                     : TopC::seqAdd(R.Seq, -1);
      C->Slots[X].writeReclaim(SlotC::pack({Bottom, Seed}));
    }
    Dir[Pos].store(C, std::memory_order_seq_cst);
    return true;
  }

  /// Detaches and retires every chunk outside the live window
  /// [chunkOf(FRONT) .. chunkOf(next(REAR))] (a ring interval). Reads
  /// both registers through the reclamation channel under the directory
  /// lock.
  void trim(std::uint32_t Tid) {
    SpinGuard G(DirLock);
    const std::uint32_t F =
        frontIndex(Front.readReclaim());
    const std::uint32_t Rr =
        TopC::unpack(Rear.readReclaim()).Index;
    const std::uint32_t Lo = chunkOf(F);
    const std::uint32_t Hi = chunkOf(next(Rr));
    for (std::uint32_t Pos = 0; Pos < DirSize; ++Pos) {
      const bool Live =
          Lo <= Hi ? (Pos >= Lo && Pos <= Hi) : (Pos >= Lo || Pos <= Hi);
      if (Live)
        continue;
      Chunk *C = Dir[Pos].load(std::memory_order_seq_cst);
      if (!C)
        continue;
      Dir[Pos].store(nullptr, std::memory_order_seq_cst);
      Domain.retire(Tid, C, NodePool<Chunk>::recycle, &Pool);
    }
  }

  struct SpinGuard {
    explicit SpinGuard(std::atomic_flag &F) : F(F) {
      while (F.test_and_set(std::memory_order_acquire))
        ;
    }
    ~SpinGuard() { F.clear(std::memory_order_release); }
    std::atomic_flag &F;
  };

  AtomicRegister<TopWord, Policy> Rear;
  AtomicRegister<SlotWord, Policy> Front;
  HazardDomain Domain;
  NodePool<Chunk> Pool;
  std::atomic<Chunk *> Dir[DirSize];
  std::atomic_flag DirLock = ATOMIC_FLAG_INIT;
};

/// Figure 3 over the unbounded queue: starvation-free contention-
/// sensitive FIFO whose resident memory tracks the live population. A
/// contention-free strong operation performs seven shared-memory
/// accesses (one CONTENTION read + the six of the weak op), the same
/// bound as the bounded ContentionSensitiveQueue.
template <typename Config = Compact64, typename Lock = TasLock,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy,
          typename SkeletonT = ContentionSensitive<Lock, Manager, Policy>>
class ContentionSensitiveUnboundedQueue {
public:
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;

  explicit ContentionSensitiveUnboundedQueue(std::uint32_t NumThreads)
      : Weak(NumThreads), Strong(NumThreads) {}

  /// strong_enqueue(v): Done or Full (envelope only), never Abort.
  PushResult enqueue(std::uint32_t Tid, Value V) {
    return Strong.strongApply(Tid, [this, Tid, V] {
      return unlessAbort(Weak.weakEnqueue(Tid, V));
    });
  }

  /// strong_dequeue(): a value or Empty, never Abort.
  PopResult<Value> dequeue(std::uint32_t Tid) {
    return Strong.strongApply(
        Tid, [this, Tid] { return unlessAbort(Weak.weakDequeue(Tid)); });
  }

  std::uint32_t capacity() const { return Weak.capacity(); }
  std::uint32_t numThreads() const { return Strong.numThreads(); }
  std::uint32_t sizeForTesting() const { return Weak.sizeForTesting(); }

  UnboundedQueue<Config, Policy> &unbounded() { return Weak; }
  SkeletonT &skeleton() { return Strong; }

  obs::PathSnapshot pathSnapshot() const { return Strong.pathSnapshot(); }

  std::size_t footprintBytes() const {
    return sizeof(*this) + Strong.heapBytes() + Weak.heapBytes();
  }

  obs::Path lastPath(std::uint32_t Tid) const {
    return Strong.metrics().lastPath(Tid);
  }

private:
  UnboundedQueue<Config, Policy> Weak;
  SkeletonT Strong;
};

} // namespace csobj

#endif // CSOBJ_CORE_UNBOUNDEDQUEUE_H
