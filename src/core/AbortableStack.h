//===- core/AbortableStack.h - The paper's Figure 1 -------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abortable stack of Figure 1 — a simplified version of Shafiei's
/// array-based non-blocking stack (ICDCN'09, the paper's reference [22]).
///
/// Representation (Section 3):
///  * TOP: one atomic register holding the triple <index, value, seqnb>
///    describing the last non-aborted operation.
///  * STACK[0..k]: k+1 atomic registers, each a pair <val, sn>; STACK[0]
///    is a dummy entry that conceptually always holds bottom.
///
/// The implementation is *lazy*: a successful operation installs its
/// outcome into TOP with one Compare&Swap and leaves the corresponding
/// write of STACK[index] to the *next* operation, which "helps" it
/// (procedure help, lines 15-16) before attempting its own update. The
/// per-slot sequence numbers defeat the ABA problem exactly as described
/// in Section 2.2.
///
/// A successful weak_push/weak_pop performs 5 shared-memory accesses
/// (read TOP; read STACK[index]; C&S STACK[index]; read the neighbour
/// slot; C&S TOP); full/empty answers take 3. Under interference an
/// operation may return bottom (PushResult::Abort / PopResult::abort()),
/// in which case it had no effect — the property the contention-sensitive
/// construction of Figure 3 builds on.
///
/// Memory orderings (audited for the Fast register policy; identical
/// under Instrumented): every mutation of TOP or a slot is a C&S with
/// acq_rel success ordering, and every read of TOP or a slot is acquire.
/// Happens-before argument: an operation's only writes are its help-C&S
/// and its TOP-C&S, both releases; the next operation begins by reading
/// TOP (acquire), which synchronizes-with the TOP-C&S of the operation it
/// observes, making that operation's slot updates visible before they are
/// re-read. Slot sequence numbers carry the same argument across slot
/// reuse. No operation relies on the relative order of *other* threads'
/// independent accesses, so seq_cst is not required.
///
/// Where STACK[x] lives is the slot store's business (memory/SlotStore.h);
/// the algorithm is written once over it:
///  * FlatStore (the default): the k+1 registers, allocated up front.
///  * ChunkedStore, spelled UnboundedStack<>: the paper's infinite array
///    as 64-slot chunks installed as TOP climbs and retired as TOP falls,
///    so resident memory tracks the live population. Full is answered
///    only at the TOP codec's index envelope (65535 for Compact64). A TOP
///    view whose chunk was already reclaimed is stale, so the operation
///    answers Abort — what its own TOP C&S would have answered. The chunk
///    machinery is uncounted: a solo weak operation still performs the
///    five accesses above.
///
/// The stack's own chunk rules sit at the end of the class. Each install
/// re-seeds the chunk's sequence numbers from a per-position counter
/// advanced by an odd stride, so a recycled chunk never resumes the
/// sequence run of its previous incarnation — a sleeping thread is fooled
/// only across ~2^16 reuses of one slot, the flat store's own envelope.
/// A pop that crosses a chunk boundary downward trims every chunk above
/// the hysteresis line chunkOf(TOP) + 1.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_ABORTABLESTACK_H
#define CSOBJ_CORE_ABORTABLESTACK_H

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

/// Figure 1: an abortable, linearizable, lock-free stack.
///
/// \tparam Config a codec family (Compact64 or Wide128) fixing the packed
///         layout of TOP and STACK[x] and the payload type.
/// \tparam Policy register policy (Instrumented / Fast), see
///         memory/RegisterPolicy.h.
/// \tparam Store  the slot store holding STACK[0..]: FlatStore (bounded,
///         preallocated) or ChunkedStore (unbounded, reclaimed).
template <typename Config = Compact64,
          typename Policy = DefaultRegisterPolicy,
          typename Store = FlatStore>
class AbortableStack {
  using SlotsT = typename Store::template Slots<Config, Policy>;

public:
  using TopC = typename Config::Top;
  using SlotC = typename Config::Slot;
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;

  /// The reserved bottom payload; pushing it is a precondition violation.
  static constexpr Value Bottom = TopC::Bottom;

  /// Identifies the calling thread to the slot store: its id, which names
  /// its hazard slots in the chunked store; over the flat store an empty
  /// tag any id converts to.
  using Caller = typename SlotsT::Caller;

  /// Over the flat store \p Size is the capacity k. Entry 0 of the
  /// backing array is the dummy slot, so k must be at least 1 and small
  /// enough for the index field of the TOP codec; otherwise throws
  /// std::invalid_argument (a hard check, kept under NDEBUG). Over the
  /// chunked store \p Size is the paper's n, which sizes the hazard
  /// domain; the capacity is the codec's envelope.
  explicit AbortableStack(std::uint32_t Size)
      // STACK[0] <- <bottom, -1>; STACK[x] <- <bottom, 0>.
      : Slots(Store::Chunked ? Size : checkedCapacity(Size),
              SlotC::pack({Bottom, TopC::seqAdd(0, -1)}),
              SlotC::pack({Bottom, 0})) {
    // TOP <- <0, bottom, 0>.
    Top.write(TopC::pack({/*Index=*/0, /*Value=*/Bottom, /*Seq=*/0}));
  }

  /// weak_push(v), lines 01-07. Returns Done, Full, or Abort (bottom).
  /// \p V must not be the reserved Bottom payload and must fit the codec's
  /// value field.
  PushResult weakPush(Caller Tid, Value V) {
    assert(V != Bottom && "cannot push the reserved bottom value");
    assert((V & static_cast<Value>(TopC::Bottom)) == V &&
           "value exceeds the codec's value field");
    // Acquire: synchronizes with the releasing TOP-C&S of the operation
    // whose outcome we observe (see file comment).
    const TopWord Observed = Top.read(std::memory_order_acquire); // line 01
    const TopFields<Value> Cur = TopC::unpack(Observed);
    Pin Help(Slots, Tid, 0);
    if (!Help.pin(Cur.Index))
      return PushResult::Abort; // stale TOP: its chunk was reclaimed
    help(Help.slot(), Cur);                                     // line 02
    if (Cur.Index == Slots.lastIndex())                         // line 03
      return PushResult::Full;
    Pin Above(Slots, Tid, 1);
    if (!Above.pinOrInstall(Cur.Index + 1, *this))
      return PushResult::Abort;
    const SlotFields<Value> Next = SlotC::unpack(
        Above.slot().read(std::memory_order_acquire));          // line 04
    const TopWord NewTop = TopC::pack(
        {Cur.Index + 1, V, TopC::seqAdd(Next.Seq, +1)});        // line 05
    // Acq_rel: the release publishes this operation (and the help write
    // it performed); the acquire orders it after the observed TOP.
    if (Top.compareAndSwap(Observed, NewTop,
                           std::memory_order_acq_rel))          // line 06
      return PushResult::Done;
    return PushResult::Abort;                                   // line 07
  }

  /// weak_pop(), lines 08-14. Returns the popped value, Empty, or Abort.
  PopResult<Value> weakPop(Caller Tid) {
    const TopWord Observed = Top.read(std::memory_order_acquire); // line 08
    const TopFields<Value> Cur = TopC::unpack(Observed);
    Pin Help(Slots, Tid, 0);
    if (!Help.pin(Cur.Index))
      return PopResult<Value>::abort(); // stale TOP
    help(Help.slot(), Cur);                                     // line 09
    if (Cur.Index == 0)                                         // line 10
      return PopResult<Value>::empty();
    Pin Below(Slots, Tid, 1);
    if (!Below.pin(Cur.Index - 1))
      return PopResult<Value>::abort(); // stale TOP
    const SlotFields<Value> Under = SlotC::unpack(
        Below.slot().read(std::memory_order_acquire));          // line 11
    const TopWord NewTop = TopC::pack(
        {Cur.Index - 1, Under.Value, TopC::seqAdd(Under.Seq, +1)}); // line 12
    if (Top.compareAndSwap(Observed, NewTop,
                           std::memory_order_acq_rel)) {        // line 13
      Slots.trim(Tid, Cur.Index, Cur.Index - 1, *this);
      return PopResult<Value>::value(Cur.Value);
    }
    return PopResult<Value>::abort();                           // line 14
  }

  /// The flat store's Tid-free spellings.
  PushResult weakPush(Value V) requires(!Store::Chunked) {
    return weakPush(0, V);
  }
  PopResult<Value> weakPop() requires(!Store::Chunked) { return weakPop(0); }

  /// The paper's k (over the chunked store, the codec's envelope).
  std::uint32_t capacity() const { return Slots.lastIndex(); }

  /// Heap owned by the stack: the slot store's (the STACK[0..k] array, or
  /// every chunk ever allocated plus the hazard domain).
  std::size_t heapBytes() const { return Slots.heapBytes(); }

  /// One instrumented acquire read of TOP, decoded. The acceleration
  /// layer (perf/) uses this as a not-full / not-empty witness: a single
  /// read taken inside both operations' intervals justifies linearizing
  /// an eliminated push/pop pair back-to-back at that instant.
  TopFields<Value> readTop() const { return TopC::unpack(readTopWord()); }

  /// The raw packed TOP word via one instrumented acquire read. Two
  /// equal reads with no successful operation in between (the word
  /// carries the seq number) give the stable-snapshot certificate the
  /// sharded stack's all-full / all-empty double collect relies on.
  typename TopC::Word readTopWord() const {
    return Top.read(std::memory_order_acquire);
  }

  /// The raw packed TOP word by an uncounted relaxed load: a control-plane
  /// read. The adaptive facade's controller compares it across ticks to
  /// tell whether this stack completed a push or pop in between (every
  /// success bumps the seq; Full, Empty and Abort leave the word alone).
  /// It stays invisible to the access oracle, the explorer and the fault
  /// injectors; never call it on an algorithm path.
  typename TopC::Word controlReadTopWord() const {
    return Top.readReclaim(std::memory_order_relaxed);
  }

  /// Number of elements currently on the stack. Inherently racy under
  /// concurrency; exact when quiescent. Uninstrumented (test/debug aid).
  std::uint32_t sizeForTesting() const {
    return TopC::unpack(Top.peekForTesting()).Index;
  }

  /// Decoded TOP register (test/debug aid, uninstrumented).
  TopFields<Value> topForTesting() const {
    return TopC::unpack(Top.peekForTesting());
  }

  /// Decoded STACK[x] register of the flat store (test/debug aid,
  /// uninstrumented).
  SlotFields<Value> slotForTesting(std::uint32_t X) const {
    assert(X <= capacity() && "slot index out of range");
    return SlotC::unpack(Slots.peekForTesting(X));
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

  /// procedure help(index, value, seqnb), lines 15-16: complete the lazy
  /// write of the previous non-aborted operation into STACK[index], the
  /// pinned register \p S. The C&S succeeds only if that write has not
  /// been done yet (expected sequence number seqnb - 1).
  static void help(AtomicRegister<SlotWord, Policy> &S,
                   const TopFields<Value> &T) {
    const SlotFields<Value> Cur =
        SlotC::unpack(S.read(std::memory_order_acquire));       // line 15
    S.compareAndSwap(SlotC::pack({Cur.Value, TopC::seqAdd(T.Seq, -1)}),
                     SlotC::pack({T.Value, T.Seq}),
                     std::memory_order_acq_rel);                // line 16
  }

  static std::uint32_t checkedCapacity(std::uint32_t Capacity) {
    if (Capacity < 1)
      throw std::invalid_argument("AbortableStack: capacity must be >= 1");
    if (Capacity > TopC::MaxIndex)
      throw std::invalid_argument(
          "AbortableStack: capacity exceeds the TOP codec's index field");
    return Capacity;
  }

  // The stack's chunk rules, which the chunked store calls under its
  // directory lock (see memory/SlotStore.h).
  friend SlotsT;

  /// Seed stride between incarnations of one directory position: odd
  /// (coprime to the 2^SeqBits sequence space), so successive
  /// incarnations start their sequence runs at distinct offsets.
  static constexpr std::uint32_t SeedStride = 257;

  /// Install rule: never refuses; every slot of the new incarnation
  /// starts at the position's next seed.
  template <typename FillFn> bool seedChunk(std::uint32_t Pos, FillFn Fill) {
    const std::uint32_t Seed = SeqSeed[Pos] & TopC::SeqMask;
    SeqSeed[Pos] += SeedStride;
    Fill([Seed](std::uint32_t) { return SlotC::pack({Bottom, Seed}); });
    return true;
  }

  /// Trim rule: keep chunk 0 through the hysteresis line chunkOf(TOP)+1.
  /// TOP is read on the reclamation channel, so the whole trim is
  /// invisible to the oracles.
  std::pair<std::uint32_t, std::uint32_t> liveChunks() const {
    const std::uint32_t TopIdx = TopC::unpack(Top.readReclaim()).Index;
    return {0, SlotsT::chunkOf(TopIdx) + 1};
  }

  AtomicRegister<TopWord, Policy> Top;
  SlotsT Slots;
  /// Per-position incarnation seeds of the chunked store, guarded by its
  /// directory lock; no bytes over the flat store.
  [[no_unique_address]] typename SlotsT::template PerChunk<std::uint32_t>
      SeqSeed{};
};

/// Figure 1 over the chunked, hazard-reclaimed slot store: the unbounded
/// abortable stack. Construct with the thread count n; the weak
/// operations take the caller's id.
template <typename Config = Compact64,
          typename Policy = DefaultRegisterPolicy>
using UnboundedStack = AbortableStack<Config, Policy, ChunkedStore>;

} // namespace csobj

#endif // CSOBJ_CORE_ABORTABLESTACK_H
