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
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_ABORTABLESTACK_H
#define CSOBJ_CORE_ABORTABLESTACK_H

#include "core/Results.h"
#include "memory/AtomicRegister.h"
#include "memory/TaggedValue.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace csobj {

/// Figure 1: an abortable, linearizable, lock-free bounded stack.
///
/// \tparam Config a codec family (Compact64 or Wide128) fixing the packed
///         layout of TOP and STACK[x] and the payload type.
/// \tparam Policy register policy (Instrumented / Fast), see
///         memory/RegisterPolicy.h.
template <typename Config = Compact64,
          typename Policy = DefaultRegisterPolicy>
class AbortableStack {
public:
  using TopC = typename Config::Top;
  using SlotC = typename Config::Slot;
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;

  /// The reserved bottom payload; pushing it is a precondition violation.
  static constexpr Value Bottom = TopC::Bottom;

  /// Creates a stack of capacity \p Capacity (the paper's k). Entry 0 of
  /// the backing array is the dummy slot, so Capacity must be at least 1
  /// and small enough for the index field of the TOP codec; otherwise
  /// throws std::invalid_argument (a hard check, kept under NDEBUG).
  explicit AbortableStack(std::uint32_t Capacity)
      : K(checkedCapacity(Capacity)),
        Slots(new AtomicRegister<SlotWord, Policy>[Capacity + 1]) {
    // TOP <- <0, bottom, 0>; STACK[0] <- <bottom, -1>; STACK[x] <- <bottom, 0>.
    Top.write(TopC::pack({/*Index=*/0, /*Value=*/Bottom, /*Seq=*/0}));
    Slots[0].write(SlotC::pack({Bottom, TopC::seqAdd(0, -1)}));
    for (std::uint32_t X = 1; X <= Capacity; ++X)
      Slots[X].write(SlotC::pack({Bottom, 0}));
  }

  /// weak_push(v), lines 01-07. Returns Done, Full, or Abort (bottom).
  /// \p V must not be the reserved Bottom payload and must fit the codec's
  /// value field.
  PushResult weakPush(Value V) {
    assert(V != Bottom && "cannot push the reserved bottom value");
    assert((V & static_cast<Value>(TopC::Bottom)) == V &&
           "value exceeds the codec's value field");
    // Acquire: synchronizes with the releasing TOP-C&S of the operation
    // whose outcome we observe (see file comment).
    const TopWord Observed = Top.read(std::memory_order_acquire); // line 01
    const TopFields<Value> Cur = TopC::unpack(Observed);
    help(Cur);                                                  // line 02
    if (Cur.Index == K)                                         // line 03
      return PushResult::Full;
    const SlotFields<Value> Next = SlotC::unpack(
        Slots[Cur.Index + 1].read(std::memory_order_acquire));  // line 04
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
  PopResult<Value> weakPop() {
    const TopWord Observed = Top.read(std::memory_order_acquire); // line 08
    const TopFields<Value> Cur = TopC::unpack(Observed);
    help(Cur);                                                  // line 09
    if (Cur.Index == 0)                                         // line 10
      return PopResult<Value>::empty();
    const SlotFields<Value> Below = SlotC::unpack(
        Slots[Cur.Index - 1].read(std::memory_order_acquire));  // line 11
    const TopWord NewTop = TopC::pack(
        {Cur.Index - 1, Below.Value, TopC::seqAdd(Below.Seq, +1)}); // line 12
    if (Top.compareAndSwap(Observed, NewTop,
                           std::memory_order_acq_rel))          // line 13
      return PopResult<Value>::value(Cur.Value);
    return PopResult<Value>::abort();                           // line 14
  }

  /// The paper's k.
  std::uint32_t capacity() const { return K; }

  /// Heap owned by the stack: the STACK[0..k] slot array (k + 1 entries;
  /// slot 0 holds the initial sentinel).
  std::size_t heapBytes() const {
    return (std::size_t{K} + 1) * sizeof(AtomicRegister<SlotWord, Policy>);
  }

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

  /// Number of elements currently on the stack. Inherently racy under
  /// concurrency; exact when quiescent. Uninstrumented (test/debug aid).
  std::uint32_t sizeForTesting() const {
    return TopC::unpack(Top.peekForTesting()).Index;
  }

  /// Decoded TOP register (test/debug aid, uninstrumented).
  TopFields<Value> topForTesting() const {
    return TopC::unpack(Top.peekForTesting());
  }

  /// Decoded STACK[x] register (test/debug aid, uninstrumented).
  SlotFields<Value> slotForTesting(std::uint32_t X) const {
    assert(X <= K && "slot index out of range");
    return SlotC::unpack(Slots[X].peekForTesting());
  }

private:
  using TopWord = typename TopC::Word;
  using SlotWord = typename SlotC::Word;

  /// procedure help(index, value, seqnb), lines 15-16: complete the lazy
  /// write of the previous non-aborted operation into STACK[index]. The
  /// C&S succeeds only if that write has not been done yet (expected
  /// sequence number seqnb - 1).
  void help(const TopFields<Value> &T) {
    const SlotFields<Value> Cur = SlotC::unpack(
        Slots[T.Index].read(std::memory_order_acquire));        // line 15
    Slots[T.Index].compareAndSwap(
        SlotC::pack({Cur.Value, TopC::seqAdd(T.Seq, -1)}),
        SlotC::pack({T.Value, T.Seq}),
        std::memory_order_acq_rel);                             // line 16
  }

  static std::uint32_t checkedCapacity(std::uint32_t Capacity) {
    if (Capacity < 1)
      throw std::invalid_argument("AbortableStack: capacity must be >= 1");
    if (Capacity > TopC::MaxIndex)
      throw std::invalid_argument(
          "AbortableStack: capacity exceeds the TOP codec's index field");
    return Capacity;
  }

  const std::uint32_t K;
  AtomicRegister<TopWord, Policy> Top;
  std::unique_ptr<AtomicRegister<SlotWord, Policy>[]> Slots;
};

} // namespace csobj

#endif // CSOBJ_CORE_ABORTABLESTACK_H
