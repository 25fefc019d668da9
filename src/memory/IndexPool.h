//===- memory/IndexPool.h - Tagged index lists, node pool -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one rule for pool-backed objects (Treiber, HSY, Michael-Scott,
/// BoxedStack), written once. TaggedIndexList is Treiber's list over a
/// shared array of link registers (link = index+1, 0 = null); its head
/// word <link:16, count:16, tag:32> carries Section 2.2's ABA tag and
/// the length. Lists may share the links while each entry is on at most
/// one: every successful CAS bumps its head's tag, so a link read
/// through a stale head word loses its CAS.
///
/// IndexPool, the free list, holds Capacity + NumThreads entries. A
/// process holds at most one entry that is on no list (acquired but not
/// yet published, or unpublished but not yet released), so acquire()
/// never finds the pool empty, Full comes from the owner's own count,
/// and a crash strands only the crashed process's spare. The spares are
/// the per-process memory a bounded non-blocking container needs
/// (Aksenov et al., arXiv 2104.15003).
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_MEMORY_INDEXPOOL_H
#define CSOBJ_MEMORY_INDEXPOOL_H

#include "memory/AtomicRegister.h"
#include "support/BitPack.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace csobj {

/// A lock-free LIFO list of indices threaded through a shared link array.
template <typename Policy = DefaultRegisterPolicy>
class TaggedIndexList {
  using Codec = PackedTriple<std::uint64_t, 16, 16, 32>;

public:
  using Link = AtomicRegister<std::uint32_t, Policy>;
  /// Most entries the link and count fields address.
  static constexpr std::uint32_t MaxEntries = Codec::FieldA::maxValue();

  /// An empty list over \p Links.
  explicit TaggedIndexList(Link *Links) : Links(Links) {}

  std::uint64_t read() const { return Head.read(); }
  static bool isEmpty(std::uint64_t Word) { return Codec::a(Word) == 0; }
  static std::uint32_t count(std::uint64_t Word) { return Codec::b(Word); }
  /// The top entry of a nonempty head word.
  static std::uint32_t top(std::uint64_t Word) { return Codec::a(Word) - 1; }

  /// One push attempt: links \p Idx above the \p Observed head and CASes
  /// it in. False when the head moved since it was read.
  bool tryPush(std::uint64_t Observed, std::uint32_t Idx) {
    Links[Idx].write(static_cast<std::uint32_t>(Codec::a(Observed)));
    return Head.compareAndSwap(Observed, successor(Observed, Idx + 1, +1));
  }

  /// One pop attempt on a nonempty \p Observed head: unlinks its top.
  /// False when the head moved since it was read.
  bool tryPop(std::uint64_t Observed) {
    const std::uint32_t Next = Links[top(Observed)].read();
    return Head.compareAndSwap(Observed, successor(Observed, Next, -1));
  }

  /// Entry count read from the head word, without counting an access.
  std::uint32_t countForTesting() const { return count(Head.peekForTesting()); }

private:
  /// \p Link on top, the count moved by \p Delta, the tag bumped.
  static std::uint64_t successor(std::uint64_t Observed, std::uint32_t Link,
                                 int Delta) {
    return Codec::pack(Link, count(Observed) + Delta,
                       static_cast<std::uint32_t>(Codec::c(Observed) + 1));
  }

  Link *const Links;
  AtomicRegister<std::uint64_t, Policy> Head{0};
};

/// The lock-free pool of indices [0, Capacity + NumThreads) every
/// pool-backed object draws its nodes from.
template <typename Policy = DefaultRegisterPolicy>
class IndexPool {
public:
  using List = TaggedIndexList<Policy>;

  /// \p Capacity entries for the owner and a spare for each of the
  /// \p NumThreads processes (the paper's n). Throws std::invalid_argument
  /// for no process or a total beyond the link field.
  IndexPool(std::uint32_t Capacity, std::uint32_t NumThreads)
      : Size(checkedSize(Capacity, NumThreads)),
        Links(new typename List::Link[Size]), Free(Links.get()) {
    for (std::uint32_t I = Size; I-- > 0;)
      release(I); // Entry 0 ends on top.
  }

  /// Pops a free index; never finds the pool empty while at most
  /// NumThreads processes use it.
  std::uint32_t acquire() {
    while (true) {
      const std::uint64_t Observed = Free.read();
      assert(!List::isEmpty(Observed) && "more processes than spares");
      if (!List::isEmpty(Observed) && Free.tryPop(Observed))
        return List::top(Observed);
    }
  }

  /// Returns \p Idx to the pool.
  void release(std::uint32_t Idx) {
    assert(Idx < Size && "index out of range");
    while (!Free.tryPush(Free.read(), Idx)) {
    }
  }

  /// A new, empty list over this pool's links (a Treiber stack's top).
  List emptyList() { return List(Links.get()); }

  std::uint32_t size() const { return Size; }
  std::uint32_t freeCountForTesting() const { return Free.countForTesting(); }

private:
  static std::uint32_t checkedSize(std::uint32_t Capacity,
                                   std::uint32_t NumThreads) {
    if (NumThreads == 0 ||
        std::uint64_t{Capacity} + NumThreads > List::MaxEntries)
      throw std::invalid_argument("IndexPool: needs 1 <= processes and "
                                  "capacity + processes <= 65535");
    return Capacity + NumThreads;
  }

  const std::uint32_t Size;
  std::unique_ptr<typename List::Link[]> Links;
  List Free;
};

} // namespace csobj

#endif // CSOBJ_MEMORY_INDEXPOOL_H
