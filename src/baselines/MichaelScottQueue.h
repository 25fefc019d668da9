//===- baselines/MichaelScottQueue.h - Lock-free FIFO queue -----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Michael & Scott's lock-free queue (PODC'96), the canonical linked
/// CAS-based FIFO and the lock-free baseline for the queue family
/// (experiment E7). Nodes come from a preallocated IndexPool (one extra
/// node is the permanent dummy), with ABA tags on head, tail and every
/// next link as in the original algorithm. Head's and Tail's tags count
/// their moves, so Full is read from tag(Tail) - tag(Head), not from the
/// pool. Lock-free (helping swings the tail), not starvation-free.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_BASELINES_MICHAELSCOTTQUEUE_H
#define CSOBJ_BASELINES_MICHAELSCOTTQUEUE_H

#include "core/Results.h"
#include "memory/AtomicRegister.h"
#include "memory/IndexPool.h"
#include "support/BitPack.h"

#include <cstdint>
#include <memory>
#include <optional>

namespace csobj {

/// Bounded Michael-Scott queue over a preallocated node pool.
///
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Policy = DefaultRegisterPolicy>
class MichaelScottQueueT {
public:
  using Value = std::uint32_t;
  using RegisterPolicy = Policy;

  /// \p NumThreads is the paper's n; \p Capacity the element bound.
  MichaelScottQueueT(std::uint32_t NumThreads, std::uint32_t Capacity)
      : Pool(Capacity + 1, NumThreads), Nodes(new Node[Pool.size()]),
        CapacityK(Capacity) {
    const std::uint32_t Dummy = Pool.acquire(); // Its link starts null.
    Head.write(PtrCodec::pack(Dummy, 0));
    Tail.write(PtrCodec::pack(Dummy, 0));
  }

  /// Enqueues \p V at the tail; Full when the queue holds k values.
  ///
  /// Full is tag(Tail) - tag(Head) >= k, Tail confirmed before Head is
  /// read: the last node is then at or past position tag(Tail). Done
  /// keeps the length at most k: the link CAS lands only while the node
  /// at tag(Tail) is last, so a second enqueuer's CAS fails and re-reads.
  PushResult enqueue(Value V) {
    std::optional<std::uint32_t> NewIdx;
    while (true) {
      const std::uint64_t T = Tail.read();
      const std::uint64_t Next = Nodes[idxOf(T)].Next.read();
      if (T != Tail.read())
        continue; // Tail moved under us; re-snapshot.
      if (linkOf(Next) != 0) {
        // Tail lagging: help swing it before retrying.
        Tail.compareAndSwap(T,
                            PtrCodec::pack(linkOf(Next) - 1, tagOf(T) + 1));
        continue;
      }
      // Signed: a Head past a stale T reads as room; T's link CAS fails.
      if (static_cast<std::int32_t>(tagOf(T) - tagOf(Head.read())) >=
          static_cast<std::int32_t>(CapacityK)) {
        if (NewIdx)
          Pool.release(*NewIdx);
        return PushResult::Full;
      }
      if (!NewIdx) {
        NewIdx = Pool.acquire();
        Nodes[*NewIdx].Payload.write(V);
        // Reset our link to null, bumping its tag past the previous life.
        const std::uint64_t OldLink = Nodes[*NewIdx].Next.read();
        Nodes[*NewIdx].Next.write(LinkCodec::pack(0, tagOf(OldLink) + 1));
      }
      // Tail really is last: try to link the new node after it.
      if (Nodes[idxOf(T)].Next.compareAndSwap(
              Next, LinkCodec::pack(*NewIdx + 1, tagOf(Next) + 1))) {
        // Swing the tail; failure means someone helped already.
        Tail.compareAndSwap(T, PtrCodec::pack(*NewIdx, tagOf(T) + 1));
        return PushResult::Done;
      }
    }
  }

  /// Dequeues the oldest value; Empty when the queue is empty.
  PopResult<Value> dequeue() {
    while (true) {
      const std::uint64_t H = Head.read();
      const std::uint64_t T = Tail.read();
      const std::uint64_t Next = Nodes[idxOf(H)].Next.read();
      if (H != Head.read())
        continue;
      if (idxOf(H) == idxOf(T)) {
        if (linkOf(Next) == 0)
          return PopResult<Value>::empty();
        // Tail lagging behind a half-finished enqueue: help.
        Tail.compareAndSwap(T,
                            PtrCodec::pack(linkOf(Next) - 1, tagOf(T) + 1));
        continue;
      }
      const Value V = Nodes[linkOf(Next) - 1].Payload.read();
      if (Head.compareAndSwap(
              H, PtrCodec::pack(linkOf(Next) - 1, tagOf(H) + 1))) {
        Pool.release(idxOf(H)); // Old dummy retires; next node is dummy.
        return PopResult<Value>::value(V);
      }
    }
  }

  std::uint32_t capacity() const { return CapacityK; }

  /// Element count, tag(Tail) - tag(Head) (test/debug aid).
  std::uint32_t sizeForTesting() const {
    return tagOf(Tail.peekForTesting()) - tagOf(Head.peekForTesting());
  }

private:
  // Head/Tail pack <node-index:32, tag:32> (the dummy makes them always
  // valid); next links pack <index+1:32, tag:32> with 0 = null.
  using PtrCodec = PackedPair<std::uint64_t, 32, 32>;
  using LinkCodec = PackedPair<std::uint64_t, 32, 32>;

  static std::uint32_t idxOf(std::uint64_t Word) {
    return static_cast<std::uint32_t>(PtrCodec::a(Word));
  }
  static std::uint32_t linkOf(std::uint64_t Word) {
    return static_cast<std::uint32_t>(LinkCodec::a(Word));
  }
  static std::uint32_t tagOf(std::uint64_t Word) {
    return static_cast<std::uint32_t>(PtrCodec::b(Word));
  }

  struct Node {
    AtomicRegister<Value, Policy> Payload{0};
    AtomicRegister<std::uint64_t, Policy> Next{0};
  };

  IndexPool<Policy> Pool;
  AtomicRegister<std::uint64_t, Policy> Head{0};
  AtomicRegister<std::uint64_t, Policy> Tail{0};
  std::unique_ptr<Node[]> Nodes;
  const std::uint32_t CapacityK;
};

/// The library-default MS queue (instrumented unless CSOBJ_FAST_REGISTERS).
using MichaelScottQueue = MichaelScottQueueT<>;

} // namespace csobj

#endif // CSOBJ_BASELINES_MICHAELSCOTTQUEUE_H
