//===- memory/NodePool.h - Type-stable growable node pool -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocation side of the reclamation substrate: a grow-on-demand,
/// type-stable pool of nodes. Where IndexPool hands out indices into a
/// fixed array that never runs dry (bounded objects), NodePool hands
/// out pointers and allocates new storage when the free list runs dry —
/// the unbounded objects' world. Storage is *type-stable*: a node, once
/// allocated, is owned by the pool's registry until the pool dies, so a
/// stale pointer held by a slow reader always points at a Node (possibly
/// recycled — the hazard protocol in memory/HazardDomain.h is what rules
/// the recycled case out before a dereference is trusted).
///
/// Like the HazardDomain, the pool lives entirely on the reclamation
/// channel: no AtomicRegister is touched, so acquire/release are
/// invisible to the access-count oracle and the interleaving explorer,
/// and — because the fault injectors fire only from instrumented
/// accesses — both operations are crash-atomic (a campaign crash cannot
/// land inside the spinlock's critical section and wedge the pool).
///
/// Concurrency: one test-and-set spinlock guards the free list and the
/// registry. Acquire/release are rare (once per ChunkSlots-element
/// turnover for the unbounded objects) and off every counted path; a
/// spinlock keeps the ABA question out of the pool entirely (the tagged
/// Treiber alternative saves nothing measurable at this call rate).
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_MEMORY_NODEPOOL_H
#define CSOBJ_MEMORY_NODEPOOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace csobj {

/// Scoped test-and-set spinlock on the reclamation channel: a plain
/// std::atomic_flag, so taking it is no shared-memory access of the
/// algorithms and no fault injector can fire inside it. Guards rare,
/// short bookkeeping (pool free lists, chunk directories).
class SpinGuard {
public:
  explicit SpinGuard(std::atomic_flag &F) : F(F) {
    while (F.test_and_set(std::memory_order_acquire))
      ;
  }
  SpinGuard(const SpinGuard &) = delete;
  SpinGuard &operator=(const SpinGuard &) = delete;
  ~SpinGuard() { F.clear(std::memory_order_release); }

private:
  std::atomic_flag &F;
};

/// Growable pool of default-constructed \p T nodes with pointer-stable
/// storage. Recycled nodes are handed back as-is: the caller re-
/// initialises what it needs (through the registers' reclamation-channel
/// writers) before republishing.
template <typename T>
class NodePool {
public:
  NodePool() = default;

  NodePool(const NodePool &) = delete;
  NodePool &operator=(const NodePool &) = delete;

  /// Pops a free node, or allocates a fresh one. Never fails (allocation
  /// failure throws bad_alloc like any new).
  T *acquire() {
    {
      SpinGuard G(Lock);
      if (!Free.empty()) {
        T *Node = Free.back();
        Free.pop_back();
        return Node;
      }
    }
    // Allocate outside the lock; registering re-takes it briefly.
    std::unique_ptr<T> Fresh = std::make_unique<T>();
    T *Node = Fresh.get();
    SpinGuard G(Lock);
    Registry.push_back(std::move(Fresh));
    return Node;
  }

  /// Returns \p Node to the free list. The caller guarantees no reader
  /// can still trust a pointer to it (i.e. this is the tail of a hazard
  /// scan, or the node was never published).
  void release(T *Node) {
    SpinGuard G(Lock);
    Free.push_back(Node);
  }

  /// HazardDomain-compatible recycler: Ctx is the pool.
  static void recycle(void *Obj, void *Ctx) {
    static_cast<NodePool *>(Ctx)->release(static_cast<T *>(Obj));
  }

  /// Nodes ever allocated (allocated = live + free + retired-in-flight).
  std::size_t allocatedCount() const {
    SpinGuard G(Lock);
    return Registry.size();
  }

  /// Nodes currently on the free list.
  std::size_t freeCount() const {
    SpinGuard G(Lock);
    return Free.size();
  }

  /// Heap owned by the pool: every node ever allocated plus the
  /// registry/free-list vectors. This is the honest resident footprint
  /// an unbounded object reports per element.
  std::size_t heapBytes() const {
    SpinGuard G(Lock);
    return Registry.size() * sizeof(T) +
           Registry.capacity() * sizeof(std::unique_ptr<T>) +
           Free.capacity() * sizeof(T *);
  }

private:
  mutable std::atomic_flag Lock = ATOMIC_FLAG_INIT;
  std::vector<std::unique_ptr<T>> Registry;
  std::vector<T *> Free;
};

} // namespace csobj

#endif // CSOBJ_MEMORY_NODEPOOL_H
