//===- locks/McsLock.h - MCS queue lock -------------------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mellor-Crummey & Scott queue lock. Each waiter spins on its own cache
/// line; handoff is FIFO, so the lock is starvation-free. Queue nodes are
/// preallocated per process id (the paper's p_1..p_n model makes this
/// natural), so the lock is allocation-free after construction. Node
/// links are stored as id+1 with 0 meaning "null" so they fit atomic
/// registers without pointer tagging.
///
/// Memory orderings (audited): the Tail exchange is acq_rel (it both
/// publishes our initialized node and orders us after the predecessor's
/// enqueue); the MustWait handoff is a release store observed by an
/// acquire spin read — the edge that carries the critical section from
/// holder to successor; the Tail C&S in unlock is release (publishes the
/// critical section when the queue closes) and the successor-link spin
/// reads are acquire (they must observe the successor's initialized
/// node).
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_MCSLOCK_H
#define CSOBJ_LOCKS_MCSLOCK_H

#include "memory/AtomicRegister.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace csobj {

/// MCS list-based queue lock over dense thread ids.
///
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Policy = DefaultRegisterPolicy>
class McsLockT {
public:
  static constexpr const char *Name = "mcs";
  using RegisterPolicy = Policy;

  explicit McsLockT(std::uint32_t NumThreads)
      : N(NumThreads), Nodes(new CacheLinePadded<Node>[NumThreads]) {
    assert(NumThreads >= 1 && "MCS lock needs at least one process");
  }

  void lock(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    Node &Mine = Nodes[Tid].value();
    Mine.Next.write(0, std::memory_order_relaxed);
    Mine.MustWait.write(1, std::memory_order_relaxed);
    const std::uint32_t Pred =
        Tail.value().exchange(Tid + 1, std::memory_order_acq_rel);
    if (Pred == 0)
      return; // Lock was free.
    // Link behind the predecessor and spin on our own flag. Release:
    // publishes our initialized node to the predecessor's unlock.
    Nodes[Pred - 1].value().Next.write(Tid + 1, std::memory_order_release);
    SpinWait Waiter;
    while (Mine.MustWait.read(std::memory_order_acquire) != 0)
      Waiter.once();
  }

  void unlock(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    Node &Mine = Nodes[Tid].value();
    if (Mine.Next.read(std::memory_order_acquire) == 0) {
      // No known successor: try to close the queue.
      if (Tail.value().compareAndSwap(Tid + 1, 0,
                                      std::memory_order_release))
        return;
      // A successor is announcing itself; wait for the link.
      SpinWait Waiter;
      while (Mine.Next.read(std::memory_order_acquire) == 0)
        Waiter.once();
    }
    Nodes[Mine.Next.read(std::memory_order_acquire) - 1]
        .value()
        .MustWait.write(0, std::memory_order_release);
  }

  /// Heap owned by the lock: the padded per-process queue nodes.
  std::size_t heapBytes() const {
    return std::size_t{N} * sizeof(CacheLinePadded<Node>);
  }

private:
  struct Node {
    AtomicRegister<std::uint32_t, Policy> Next{0}; ///< Successor id+1.
    AtomicRegister<std::uint8_t, Policy> MustWait{0}; ///< Spun on by owner.
  };

  const std::uint32_t N;
  CacheLinePadded<AtomicRegister<std::uint32_t, Policy>>
      Tail; ///< Last waiter id+1; 0 = free.
  std::unique_ptr<CacheLinePadded<Node>[]> Nodes;
};

using McsLock = McsLockT<>;

} // namespace csobj

#endif // CSOBJ_LOCKS_MCSLOCK_H
