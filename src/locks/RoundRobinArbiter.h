//===- locks/RoundRobinArbiter.h - The FLAG/TURN doorway --------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FLAG[1..n] / TURN round-robin doorway of the paper's Figure 3
/// (the starred lines 04-05 and 10-11), factored into a standalone
/// component. The paper observes (Section 4.4) that bracketing any
/// deadlock-free lock with this doorway yields a starvation-free lock,
/// and (Section 1.2) that the mechanism is a reusable *contention
/// manager* for fairness problems in general. Both uses live here:
/// Figure 3 composes the arbiter with its lock, and StarvationFreeLock.h
/// packages the Section 4.4 transformation.
///
/// Protocol (0-based ids; the paper's (TURN mod n) + 1 becomes
/// (Turn + 1) % n):
///  * enter(i)  — line 04: FLAG[i] <- true; line 05: wait until TURN = i
///    or FLAG[TURN] = false.
///  * exitAndAdvance(i) — line 10: FLAG[i] <- false; line 11: if
///    FLAG[TURN] = false, advance TURN to the next process on the ring.
///
/// Liveness argument (paper's Lemma 3): TURN is only ever advanced to the
/// next ring position and never skips a process, so a flagged process
/// eventually holds TURN, at which point every other process blocks in
/// enter() until it passes through.
///
/// FLAG entries and TURN each occupy their own cache line: the doorway is
/// slow-path machinery, and its spinning must not evict the line holding
/// fast-path state. All accesses stay seq_cst — the Lemma 3 argument
/// interleaves writes and reads of two registers (FLAG[TURN] and TURN)
/// and is only written down for the sequentially consistent model.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_ROUNDROBINARBITER_H
#define CSOBJ_LOCKS_ROUNDROBINARBITER_H

#include "memory/AtomicRegister.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace csobj {

/// The paper's FLAG/TURN fairness doorway.
///
/// \tparam Policy register policy (Instrumented / Fast), see
///         memory/RegisterPolicy.h.
template <typename Policy = DefaultRegisterPolicy>
class RoundRobinArbiterT {
public:
  using RegisterPolicy = Policy;

  /// \p NumThreads is the paper's n; ids are 0..n-1. The initial TURN is
  /// arbitrary per the paper; 0 is used. Zero \p NumThreads throws
  /// std::invalid_argument (a hard check, kept under NDEBUG: the FLAG
  /// array would be empty).
  explicit RoundRobinArbiterT(std::uint32_t NumThreads)
      : N(NumThreads),
        Flag(new CacheLinePadded<
             AtomicRegister<std::uint8_t, Policy>>[NumThreads]) {
    if (NumThreads < 1)
      throw std::invalid_argument(
          "RoundRobinArbiter: need at least one process");
  }

  /// Lines 04-05: announce interest, then wait until this process has
  /// priority or the prioritized process is not competing.
  void enter(std::uint32_t I) {
    assert(I < N && "thread id out of range");
    Flag[I].value().write(1);                        // line 04
    SpinWait Waiter;
    while (true) {                                   // line 05
      const std::uint32_t T = Turn.value().read();
      if (T == I)
        break;
      if (Flag[T].value().read() == 0)
        break;
      Waiter.once();
    }
  }

  /// Lines 10-11: withdraw interest and, if the prioritized process is
  /// not competing, pass priority to the next process on the ring.
  void exitAndAdvance(std::uint32_t I) {
    assert(I < N && "thread id out of range");
    Flag[I].value().write(0);                        // line 10
    const std::uint32_t T = Turn.value().read();     // line 11
    if (Flag[T].value().read() == 0)
      Turn.value().write((T + 1) % N);
  }

  std::uint32_t numThreads() const { return N; }

  /// Current TURN value (test/debug aid, uninstrumented).
  std::uint32_t turnForTesting() const {
    return Turn.value().peekForTesting();
  }

  /// Current FLAG[i] (test/debug aid, uninstrumented).
  bool flagForTesting(std::uint32_t I) const {
    assert(I < N && "thread id out of range");
    return Flag[I].value().peekForTesting() != 0;
  }

  /// Heap owned by the arbiter: the padded per-thread FLAG array.
  std::size_t heapBytes() const {
    return std::size_t{N} *
           sizeof(CacheLinePadded<AtomicRegister<std::uint8_t, Policy>>);
  }

private:
  const std::uint32_t N;
  CacheLinePadded<AtomicRegister<std::uint32_t, Policy>> Turn;
  std::unique_ptr<CacheLinePadded<AtomicRegister<std::uint8_t, Policy>>[]>
      Flag;
};

/// The library-default arbiter (instrumented unless CSOBJ_FAST_REGISTERS).
using RoundRobinArbiter = RoundRobinArbiterT<>;

} // namespace csobj

#endif // CSOBJ_LOCKS_ROUNDROBINARBITER_H
