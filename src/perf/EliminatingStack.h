//===- perf/EliminatingStack.h - Elimination-accelerated Fig. 3 -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 3 stack with an elimination window wedged between the
/// paper's shortcut (lines 01-03) and the doorway (line 04): the stack
/// with EliminationRescue (perf/EliminationArray.h) as its rescue. When
/// the fast path fails — CONTENTION was raised, or the weak attempt lost
/// its C&S — the operation gets one rendezvous attempt to pair with an
/// inverse operation before competing for the lock. The rescue's class
/// comment gives the linearizability argument (the gate read of TOP);
/// DESIGN.md ("Acceleration layer") the full one.
///
/// Preserved guarantees:
///  * Solo cost: the contention-free execution is that of the plain
///    Figure 3 stack — one CONTENTION read plus the five weak-op
///    accesses, six total; the rescue window is never entered. The
///    conformance battery's access bounds enforce this.
///  * Starvation-freedom: the rescue is attempted at most once per
///    operation, so every operation still reaches the doorway after a
///    bounded number of its own steps; Lemmas 1-3 and Theorem 1 apply
///    verbatim to the fall-through.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERF_ELIMINATINGSTACK_H
#define CSOBJ_PERF_ELIMINATINGSTACK_H

#include "core/ContentionSensitiveStack.h"
#include "perf/EliminationArray.h"

namespace csobj {

/// Figure 3 over Figure 1, accelerated by a gated elimination array.
/// Template parameters match ContentionSensitiveStack's first four.
/// Construct with (n, k, SlotCount = 4, SpinBudget = 64): the trailing
/// pair sizes the array (deterministic tests want {1, small}, benches
/// want {~threads/2, larger}).
template <typename Config = Compact64, typename Lock = TasLock,
          ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using EliminatingContentionSensitiveStack =
    ContentionSensitiveStack<Config, Lock, Manager, Policy,
                             ContentionSensitive<Lock, Manager, Policy>,
                             FlatStore, EliminationRescue<Policy>>;

} // namespace csobj

#endif // CSOBJ_PERF_ELIMINATINGSTACK_H
