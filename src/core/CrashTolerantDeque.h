//===- core/CrashTolerantDeque.h - Degradable Figure 3 deque ----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HLM obstruction-free deque (core/ObstructionFreeDeque.h, the
/// paper's reference [8]) strengthened through the crash-tolerant
/// skeleton (CrashTolerantContentionSensitive, core/ContentionSensitive.h).
/// ContentionSensitiveDeque already
/// lifts the deque from obstruction-free to starvation-free; this variant
/// keeps that lift while surviving the Section 5 crash boundary: a
/// process dying in the doorway or with the lease held is suspected,
/// skipped, and revoked within the survivors' patience budget, after
/// which operations complete through the Figure 2 retry loop (lock-free —
/// the HLM attempts only abort when a rival's C&S wins). The deque is the
/// strongest stress case for degraded mode: two symmetric HLM operations
/// can abort each other indefinitely under an adversarial schedule, so
/// lock-freedom here really does lean on a rival completing.
///
/// ContentionSensitiveDeque with the crash-tolerant skeleton plugged in;
/// the argument after InitialLeftSlots is the lock's patience. See
/// core/CrashTolerantStack.h for the group operations.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CRASHTOLERANTDEQUE_H
#define CSOBJ_CORE_CRASHTOLERANTDEQUE_H

#include "core/ContentionSensitiveDeque.h"

namespace csobj {

/// Crash-tolerant contention-sensitive double-ended queue.
///
/// \tparam Manager ContentionManager pacing protected and degraded
///         retries.
/// \tparam Policy  register policy (Instrumented / Fast) for the skeleton
///         registers (the HLM array itself is non-template, always
///         instrumented-by-default like the rest of the deque family).
template <ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using CrashTolerantDeque =
    ContentionSensitiveDeque<TasLock,
                             CrashTolerantContentionSensitive<Manager, Policy>>;

} // namespace csobj

#endif // CSOBJ_CORE_CRASHTOLERANTDEQUE_H
