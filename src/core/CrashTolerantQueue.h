//===- core/CrashTolerantQueue.h - Degradable Figure 3 queue ----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FIFO companion of core/CrashTolerantStack.h: the abortable bounded
/// queue (core/AbortableQueue.h) strengthened through the crash-tolerant
/// skeleton (CrashTolerantContentionSensitive, core/ContentionSensitive.h).
/// Linearizable and contention-sensitive
/// like ContentionSensitiveQueue — an uncontended enqueue keeps the
/// seven-access bound (one CONTENTION read plus the weak attempt) — but a
/// process crashing while competing for or holding the slow-path lock no
/// longer wedges the object: survivors revoke the stale lease within
/// their patience budget and complete through the Figure 2 retry loop,
/// degrading starvation-freedom to lock-freedom instead of losing
/// progress altogether.
///
/// ContentionSensitiveQueue with the crash-tolerant skeleton plugged in;
/// see core/CrashTolerantStack.h for the constructor and the group
/// operations.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CRASHTOLERANTQUEUE_H
#define CSOBJ_CORE_CRASHTOLERANTQUEUE_H

#include "core/ContentionSensitiveQueue.h"

namespace csobj {

/// Crash-tolerant contention-sensitive bounded FIFO queue.
///
/// \tparam Config  codec family (Compact64 / Wide128).
/// \tparam Manager ContentionManager pacing protected and degraded
///         retries.
/// \tparam Policy  register policy (Instrumented / Fast).
template <typename Config = Compact64, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using CrashTolerantQueue =
    ContentionSensitiveQueue<Config, TasLock, Manager, Policy,
                             CrashTolerantContentionSensitive<Manager, Policy>>;

} // namespace csobj

#endif // CSOBJ_CORE_CRASHTOLERANTQUEUE_H
