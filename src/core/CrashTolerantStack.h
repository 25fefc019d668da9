//===- core/CrashTolerantStack.h - Degradable Figure 3 stack ----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The headline stack rebuilt on the crash-tolerant skeleton
/// (CrashTolerantContentionSensitive, core/ContentionSensitive.h):
/// linearizable and contention-sensitive like
/// ContentionSensitiveStack — an uncontended operation is lock-free and
/// performs the same six shared-memory accesses — but a process crashing
/// while competing for or holding the slow-path lock no longer wedges
/// the object. Survivors detect the stale lease within their patience
/// budget, revoke it, and complete through the Figure 2 retry loop;
/// progress degrades from starvation-free to lock-free instead of
/// vanishing, and every degradation is counted.
///
/// Only the skeleton differs from ContentionSensitiveStack, so this is
/// that wrapper with the crash-tolerant skeleton plugged in, as
/// perf/CombiningObjects.h does for combining; the wrapper's Lock
/// parameter is vestigial (the skeleton holds its own leased lock). A
/// third constructor argument is the lock's patience. The group
/// operations (push_all/pop_all/drain) run through the same slow path:
/// a group whose acquisition times out completes element by element
/// through the degraded loop.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CRASHTOLERANTSTACK_H
#define CSOBJ_CORE_CRASHTOLERANTSTACK_H

#include "core/ContentionSensitiveStack.h"

namespace csobj {

/// Crash-tolerant contention-sensitive bounded stack.
///
/// \tparam Config  codec family (Compact64 / Wide128).
/// \tparam Manager ContentionManager pacing protected and degraded
///         retries.
/// \tparam Policy  register policy (Instrumented / Fast).
template <typename Config = Compact64, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
using CrashTolerantStack =
    ContentionSensitiveStack<Config, TasLock, Manager, Policy,
                             CrashTolerantContentionSensitive<Manager, Policy>>;

} // namespace csobj

#endif // CSOBJ_CORE_CRASHTOLERANTSTACK_H
