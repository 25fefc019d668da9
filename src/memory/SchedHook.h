//===- memory/SchedHook.h - Interleaving control points ---------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheduling hook invoked before every shared-memory access. The
/// interleaving explorer (src/sched) installs a per-thread hook so that a
/// controller can serialize threads and enumerate every interleaving of
/// the paper's algorithms for small scenarios. In normal operation no hook
/// is installed and the cost is a thread-local load plus a branch.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_MEMORY_SCHEDHOOK_H
#define CSOBJ_MEMORY_SCHEDHOOK_H

namespace csobj {

/// Classification of a shared-memory access, for hooks and accounting.
enum class AccessKind { Read, Write, Cas, Rmw };

/// Interface a scheduler implements to gate shared-memory accesses.
class SchedHook {
public:
  virtual ~SchedHook();

  /// Called by the accessing thread immediately *before* the access takes
  /// effect. A controller typically blocks here until the thread is
  /// granted its next step.
  virtual void beforeSharedAccess(AccessKind Kind) = 0;
};

namespace detail {
/// Hook of the calling thread, or nullptr when none is installed.
/// Managed by SchedHookScope. Defined inline with a constant
/// initializer, so every use reads the thread-local slot directly.
inline thread_local SchedHook *ActiveSchedHook = nullptr;

inline void preAccess(AccessKind Kind) {
  if (SchedHook *Hook = ActiveSchedHook)
    Hook->beforeSharedAccess(Kind);
}
} // namespace detail

/// RAII installer for the calling thread's schedule hook.
class SchedHookScope {
public:
  explicit SchedHookScope(SchedHook &Hook)
      : Previous(detail::ActiveSchedHook) {
    detail::ActiveSchedHook = &Hook;
  }

  SchedHookScope(const SchedHookScope &) = delete;
  SchedHookScope &operator=(const SchedHookScope &) = delete;

  ~SchedHookScope() { detail::ActiveSchedHook = Previous; }

private:
  SchedHook *Previous;
};

} // namespace csobj

#endif // CSOBJ_MEMORY_SCHEDHOOK_H
