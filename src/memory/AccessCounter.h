//===- memory/AccessCounter.h - Shared-memory access accounting -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread accounting of shared-memory accesses. The paper's headline
/// efficiency claim is stated in *number of shared-memory accesses* (a
/// contention-free strong operation performs six). Every AtomicRegister
/// operation reports itself here; installing an AccessCounterScope on a
/// thread makes the counts observable, and experiment E1 regenerates the
/// paper's numbers from them. When no scope is installed the cost is a
/// thread-local load and a predictable branch.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_MEMORY_ACCESSCOUNTER_H
#define CSOBJ_MEMORY_ACCESSCOUNTER_H

#include <cstdint>

namespace csobj {

/// Counts of shared-memory accesses by kind, as the paper counts them:
/// one read, one write, or one Compare&Swap invocation each count as one
/// access, regardless of success.
struct AccessCounts {
  std::uint64_t Reads = 0;
  std::uint64_t Writes = 0;
  std::uint64_t CasAttempts = 0;
  std::uint64_t CasFailures = 0;
  std::uint64_t Rmw = 0; ///< Other read-modify-writes (exchange, fetch-add).

  /// Total accesses in the paper's counting convention.
  std::uint64_t total() const { return Reads + Writes + CasAttempts + Rmw; }

  AccessCounts operator-(const AccessCounts &Other) const {
    AccessCounts Delta;
    Delta.Reads = Reads - Other.Reads;
    Delta.Writes = Writes - Other.Writes;
    Delta.CasAttempts = CasAttempts - Other.CasAttempts;
    Delta.CasFailures = CasFailures - Other.CasFailures;
    Delta.Rmw = Rmw - Other.Rmw;
    return Delta;
  }

  bool operator==(const AccessCounts &Other) const = default;
};

namespace detail {
/// Active counter sink of the calling thread, or nullptr when accounting
/// is off. Managed by AccessCounterScope. Defined inline with a constant
/// initializer, so every use reads the thread-local slot directly.
inline thread_local AccessCounts *ActiveAccessCounts = nullptr;
} // namespace detail

/// RAII installer: while alive, all AtomicRegister accesses performed by
/// this thread are tallied into the given AccessCounts. Scopes nest; the
/// innermost wins (the outer scope misses the inner accesses, matching
/// lexical intuition for "count just this call").
class AccessCounterScope {
public:
  explicit AccessCounterScope(AccessCounts &Sink)
      : Previous(detail::ActiveAccessCounts) {
    detail::ActiveAccessCounts = &Sink;
  }

  AccessCounterScope(const AccessCounterScope &) = delete;
  AccessCounterScope &operator=(const AccessCounterScope &) = delete;

  ~AccessCounterScope() { detail::ActiveAccessCounts = Previous; }

private:
  AccessCounts *Previous;
};

/// Counts the shared-memory accesses performed by \p Body on this thread.
template <typename BodyFn>
AccessCounts countAccesses(BodyFn Body) {
  AccessCounts Counts;
  {
    AccessCounterScope Scope(Counts);
    Body();
  }
  return Counts;
}

namespace detail {
inline void noteRead() {
  if (AccessCounts *C = ActiveAccessCounts)
    ++C->Reads;
}
inline void noteWrite() {
  if (AccessCounts *C = ActiveAccessCounts)
    ++C->Writes;
}
inline void noteCas(bool Succeeded) {
  if (AccessCounts *C = ActiveAccessCounts) {
    ++C->CasAttempts;
    if (!Succeeded)
      ++C->CasFailures;
  }
}
inline void noteRmw() {
  if (AccessCounts *C = ActiveAccessCounts)
    ++C->Rmw;
}
} // namespace detail

} // namespace csobj

#endif // CSOBJ_MEMORY_ACCESSCOUNTER_H
