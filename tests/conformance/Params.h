//===- tests/conformance/Params.h - Shared battery parameters ---*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place the conformance battery's scope parameters live, shared
/// with the benchmark drivers so the battery exercises the same object
/// configurations the experiment tables report on. bench/BenchCommon.h
/// includes this header, so no bench repeats the capacity as a magic
/// number.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_TESTS_CONFORMANCE_PARAMS_H
#define CSOBJ_TESTS_CONFORMANCE_PARAMS_H

#include <cstdint>

namespace csobj {
namespace conformance {

/// Capacity of the wall-clock experiment cells: BenchCommon's runCell
/// default and the objects the cells build. Large enough that no
/// bench workload ever hits Full, so abort/degradation rates measure
/// contention, not capacity pressure.
inline constexpr std::uint32_t BenchCapacity = 4096;

/// Small-scope capacity for battery cells: small enough that Full and
/// Empty edges are reached constantly (where linearizability bugs hide),
/// and that the checker's search space stays tiny.
inline constexpr std::uint32_t SmallCapacity = 4;

/// Left-side free slots of the linear HLM deque at SmallCapacity (the
/// positional LinearDequeSpec needs the same split as the object).
inline constexpr std::uint32_t SmallLeftSlots = 2;

/// Lincheck stress-cell shape: Threads x OpsPerThread operations per
/// round, every round checked for linearizability. 3 x 6 keeps the
/// Wing & Gong search instant while still crossing Full/Empty edges.
inline constexpr std::uint32_t StressThreads = 3;
inline constexpr std::uint32_t StressOpsPerThread = 6;
inline constexpr std::uint32_t StressRounds = 12;

/// Chaos-cell rounds (same shape as stress, run under FaultPlan::chaos
/// yield/stall noise on every thread).
inline constexpr std::uint32_t ChaosRounds = 6;
inline constexpr std::uint32_t ChaosYieldPermille = 80;
inline constexpr std::uint32_t ChaosStallPermille = 30;
inline constexpr std::uint64_t ChaosStallGrants = 64;

/// Random-walk schedule samples for objects whose schedule space is
/// unbounded (anything with a waiting loop).
inline constexpr std::uint64_t RandomWalkRuns = 48;

/// Patience, in logical observations, used wherever the battery forces
/// degradation deterministically (crash sweeps, explorer runs). Small so
/// a corpse is detected within a handful of scheduler grants.
inline constexpr std::uint32_t SmallPatience = 8;

/// Ordered-map battery shape. Concurrent map cells run over a small key
/// universe (so same-key and same-region conflicts are constant) against
/// a capacity the universe can never fill: the map's distinct-keys-ever
/// admission is exact solo but may over-admit when concurrent inserts
/// race precisely at the capacity boundary (DESIGN.md "Ordered map"), so
/// the Full edge is exercised by the *sequential* spec-replay cell and
/// kept unreachable in concurrent rounds. MapRegions=2 keeps both the
/// same-region doorway and the cross-region independence paths hot.
inline constexpr std::uint32_t MapCapacity = 64;
inline constexpr std::uint32_t MapStressKeys = 8;
inline constexpr std::uint32_t MapRegions = 2;

/// Stall-plan cell: the victim's trigger access and the foreign-access
/// grants it is held for. Grants comfortably exceed SmallPatience so a
/// stalled lease can expire, and stay far below any wall-clock default
/// patience so live locks are never falsely revoked.
inline constexpr std::uint64_t StallPlanAtAccess = 3;
inline constexpr std::uint64_t StallPlanGrants = 48;

} // namespace conformance
} // namespace csobj

#endif // CSOBJ_TESTS_CONFORMANCE_PARAMS_H
