//===- tests/CrashAt.h - Crash one solo body at a chosen access -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash sweeps' one primitive: run a body alone under the
/// interleaving scheduler and kill it at a chosen shared access. The
/// crash suite and the conformance battery both include it.
///
//===----------------------------------------------------------------------===//

#pragma once

#include "sched/InterleaveScheduler.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace csobj {

/// Runs \p Body under the scheduler, crashing it at its (K+1)-th shared
/// access (K = number of accesses that complete first). Returns the
/// number of decision points taken, so callers can discover the access
/// count by passing a huge K.
inline std::size_t runAndCrashAt(std::function<void()> Body,
                                 std::uint32_t K) {
  InterleaveScheduler Scheduler(1);
  const auto Trace = Scheduler.run(
      {std::move(Body)},
      [K](std::size_t Step, const std::vector<std::uint32_t> &Parked)
          -> std::uint32_t {
        if (Step == K)
          return Parked.front() | InterleaveScheduler::KillFlag;
        return Parked.front();
      });
  return Trace.Decisions.size();
}

} // namespace csobj
