//===- tests/HistoryRecording.h - Stack/queue outcome recording -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records one stack or queue outcome into a lincheck history. The
/// response stamp is read here, in the body: the outcome is an argument
/// and so is computed before the call. A trailing HistoryRecorder::now()
/// argument at the call site could be evaluated before the operation
/// (GCC does), stamping the response before the op ran and making the
/// checker enforce real-time orders that never held.
///
//===----------------------------------------------------------------------===//

#pragma once

#include "core/Results.h"
#include "lincheck/History.h"

#include <cstdint>

namespace csobj {

/// Records one push outcome, responded now, unless it aborted.
inline void recordPush(HistoryRecorder &Rec, PushResult Res, std::uint32_t V,
                       std::uint64_t T0) {
  const std::uint64_t T1 = HistoryRecorder::now();
  if (Res != PushResult::Abort)
    Rec.recordPush(V, Res == PushResult::Full, T0, T1);
}

/// Records one pop outcome, responded now, unless it aborted.
inline void recordPop(HistoryRecorder &Rec,
                      const PopResult<std::uint32_t> &Res, std::uint64_t T0) {
  const std::uint64_t T1 = HistoryRecorder::now();
  if (Res.isValue())
    Rec.recordPopValue(Res.value(), T0, T1);
  else if (Res.isEmpty())
    Rec.recordPopEmpty(T0, T1);
}

} // namespace csobj
