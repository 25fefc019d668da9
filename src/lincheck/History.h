//===- lincheck/History.h - Concurrent operation histories ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Histories in the Herlihy & Wing sense: every completed operation is an
/// interval [invoke, response] on a global time line, tagged with the
/// operation, its argument and its result. The recorder is wait-free on
/// the recording threads (each thread appends to its own log; logs merge
/// after the run), so recording does not serialize the object under test.
///
/// The paper's safety property is linearizability of the non-bottom
/// operations; aborted (bottom) operations take no effect and therefore
/// are *excluded* from the history — the checker separately verifies,
/// via the sequential spec, that excluding them is consistent.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LINCHECK_HISTORY_H
#define CSOBJ_LINCHECK_HISTORY_H

#include "core/Results.h"

#include <cstdint>
#include <string>
#include <vector>

namespace csobj {

/// Operation code on the object under test.
enum class OpCode : std::uint8_t {
  Push,      ///< push(arg) / enqueue(arg)
  Pop,       ///< pop() / dequeue()
  PushLeft,  ///< deque: push on the left end
  PushRight, ///< deque: push on the right end
  PopLeft,   ///< deque: pop from the left end
  PopRight,  ///< deque: pop from the right end
  Get,       ///< map: get(Arg=key) -> Value(RetValue) | Empty
  Insert,    ///< map: insert(Arg=key, RetValue=value) -> Done | Full
  Erase,     ///< map: erase(Arg=key) -> Value(old value) | Empty
  FetchAdd,  ///< counter: add(Arg=delta) -> Value(the sum after the add)
};

/// True for the operations that add an element.
inline bool isPushLike(OpCode Code) {
  return Code == OpCode::Push || Code == OpCode::PushLeft ||
         Code == OpCode::PushRight;
}

/// Result classification of a completed operation.
enum class ResCode : std::uint8_t {
  Done,   ///< Push succeeded.
  Full,   ///< Push hit capacity.
  Value,  ///< Pop returned RetValue.
  Empty,  ///< Pop found the object empty.
};

/// One completed (non-bottom) operation.
struct Operation {
  std::uint32_t Tid = 0;
  OpCode Code = OpCode::Push;
  std::uint32_t Arg = 0;       ///< Pushed value; map ops: the key.
  ResCode Result = ResCode::Done;
  std::uint32_t RetValue = 0;  ///< Popped value (Result == Value only);
                               ///< Insert: the value being inserted.
  std::uint64_t InvokeNs = 0;  ///< Invocation timestamp.
  std::uint64_t ResponseNs = 0;///< Response timestamp.
};

/// A complete history: all operations from one concurrent run.
struct History {
  std::vector<Operation> Ops;

  /// Sorts by invocation time (canonical order for the checker).
  void normalize();

  /// True when every interval is well formed (invoke <= response).
  bool wellFormed() const;

  /// Human-readable dump for failure diagnostics.
  std::string describe() const;
};

/// Per-thread recorder; merge after the run.
class HistoryRecorder {
public:
  explicit HistoryRecorder(std::uint32_t Tid) : Tid(Tid) {}

  /// Returns a timestamp for "now" (monotonic, ns).
  static std::uint64_t now();

  void recordPush(std::uint32_t Arg, bool WasFull, std::uint64_t InvokeNs,
                  std::uint64_t ResponseNs);
  void recordPopValue(std::uint32_t Value, std::uint64_t InvokeNs,
                      std::uint64_t ResponseNs);
  void recordPopEmpty(std::uint64_t InvokeNs, std::uint64_t ResponseNs);

  /// Fully general record (used by the deque and custom objects).
  void recordOp(OpCode Code, std::uint32_t Arg, ResCode Result,
                std::uint32_t RetValue, std::uint64_t InvokeNs,
                std::uint64_t ResponseNs);

  const std::vector<Operation> &ops() const { return Log; }

private:
  std::uint32_t Tid;
  std::vector<Operation> Log;
};

/// Merges per-thread logs into one normalized history.
History mergeHistories(const std::vector<HistoryRecorder> &Recorders);

// Recording one stack or queue answer. The response stamp is read in the
// body: the answer is an argument and so is computed before the call. A
// trailing HistoryRecorder::now() argument at the call site could be
// evaluated before the operation (GCC does), stamping the response before
// the op ran and making the checker enforce real-time orders that never
// held.

/// Records one push answer, responded now, unless it aborted.
inline void recordPush(HistoryRecorder &Rec, PushResult Res, std::uint32_t V,
                       std::uint64_t T0) {
  const std::uint64_t T1 = HistoryRecorder::now();
  if (Res != PushResult::Abort)
    Rec.recordPush(V, Res == PushResult::Full, T0, T1);
}

/// Records one pop answer, responded now, unless it aborted.
inline void recordPop(HistoryRecorder &Rec,
                      const PopResult<std::uint32_t> &Res, std::uint64_t T0) {
  const std::uint64_t T1 = HistoryRecorder::now();
  if (Res.isValue())
    Rec.recordPopValue(Res.value(), T0, T1);
  else if (Res.isEmpty())
    Rec.recordPopEmpty(T0, T1);
}

} // namespace csobj

#endif // CSOBJ_LINCHECK_HISTORY_H
