//===- lincheck/History.cpp -----------------------------------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "lincheck/History.h"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace csobj {

void History::normalize() {
  std::stable_sort(Ops.begin(), Ops.end(),
                   [](const Operation &A, const Operation &B) {
                     return A.InvokeNs < B.InvokeNs;
                   });
}

bool History::wellFormed() const {
  for (const Operation &Op : Ops)
    if (Op.InvokeNs > Op.ResponseNs)
      return false;
  return true;
}

static const char *opName(OpCode Code) {
  switch (Code) {
  case OpCode::Push:
    return "push";
  case OpCode::Pop:
    return "pop";
  case OpCode::PushLeft:
    return "push_left";
  case OpCode::PushRight:
    return "push_right";
  case OpCode::PopLeft:
    return "pop_left";
  case OpCode::PopRight:
    return "pop_right";
  case OpCode::Get:
    return "get";
  case OpCode::Insert:
    return "insert";
  case OpCode::Erase:
    return "erase";
  case OpCode::FetchAdd:
    return "fetch_add";
  }
  return "?";
}

/// True for the keyed map operations (Arg is a key, not a value).
static bool isMapOp(OpCode Code) {
  return Code == OpCode::Get || Code == OpCode::Insert ||
         Code == OpCode::Erase;
}

std::string History::describe() const {
  std::ostringstream OS;
  for (const Operation &Op : Ops) {
    OS << "t" << Op.Tid << " [" << Op.InvokeNs << ", " << Op.ResponseNs
       << "] " << opName(Op.Code);
    if (isMapOp(Op.Code)) {
      OS << "(k=" << Op.Arg;
      if (Op.Code == OpCode::Insert)
        OS << ", v=" << Op.RetValue;
      OS << ") -> ";
      switch (Op.Result) {
      case ResCode::Done:
        OS << "done";
        break;
      case ResCode::Full:
        OS << "full";
        break;
      case ResCode::Value:
        OS << Op.RetValue;
        break;
      case ResCode::Empty:
        OS << "empty";
        break;
      }
    } else if (isPushLike(Op.Code))
      OS << "(" << Op.Arg << ") -> "
         << (Op.Result == ResCode::Done ? "done" : "full");
    else if (Op.Code == OpCode::FetchAdd)
      OS << "(" << Op.Arg << ") -> " << Op.RetValue;
    else if (Op.Result == ResCode::Value)
      OS << "() -> " << Op.RetValue;
    else
      OS << "() -> empty";
    OS << "\n";
  }
  return OS.str();
}

std::uint64_t HistoryRecorder::now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void HistoryRecorder::recordPush(std::uint32_t Arg, bool WasFull,
                                 std::uint64_t InvokeNs,
                                 std::uint64_t ResponseNs) {
  Operation Op;
  Op.Tid = Tid;
  Op.Code = OpCode::Push;
  Op.Arg = Arg;
  Op.Result = WasFull ? ResCode::Full : ResCode::Done;
  Op.InvokeNs = InvokeNs;
  Op.ResponseNs = ResponseNs;
  Log.push_back(Op);
}

void HistoryRecorder::recordPopValue(std::uint32_t Value,
                                     std::uint64_t InvokeNs,
                                     std::uint64_t ResponseNs) {
  Operation Op;
  Op.Tid = Tid;
  Op.Code = OpCode::Pop;
  Op.Result = ResCode::Value;
  Op.RetValue = Value;
  Op.InvokeNs = InvokeNs;
  Op.ResponseNs = ResponseNs;
  Log.push_back(Op);
}

void HistoryRecorder::recordPopEmpty(std::uint64_t InvokeNs,
                                     std::uint64_t ResponseNs) {
  Operation Op;
  Op.Tid = Tid;
  Op.Code = OpCode::Pop;
  Op.Result = ResCode::Empty;
  Op.InvokeNs = InvokeNs;
  Op.ResponseNs = ResponseNs;
  Log.push_back(Op);
}

void HistoryRecorder::recordOp(OpCode Code, std::uint32_t Arg,
                               ResCode Result, std::uint32_t RetValue,
                               std::uint64_t InvokeNs,
                               std::uint64_t ResponseNs) {
  Operation Op;
  Op.Tid = Tid;
  Op.Code = Code;
  Op.Arg = Arg;
  Op.Result = Result;
  Op.RetValue = RetValue;
  Op.InvokeNs = InvokeNs;
  Op.ResponseNs = ResponseNs;
  Log.push_back(Op);
}

History mergeHistories(const std::vector<HistoryRecorder> &Recorders) {
  History Merged;
  for (const HistoryRecorder &R : Recorders)
    Merged.Ops.insert(Merged.Ops.end(), R.ops().begin(), R.ops().end());
  Merged.normalize();
  return Merged;
}

} // namespace csobj
