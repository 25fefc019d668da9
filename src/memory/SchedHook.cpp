//===- memory/SchedHook.cpp -----------------------------------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "memory/SchedHook.h"

namespace csobj {

SchedHook::~SchedHook() = default;

} // namespace csobj
