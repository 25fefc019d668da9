//===- memory/AccessCounter.cpp -------------------------------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
//
// Everything lives in the header: the per-thread sink is an inline
// thread_local there. This file compiles the header on its own.
//
//===----------------------------------------------------------------------===//

#include "memory/AccessCounter.h"
