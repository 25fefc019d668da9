//===- perfbench/src/Workloads.h - The four workloads -----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One entry point per workload. Each runs one benchmark run as \p A
/// describes and fills \p R with its checks, op counts and metrics.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERFBENCH_WORKLOADS_H
#define CSOBJ_PERFBENCH_WORKLOADS_H

#include "Bench.h"

namespace perfbench {

void runStackSolo(const Args &A, Report &R);
void runBagContended(const Args &A, Report &R);
void runMapMixed(const Args &A, Report &R);
void runService(const Args &A, Report &R);

} // namespace perfbench

#endif // CSOBJ_PERFBENCH_WORKLOADS_H
