//===- perfbench/src/main.cpp - Benchmark entry point -----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// csobj_perfbench --workload W --seed N --seconds S --trace 0|1
///                 [--smoke] [--trace-out FILE]
///
/// Runs one workload and prints its checks and, as the last line, the
/// result object. Exits 1 when a check failed, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>

namespace {

using RunFn = void (*)(const perfbench::Args &, perfbench::Report &);

const std::map<std::string, RunFn> &workloads() {
  static const std::map<std::string, RunFn> Table = {
      {"stack-solo", perfbench::runStackSolo},
      {"bag-contended", perfbench::runBagContended},
      {"map-mixed", perfbench::runMapMixed},
      {"service", perfbench::runService},
  };
  return Table;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "csobj_perfbench: %s\nusage: csobj_perfbench --workload "
               "{stack-solo,bag-contended,map-mixed,service} --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out FILE]\n",
               Why);
  return 2;
}

/// Parses a decimal number; false on an empty string or trailing junk.
bool parseNumber(const char *Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  perfbench::Args A;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value after " + Flag).c_str());
    const char *Value = Argv[++I];
    double Number = 0;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--trace-out") {
      A.TraceOut = Value;
    } else if (!parseNumber(Value, Number)) {
      return usage(("not a number: " + Flag + " " + Value).c_str());
    } else if (Flag == "--seed") {
      if (Number < 0 || Number > 1e15 || Number != std::floor(Number))
        return usage("--seed must be a whole number in [0, 1e15]");
      A.Seed = static_cast<std::uint64_t>(Number);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!(Number > 0 && Number <= 120))
        return usage("--seconds must lie in (0, 120]");
      A.Seconds = Number;
    } else if (Flag == "--trace") {
      if (Number != 0 && Number != 1)
        return usage("--trace must be 0 or 1");
      A.Trace = Number == 1;
      HaveTrace = true;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  const auto It = workloads().find(A.Workload);
  if (It == workloads().end())
    return usage(("unknown workload '" + A.Workload + "'").c_str());
  if (!HaveSeed || !HaveTrace)
    return usage("--seed and --trace are required");

  perfbench::Report R;
  perfbench::describeBuild(R, A);
  try {
    It->second(A, R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "csobj_perfbench: %s\n", E.what());
    return 1;
  }
  R.print();
  return R.correct() ? 0 : 1;
}
