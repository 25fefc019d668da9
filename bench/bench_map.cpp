//===- bench/bench_map.cpp - Experiment E16 (ordered-map throughput) -----===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E16 — throughput of the contention-sensitive ordered map against the
/// coarse-locked sorted-array baseline. The cs-map's reads never touch a
/// lock or the CONTENTION word and its writes pay the Fig-3 seam only
/// after an actual CAS conflict in the same key region; the baseline
/// serializes every operation, reads included, through one lock.
///
/// Sweep: object x threads x key range x read/write mix, under the
/// default chaos level (or CSOBJ_CHAOS). Each worker draws uniform keys
/// from [0, key_range) and rolls read_percent% gets; the remaining ops
/// split evenly between insert (fresh or update) and erase. Capacity
/// equals the key range, so the distinct-keys-ever envelope can never
/// answer Full and throughput measures contention, not capacity
/// pressure. Half the range is prefilled so gets hit live keys, misses
/// and tombstones from the first operation on.
///
/// Results go to stdout and BENCH_map.json (schema in EXPERIMENTS.md);
/// cs-map records carry the real path breakdown and per-cell
/// conservation verdict, locked-map records carry the same columns
/// zeroed (the baseline has no seam to attribute).
///
/// Acceptance (full mode, in-binary, host-conditional like E12): with
/// >=4 hardware threads, at the top sweep point the cs-map must beat
/// the locked baseline on the read-heavy wide-range cell — the regime
/// the contention-sensitive construction is built for. Quick mode
/// (CSOBJ_BENCH_QUICK=1) only smoke-checks structure and conservation.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "baselines/LockedMap.h"
#include "core/ContentionSensitiveMap.h"
#include "obs/JsonReporter.h"
#include "obs/MetricsJson.h"
#include "runtime/TablePrinter.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace csobj;
using namespace csobj::bench;

struct CellResult {
  std::uint64_t Ops = 0;
  double DurationSec = 0.0;
  obs::PathSnapshot Snapshot;
  std::uint64_t ObjectBytes = 0;
  double opsPerSec() const {
    return DurationSec > 0.0 ? static_cast<double>(Ops) / DurationSec : 0.0;
  }
};

/// One sweep cell: fresh map over [0, KeyRange) with the lower half
/// prefilled, Threads workers each issuing opsPerThread() operations.
template <typename MapT>
CellResult runMapCell(std::uint32_t Threads, std::uint32_t KeyRange,
                      std::uint32_t ReadPercent) {
  MapT Map(Threads, /*Capacity=*/KeyRange);
  for (std::uint32_t K = 0; K < KeyRange / 2; ++K)
    (void)Map.insert(0, K, K + 1);

  const std::uint64_t Ops = opsPerThread();
  CellResult R;
  R.Ops = static_cast<std::uint64_t>(Threads) * Ops;
  R.DurationSec = runWorkers(Threads, 0x9AB16ull, [&](std::uint32_t T) {
    SplitMix64 Rng(0xE16E16ull + 0x9E37ull * (T + 1));
    for (std::uint64_t I = 0; I < Ops; ++I) {
      const std::uint32_t K = static_cast<std::uint32_t>(Rng.below(KeyRange));
      const std::uint64_t Roll = Rng.below(100);
      if (Roll < ReadPercent)
        (void)Map.get(T, K);
      else if (Rng.below(2) == 0)
        (void)Map.insert(T, K, static_cast<std::uint32_t>(I + 1));
      else
        (void)Map.erase(T, K);
    }
  });
  // The locked baseline has no seam to attribute: its path columns are
  // emitted zeroed.
  if constexpr (requires { Map.pathSnapshot(); })
    R.Snapshot = Map.pathSnapshot();
  R.ObjectBytes = Map.footprintBytes();
  return R;
}

struct SweepOutput {
  TablePrinter &Table;
  JsonReporter &Json;
  /// ops/sec keyed by (object, threads, key_range, read_percent).
  std::map<std::string,
           std::map<std::uint32_t,
                    std::map<std::uint32_t, std::map<std::uint32_t, double>>>>
      Rate;
  bool AllConserved = true;
};

template <typename MapT>
void runRows(SweepOutput &Out, const char *Object,
             const std::vector<std::uint32_t> &KeyRanges,
             const std::vector<std::uint32_t> &ReadMixes) {
  for (const std::uint32_t Threads : threadSweep()) {
    for (const std::uint32_t KeyRange : KeyRanges) {
      for (const std::uint32_t ReadPercent : ReadMixes) {
        const CellResult R =
            runMapCell<MapT>(Threads, KeyRange, ReadPercent);
        const double Rate = R.opsPerSec();
        const bool Conserved = R.Snapshot.conserves();
        Out.AllConserved = Out.AllConserved && Conserved;
        Out.Rate[Object][Threads][KeyRange][ReadPercent] = Rate;
        Out.Table.addRow({Object, std::to_string(Threads),
                          std::to_string(KeyRange),
                          std::to_string(ReadPercent), formatRate(Rate),
                          Conserved ? "yes" : "NO"});
        Out.Json.beginRecord();
        Out.Json.field("object", Object);
        Out.Json.field("threads", Threads);
        Out.Json.field("key_range", KeyRange);
        Out.Json.field("read_percent", ReadPercent);
        Out.Json.field("ops", R.Ops);
        Out.Json.field("duration_sec", R.DurationSec);
        Out.Json.field("ops_per_sec", Rate);
        Out.Json.field("conserves", Conserved);
        obs::emitPathBreakdown(Out.Json, R.Snapshot);
        obs::emitMemoryFootprint(Out.Json, R.ObjectBytes, KeyRange);
        Out.Json.endRecord();
      }
    }
  }
}

} // namespace

int main() {
  printRegisterPolicy(std::cout);

  const std::vector<std::uint32_t> KeyRanges{16, 1024};
  const std::vector<std::uint32_t> ReadMixes =
      quickMode() ? std::vector<std::uint32_t>{90}
                  : std::vector<std::uint32_t>{50, 90};

  TablePrinter Table(
      {"object", "threads", "key-range", "read%", "ops/s", "conserves"});
  Table.setTitle("E16: contention-sensitive map vs coarse-locked baseline");
  JsonReporter Json;
  SweepOutput Out{Table, Json, {}, true};

  runRows<ContentionSensitiveMap<>>(Out, "cs-map", KeyRanges, ReadMixes);
  runRows<LockedMap<>>(Out, "locked-map", KeyRanges, ReadMixes);

  Table.print(std::cout);

  // Host-conditional acceptance (the E12 convention): the comparison
  // only says something with real parallelism. The verdict's *absence*
  // is recorded in the JSON so the trajectory gate can tell "this host
  // could not run the check" apart from "the check vanished".
  const std::uint32_t HwThreads = std::thread::hardware_concurrency();
  const std::uint32_t Top = threadSweep().back();
  const bool AcceptanceSkipped = quickMode() || HwThreads < 4 || Top < 4;
  Json.beginRecord();
  Json.field("record", "acceptance");
  Json.field("acceptance_skipped", AcceptanceSkipped);
  Json.endRecord();

  const std::string JsonPath = "BENCH_map.json";
  if (!Json.writeFile(JsonPath)) {
    std::cerr << "error: could not write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";

  if (!Out.AllConserved) {
    std::cerr << "FAIL: a cs-map cell's path counters do not conserve\n";
    return 1;
  }

  if (quickMode()) {
    std::cout << "SKIP: acceptance comparison is full-mode only "
                 "(CSOBJ_BENCH_QUICK=1)\n";
    return 0;
  }

  if (AcceptanceSkipped) {
    std::cout << "SKIP: acceptance check needs >=4 hardware threads and "
                 "a >=4-thread sweep point (host has "
              << HwThreads << ", sweep tops out at " << Top << ")\n";
    return 0;
  }
  const std::uint32_t WideRange = KeyRanges.back();
  const std::uint32_t ReadHeavy = ReadMixes.back();
  const double Cs = Out.Rate["cs-map"][Top][WideRange][ReadHeavy];
  const double Locked = Out.Rate["locked-map"][Top][WideRange][ReadHeavy];
  std::cout << "at " << Top << " threads, key range " << WideRange << ", "
            << ReadHeavy << "% reads: cs-map " << formatRate(Cs)
            << "  locked-map " << formatRate(Locked) << "\n";
  if (Cs > Locked) {
    std::cout << "PASS: cs-map beats the coarse-locked baseline at "
              << Top << " threads\n";
    return 0;
  }
  std::cerr << "FAIL: cs-map does not beat the coarse-locked baseline\n";
  return 1;
}
