//===- bench/bench_batch.cpp - Experiment E14 (batched group ops) --------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E14 — throughput of the batched group operations (push_all/pop_all)
/// against the per-element strong operations they amortize. A batch of k
/// ops crosses the strong seam once: one CONTENTION doorway, one lock (or
/// one combiner record carrying all k requests), k weak applies, one
/// release. The per-element loop pays the full seam crossing k times.
///
/// Sweep: object x threads x batch size x producer/consumer mix, under
/// the default chaos level (or CSOBJ_CHAOS). Objects:
///
///  * fig3 per-element            push/pop loop, the amortization baseline
///  * fig3 batch                  push_all/pop_all through the lock seam
///  * combining batch             push_all/pop_all via one combiner record
///  * sharded batch               per-shard batch fan-out (bag facade)
///
/// Mixes: "paired" (even tids produce, odd tids consume) and
/// "alternating" (every thread pushes a batch then pops a batch).
/// Throughput counts *elements* applied, not group calls. Results go to
/// stdout and BENCH_batch.json (schema in EXPERIMENTS.md); every record
/// carries the path breakdown (path_batched, combiner_batch_size_*), the
/// memory footprint (object_bytes, bytes_per_element) and the per-record
/// conservation verdict.
///
/// Acceptance (full mode, in-binary): at the sweep's top thread count the
/// combining stack's batched throughput at batch >= 8 must beat the plain
/// Figure 3 per-element loop, and its observed mean combiner group size
/// must exceed 1. Quick mode (CSOBJ_BENCH_QUICK=1) only smoke-checks
/// structure and conservation.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "obs/JsonReporter.h"
#include "obs/MetricsJson.h"
#include "perf/CombiningObjects.h"
#include "runtime/TablePrinter.h"

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace {

using namespace csobj;
using namespace csobj::bench;

constexpr std::uint32_t Capacity = conformance::BenchCapacity;

/// The per-element row's group: pushOn/popOn once per element. Returns
/// how many elements went in, and how many values came out before the
/// first Empty.
template <typename ObjT>
std::size_t pushEach(ObjT &Obj, std::uint32_t Tid, const std::uint32_t *Vs,
                     std::size_t N) {
  std::size_t Done = 0;
  for (std::size_t I = 0; I < N; ++I)
    if (pushOn(Obj, Tid, Vs[I]) == PushResult::Done)
      ++Done;
  return Done;
}

template <typename ObjT>
std::size_t popEach(ObjT &Obj, std::uint32_t Tid, std::uint32_t *Out,
                    std::size_t N) {
  std::size_t Got = 0;
  for (; Got < N; ++Got) {
    const PopResult<std::uint32_t> R = popOn(Obj, Tid);
    if (!R.isValue())
      break;
    Out[Got] = R.value();
  }
  return Got;
}

struct CellResult {
  std::uint64_t Elements = 0; ///< Elements applied (pushes + pops).
  double DurationSec = 0.0;
  obs::PathSnapshot Snapshot;
  std::uint64_t ObjectBytes = 0;
  double elementsPerSec() const {
    return DurationSec > 0.0 ? static_cast<double>(Elements) / DurationSec
                             : 0.0;
  }
};

/// One sweep cell: fresh object, Threads workers, each performing
/// opsPerThread() element-slots grouped into BatchSize-sized calls: one
/// push_all/pop_all call per group when \p Grouped, one pushOn/popOn per
/// element otherwise.
template <typename MakeFn>
CellResult runBatchCell(MakeFn Make, bool Grouped, std::uint32_t Threads,
                        std::uint32_t BatchSize, bool Paired) {
  auto Adapter = Make(Threads, Capacity);
  auto &Obj = Adapter.object();
  for (std::uint32_t V = 0; V < Capacity / 2; ++V)
    Adapter.prefillOne(V + 1);

  const std::uint64_t Rounds = opsPerThread() / BatchSize;
  std::vector<std::uint64_t> Done(Threads, 0);
  CellResult R;
  R.DurationSec = runWorkers(Threads, 0xBA7C4ull, [&](std::uint32_t T) {
    std::vector<std::uint32_t> Buf(BatchSize);
    // Paired: even tids produce, odd tids consume (solo runs alternate
    // regardless, or nothing would ever drain).
    const bool Produces = Paired && Threads > 1 ? T % 2 == 0 : true;
    const bool Consumes = Paired && Threads > 1 ? T % 2 == 1 : true;
    for (std::uint64_t Round = 0; Round < Rounds; ++Round) {
      if (Produces) {
        for (std::uint32_t I = 0; I < BatchSize; ++I)
          Buf[I] = static_cast<std::uint32_t>(Round * BatchSize + I + 1);
        Done[T] += Grouped ? Obj.push_all(T, Buf.data(), BatchSize)
                           : pushEach(Obj, T, Buf.data(), BatchSize);
      }
      if (Consumes)
        Done[T] += Grouped ? Obj.pop_all(T, Buf.data(), BatchSize)
                           : popEach(Obj, T, Buf.data(), BatchSize);
    }
  });
  for (const std::uint64_t D : Done)
    R.Elements += D;
  R.Snapshot = Adapter.pathSnapshot();
  R.ObjectBytes = Adapter.footprintBytes();
  return R;
}

struct SweepOutput {
  TablePrinter &Table;
  JsonReporter &Json;
  /// Best elements/sec per (object, threads, batched-mode) across mixes.
  std::map<std::string, std::map<std::uint32_t, double>> BestPerElement;
  std::map<std::string, std::map<std::uint32_t, double>> BestBatched;
  double CombiningBatchMean = 0.0;
  bool AllConserved = true;
};

template <typename MakeFn>
void runRows(SweepOutput &Out, const char *Object, MakeFn Make, bool Grouped,
             const std::vector<std::uint32_t> &BatchSizes) {
  for (const std::uint32_t Threads : threadSweep()) {
    for (const std::uint32_t BatchSize : BatchSizes) {
      for (const bool Paired : {false, true}) {
        if (Paired && Threads < 2)
          continue; // Paired roles need a producer and a consumer.
        const CellResult R =
            runBatchCell(Make, Grouped, Threads, BatchSize, Paired);
        const char *Mix = Paired ? "paired" : "alternating";
        const double Rate = R.elementsPerSec();
        const bool Conserved = R.Snapshot.conserves();
        Out.AllConserved = Out.AllConserved && Conserved;
        if (BatchSize >= 8) {
          Out.BestBatched[Object][Threads] =
              std::max(Out.BestBatched[Object][Threads], Rate);
          if (std::string(Object) == "combining batch")
            Out.CombiningBatchMean =
                std::max(Out.CombiningBatchMean, R.Snapshot.batchMean());
        }
        Out.BestPerElement[Object][Threads] =
            std::max(Out.BestPerElement[Object][Threads], Rate);
        Out.Table.addRow({Object, std::to_string(Threads),
                          std::to_string(BatchSize), Mix,
                          formatRate(Rate),
                          formatDouble(R.Snapshot.batchMean(), 2),
                          Conserved ? "yes" : "NO"});
        Out.Json.beginRecord();
        Out.Json.field("object", Object);
        Out.Json.field("threads", Threads);
        Out.Json.field("batch_size", BatchSize);
        Out.Json.field("mix", Mix);
        Out.Json.field("ops", R.Elements);
        Out.Json.field("duration_sec", R.DurationSec);
        Out.Json.field("elements_per_sec", Rate);
        Out.Json.field("conserves", Conserved);
        obs::emitPathBreakdown(Out.Json, R.Snapshot);
        obs::emitMemoryFootprint(Out.Json, R.ObjectBytes, Capacity);
        Out.Json.endRecord();
      }
    }
  }
}

} // namespace

int main() {
  printRegisterPolicy(std::cout);

  const std::vector<std::uint32_t> BatchSizes =
      quickMode() ? std::vector<std::uint32_t>{8}
                  : std::vector<std::uint32_t>{1, 8, 32};

  TablePrinter Table({"object", "threads", "batch", "mix", "elems/s",
                      "batch-mean", "conserves"});
  Table.setTitle("E14: batched group ops vs per-element seam crossings");
  JsonReporter Json;
  SweepOutput Out{Table, Json, {}, {}, 0.0, true};

  using Fig3 = Driven<ContentionSensitiveStack<>>;
  runRows(Out, "fig3 per-element", make<Fig3>, /*Grouped=*/false,
          BatchSizes);
  runRows(Out, "fig3 batch", make<Fig3>, /*Grouped=*/true, BatchSizes);
  runRows(Out, "combining batch", make<Driven<CombiningStack<>>>,
          /*Grouped=*/true, BatchSizes);
  runRows(Out, "sharded batch", staticShards<4>, /*Grouped=*/true,
          BatchSizes);

  Table.print(std::cout);

  const std::string JsonPath = "BENCH_batch.json";
  if (!Json.writeFile(JsonPath)) {
    std::cerr << "error: could not write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";

  if (!Out.AllConserved) {
    std::cerr << "FAIL: a cell's path counters do not conserve\n";
    return 1;
  }

  if (quickMode()) {
    std::cout << "SKIP: acceptance comparison is full-mode only "
                 "(CSOBJ_BENCH_QUICK=1)\n";
    return 0;
  }

  // Acceptance: at the top sweep point, one batched combining call
  // stream (batch >= 8) must beat the per-element Figure 3 loop, and
  // the combiner must actually have seen multi-op groups.
  const std::uint32_t Top = threadSweep().back();
  const double PerElement = Out.BestPerElement["fig3 per-element"][Top];
  const double Combining = Out.BestBatched["combining batch"][Top];
  const double Fig3Batch = Out.BestBatched["fig3 batch"][Top];
  const double Sharded = Out.BestBatched["sharded batch"][Top];
  std::cout << "at " << Top << " threads (best mix, batch >= 8): "
            << "fig3 per-element " << formatRate(PerElement)
            << "  fig3 batch " << formatRate(Fig3Batch)
            << "  combining batch " << formatRate(Combining)
            << "  sharded batch " << formatRate(Sharded)
            << "  (combiner mean group " << formatDouble(Out.CombiningBatchMean, 2)
            << ")\n";
  if (Combining > PerElement && Out.CombiningBatchMean > 1.0) {
    std::cout << "PASS: batched combining beats the per-element fig3 loop at "
              << Top << " threads\n";
    return 0;
  }
  std::cerr << "FAIL: batched combining does not beat the per-element loop "
               "(or the combiner never grouped)\n";
  return 1;
}
