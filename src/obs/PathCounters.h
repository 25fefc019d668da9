//===- obs/PathCounters.h - Path-attributed operation metrics ---*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-object, per-thread path attribution for the contention-sensitive
/// constructions. The paper's quantitative claim is *path-conditional* —
/// six shared accesses when CONTENTION is down, lock-path cost only under
/// contention — so aggregate throughput alone cannot validate it. Every
/// strong-operation skeleton owns a MetricSink and, per completed
/// operation, increments exactly ONE terminal path counter:
///
///   Shortcut    lines 01-03 succeeded (the six-access fast path)
///   Eliminated  the rescue window paired with an inverse operation
///   Combined    a flat-combining batch executed the published request
///   Lock        the doorway + lock protected retry (Fig. 3 lines 04-13)
///   Degraded    the crash-tolerant Fig. 2 fallback loop
///   Batched     a group API (push_all/pop_all/drain) applied the op as
///               part of one k-op seam acquisition
///
/// plus event tallies (shortcut aborts, retries, combiner batches,
/// elimination pairings, patience timeouts) that attribute *why* an
/// operation left its path. Ops is counted once at strongApply entry
/// (once per element of a batch), so `Ops == Σ path counters` is a
/// mechanically checkable conservation law, not trusted telemetry — the
/// conformance battery asserts it after every stress round. Batched ops
/// additionally feed a group-size histogram (onBatch), whose element sum
/// must equal the Batched path counter at quiesce.
///
/// Counter placement vs. the six-access proof: the blocks are plain
/// `std::atomic` relaxed counters in per-thread cache-line-padded slots —
/// the same convention as DegradationCounters (core/CrashTolerant.h):
/// harness accounting, not algorithm state. They never pass through
/// AtomicRegister, so they are invisible to the access counter and the
/// schedule explorer, and the solo fast path still *measures* exactly six
/// shared accesses with metrics enabled (bench_access_counts, battery
/// access bounds). Building with -DCSOBJ_NO_METRICS=ON removes even the
/// relaxed increments: MetricSink becomes an empty type (static_assert
/// below) held through [[no_unique_address]], so the skeletons carry zero
/// metric bytes and zero metric instructions.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_OBS_PATHCOUNTERS_H
#define CSOBJ_OBS_PATHCOUNTERS_H

#include "support/CacheLine.h"

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace csobj {
namespace obs {

/// Terminal paths: every completed strong operation took exactly one.
enum class Path : std::uint8_t {
  Shortcut = 0,
  Eliminated,
  Combined,
  Lock,
  Degraded,
  Batched, ///< Applied inside a k-op group's single seam acquisition.
  None,    ///< Sentinel: no operation recorded yet / metrics compiled out.
};

inline constexpr unsigned NumPaths = 6;

/// Short lower-case label for tables and JSON field suffixes.
inline const char *pathName(Path P) {
  switch (P) {
  case Path::Shortcut:
    return "shortcut";
  case Path::Eliminated:
    return "eliminated";
  case Path::Combined:
    return "combined";
  case Path::Lock:
    return "lock";
  case Path::Degraded:
    return "degraded";
  case Path::Batched:
    return "batched";
  case Path::None:
    break;
  }
  return "none";
}

/// Why an operation left its path / what the slow paths did on the way.
/// Tallies, not terminal paths: one operation may add several.
enum class Event : std::uint8_t {
  ShortcutAbort = 0, ///< Line-02 weak attempt drew bottom.
  ProtectedRetry,    ///< Line-08 retry inside the lock.
  DegradedRetry,     ///< Fig-2 fallback retry.
  EliminatedPush,    ///< Rescue handed a value to a pop.
  EliminatedPop,     ///< Rescue received a value from a push.
  CombinerBatch,     ///< One combiner tenure completed.
  CombinedOp,        ///< One request served by a combiner (self included).
  DoorwayTimeout,    ///< enterBounded exhausted its patience.
  LeaseTimeout,      ///< lockBounded exhausted its patience.
  ShardGrow,         ///< Adaptive facade activated one more shard.
  ShardShrink,       ///< Adaptive facade retired its top active shard.
  GateWiden,         ///< Controller doubled the elimination spin budget.
  GateNarrow,        ///< Controller halved the elimination spin budget.
};

inline constexpr unsigned NumEvents = 13;

/// Log2 size classes of the batch-group histogram: bucket I counts
/// groups of k in [2^I, 2^(I+1)); the last bucket absorbs everything
/// larger.
inline constexpr unsigned NumBatchBuckets = 8;

/// Bucket index of a group of \p K ops (K >= 1).
inline constexpr unsigned batchBucket(std::uint64_t K) {
  const unsigned B = K ? static_cast<unsigned>(std::bit_width(K)) - 1 : 0;
  return B < NumBatchBuckets ? B : NumBatchBuckets - 1;
}

/// Aggregated value snapshot of one sink (or a sum of sinks). Exact once
/// the object is quiescent; approximate mid-run.
struct PathSnapshot {
  std::uint64_t Ops = 0; ///< strongApply entries.
  /// Ops as read before the path counters (MetricSink::snapshot() reads
  /// Ops after them); equal to Ops at quiesce.
  std::uint64_t OpsBefore = 0;
  std::uint64_t Paths[NumPaths] = {};
  std::uint64_t Events[NumEvents] = {};
  /// Batch-group size histogram (onBatch calls, log2 buckets), the sum
  /// of all group sizes and the largest group seen.
  std::uint64_t BatchBuckets[NumBatchBuckets] = {};
  std::uint64_t BatchOps = 0;
  std::uint64_t BatchMax = 0;

  std::uint64_t path(Path P) const {
    return Paths[static_cast<unsigned>(P)];
  }
  std::uint64_t event(Event E) const {
    return Events[static_cast<unsigned>(E)];
  }

  /// Sum of the terminal path counters.
  std::uint64_t pathTotal() const {
    std::uint64_t Total = 0;
    for (unsigned I = 0; I < NumPaths; ++I)
      Total += Paths[I];
    return Total;
  }

  /// Number of batch groups recorded (sum of the histogram buckets).
  std::uint64_t batchCount() const {
    std::uint64_t Total = 0;
    for (unsigned I = 0; I < NumBatchBuckets; ++I)
      Total += BatchBuckets[I];
    return Total;
  }

  /// Mean group size over all recorded batches (0 when none).
  double batchMean() const {
    const std::uint64_t Count = batchCount();
    return Count ? static_cast<double>(BatchOps) / static_cast<double>(Count)
                 : 0.0;
  }

  /// The conservation laws the battery asserts at quiesce:
  ///  * every entered operation retired through exactly one path,
  ///  * elimination pairings balance (each give met exactly one take),
  ///  * every degradation has exactly one patience-timeout cause,
  ///  * every batched op belongs to exactly one recorded group.
  /// Holds for any crash-free execution; a crash-stopped thread may
  /// leave one entered-but-unretired operation per crash.
  bool conserves() const {
    return Ops == pathTotal() &&
           event(Event::EliminatedPush) == event(Event::EliminatedPop) &&
           path(Path::Eliminated) ==
               event(Event::EliminatedPush) + event(Event::EliminatedPop) &&
           path(Path::Degraded) ==
               event(Event::DoorwayTimeout) + event(Event::LeaseTimeout) &&
           path(Path::Batched) == BatchOps;
  }

  PathSnapshot &operator+=(const PathSnapshot &Other) {
    Ops += Other.Ops;
    OpsBefore += Other.OpsBefore;
    for (unsigned I = 0; I < NumPaths; ++I)
      Paths[I] += Other.Paths[I];
    for (unsigned I = 0; I < NumEvents; ++I)
      Events[I] += Other.Events[I];
    for (unsigned I = 0; I < NumBatchBuckets; ++I)
      BatchBuckets[I] += Other.BatchBuckets[I];
    BatchOps += Other.BatchOps;
    if (Other.BatchMax > BatchMax)
      BatchMax = Other.BatchMax;
    return *this;
  }
};

#ifdef CSOBJ_NO_METRICS

/// Metrics compiled out: every member is a no-op and the type is empty,
/// so a [[no_unique_address]] sink member occupies zero bytes. The
/// static_assert below is the compile-time half of the "metrics cannot
/// perturb the six-access bound" proof; the runtime half is the battery's
/// access-bound cell, which holds in both build modes.
class MetricSink {
public:
  explicit MetricSink(std::uint32_t /*NumThreads*/) {}

  void onOp(std::uint32_t /*Tid*/, std::uint64_t /*N*/ = 1) {}
  void onPath(std::uint32_t /*Tid*/, Path /*P*/, std::uint64_t /*N*/ = 1) {}
  void onEvent(std::uint32_t /*Tid*/, Event /*E*/, std::uint64_t /*N*/ = 1) {}
  void onBatch(std::uint32_t /*Tid*/, std::uint64_t /*K*/) {}
  Path lastPath(std::uint32_t /*Tid*/) const { return Path::None; }
  PathSnapshot snapshot() const { return {}; }
  void reset() {}
  std::size_t heapBytes() const { return 0; }
};

static_assert(std::is_empty_v<MetricSink>,
              "CSOBJ_NO_METRICS must compile the sink down to nothing");

inline constexpr bool MetricsEnabled = false;

#else // !CSOBJ_NO_METRICS

/// Lock-free per-thread counter blocks, aggregated at quiesce. One block
/// per thread id, padded to whole cache lines so two threads' increments
/// never contend for a line; increments are single relaxed fetch_adds on
/// the caller's own block.
class MetricSink {
public:
  explicit MetricSink(std::uint32_t NumThreads)
      : N(NumThreads), Blocks(new Block[NumThreads]) {}

  /// One strongApply entry per op (counted before the path is known);
  /// a batch books one entry per element, so \p N lets group paths book
  /// their elements in one call.
  void onOp(std::uint32_t Tid, std::uint64_t N = 1) {
    Blocks[Tid].C[OpsSlot].fetch_add(N, std::memory_order_relaxed);
  }

  /// The operation's terminal path — exactly one booking per onOp entry
  /// (\p N ops at once for group paths). Release: a snapshot that sees
  /// this booking also sees the onOp entries that preceded it.
  void onPath(std::uint32_t Tid, Path P, std::uint64_t N = 1) {
    Block &B = Blocks[Tid];
    B.C[PathBase + static_cast<unsigned>(P)].fetch_add(
        N, std::memory_order_release);
    B.Last.store(static_cast<std::uint8_t>(P), std::memory_order_relaxed);
  }

  void onEvent(std::uint32_t Tid, Event E, std::uint64_t Count = 1) {
    Blocks[Tid].C[EventBase + static_cast<unsigned>(E)].fetch_add(
        Count, std::memory_order_relaxed);
  }

  /// One group of \p K ops applied under a single seam acquisition (one
  /// lock tenure or one combiner record). Feeds the combiner_batch_size
  /// histogram; at quiesce the recorded sizes sum to the Batched path
  /// counter.
  void onBatch(std::uint32_t Tid, std::uint64_t K) {
    Block &B = Blocks[Tid];
    B.C[BatchBucketBase + batchBucket(K)].fetch_add(
        1, std::memory_order_relaxed);
    B.C[BatchOpsSlot].fetch_add(K, std::memory_order_relaxed);
    // Max is owner-written like every other slot in the block; a plain
    // read-check-store keeps it a relaxed counter, not a CAS loop.
    if (K > B.C[BatchMaxSlot].load(std::memory_order_relaxed))
      B.C[BatchMaxSlot].store(K, std::memory_order_relaxed);
  }

  /// Terminal path of \p Tid's most recent completed operation (None
  /// before the first). Drivers use this to route the operation's
  /// latency into per-path histograms.
  Path lastPath(std::uint32_t Tid) const {
    return static_cast<Path>(
        Blocks[Tid].Last.load(std::memory_order_relaxed));
  }

  /// Sums all thread blocks. Exact at quiesce. Mid-run, every block's
  /// Ops is read once before (OpsBefore) and once after (Ops) every path
  /// counter, so the two bracket the retired ops:
  ///  * pathTotal() <= Ops: a booking seen carries its onOp entry along,
  ///    even one booked on another thread's block (release/acquire);
  ///  * OpsBefore - pathTotal() is at most the ops in flight, one per
  ///    thread plus one per crash-abandoned op.
  PathSnapshot snapshot() const {
    PathSnapshot S;
    for (std::uint32_t T = 0; T < N; ++T)
      S.OpsBefore += Blocks[T].C[OpsSlot].load(std::memory_order_acquire);
    for (std::uint32_t T = 0; T < N; ++T) {
      const Block &B = Blocks[T];
      for (unsigned I = 0; I < NumPaths; ++I)
        S.Paths[I] += B.C[PathBase + I].load(std::memory_order_acquire);
      for (unsigned I = 0; I < NumEvents; ++I)
        S.Events[I] += B.C[EventBase + I].load(std::memory_order_relaxed);
      for (unsigned I = 0; I < NumBatchBuckets; ++I)
        S.BatchBuckets[I] +=
            B.C[BatchBucketBase + I].load(std::memory_order_relaxed);
      S.BatchOps += B.C[BatchOpsSlot].load(std::memory_order_relaxed);
      const std::uint64_t Max =
          B.C[BatchMaxSlot].load(std::memory_order_relaxed);
      if (Max > S.BatchMax)
        S.BatchMax = Max;
    }
    for (std::uint32_t T = 0; T < N; ++T)
      S.Ops += Blocks[T].C[OpsSlot].load(std::memory_order_relaxed);
    return S;
  }

  /// Zeroes every counter (single-threaded use only).
  void reset() {
    for (std::uint32_t T = 0; T < N; ++T) {
      Block &B = Blocks[T];
      for (unsigned I = 0; I < NumSlots; ++I)
        B.C[I].store(0, std::memory_order_relaxed);
      B.Last.store(static_cast<std::uint8_t>(Path::None),
                   std::memory_order_relaxed);
    }
  }

  /// Heap owned by the sink: one padded counter block per thread. Feeds
  /// the bytes_per_element bench column (obs/MetricsJson.h); zero under
  /// CSOBJ_NO_METRICS, so the column isolates the algorithm's footprint.
  std::size_t heapBytes() const { return std::size_t{N} * sizeof(Block); }

private:
  static constexpr unsigned OpsSlot = 0;
  static constexpr unsigned PathBase = 1;
  static constexpr unsigned EventBase = PathBase + NumPaths;
  static constexpr unsigned BatchBucketBase = EventBase + NumEvents;
  static constexpr unsigned BatchOpsSlot = BatchBucketBase + NumBatchBuckets;
  static constexpr unsigned BatchMaxSlot = BatchOpsSlot + 1;
  static constexpr unsigned NumSlots = BatchMaxSlot + 1;

  struct alignas(CacheLineSize) Block {
    std::atomic<std::uint64_t> C[NumSlots] = {};
    std::atomic<std::uint8_t> Last{static_cast<std::uint8_t>(Path::None)};
  };
  static_assert(occupiesWholeCacheLines<Block>,
                "adjacent thread blocks must never share a line");

  std::uint32_t N;
  std::unique_ptr<Block[]> Blocks;
};

inline constexpr bool MetricsEnabled = true;

#endif // CSOBJ_NO_METRICS

} // namespace obs
} // namespace csobj

#endif // CSOBJ_OBS_PATHCOUNTERS_H
