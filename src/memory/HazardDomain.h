//===- memory/HazardDomain.h - Hazard-pointer reclamation domain -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Safe-memory-reclamation substrate (Michael's hazard pointers, adapted
/// to this library's logical-thread-id world). The unbounded objects
/// (core/UnboundedStack.h, core/UnboundedQueue.h) and the reclaiming
/// skip list (core/SkipListCore.h) retire storage through a HazardDomain
/// instead of freeing it, and readers publish the pointer they are about
/// to dereference into a per-thread hazard slot first; a retired object
/// is recycled only once no slot names it.
///
/// Everything here lives on the *reclamation channel*: plain std::atomic
/// operations, invisible to the AccessCounter oracle and the
/// interleaving explorer, exactly like the MetricSink stores of the obs
/// layer. The paper's algorithms run on an assumed infinite array; the
/// hazard machinery is the memory system that materializes that array,
/// not part of the algorithms' shared-memory access count. This also
/// makes every HazardDomain operation *crash-atomic*: the fault
/// injectors (SimulatedCrash, ProcessCrash, campaign stalls) fire only
/// from instrumented preAccess hooks, and no such access occurs inside
/// protect/clear/retire/scan — a crash can strand a published hazard
/// (bounded: it pins at most SlotsPerThread objects until the thread is
/// resurrected and publishes again) but can never tear a retire list or
/// double-free.
///
/// Identity is the *logical* thread id (the paper's process id), not
/// thread_local state: the interleaving explorer multiplexes logical
/// threads onto one OS thread, and the soak harness resurrects a crashed
/// worker under the same id — in both cases the hazard slots and the
/// retire list follow the id, so a resurrected worker inherits (and
/// eventually drains) its predecessor's retired backlog.
///
/// Bounds. With n threads and s slots each (H = n*s total hazards), a
/// thread scans once its retire list reaches 2*H entries; a scan frees
/// every entry not currently hazarded, so at most H survive. The
/// per-thread backlog is therefore bounded by 2*H = O(threads x slots),
/// the whole-domain backlog by 2*n*H, and each scan frees at least H
/// entries — amortized O(1) reclamation work per retire.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_MEMORY_HAZARDDOMAIN_H
#define CSOBJ_MEMORY_HAZARDDOMAIN_H

#include "support/CacheLine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace csobj {

/// A hazard-pointer domain: per-thread publication slots plus per-thread
/// retire lists with amortized scan-and-recycle.
class HazardDomain {
public:
  /// Recycler invoked for an object once no hazard names it. \p Ctx is
  /// the pool (or other owner) the object returns to.
  using RecycleFn = void (*)(void *Obj, void *Ctx);

  /// Zero \p NumThreads or \p SlotsPerThread throws
  /// std::invalid_argument (a hard check, kept under NDEBUG: the hazard
  /// table would have no slots for the first protect() to index).
  HazardDomain(std::uint32_t NumThreads, std::uint32_t SlotsPerThread)
      : N(NumThreads), Slots(SlotsPerThread),
        Stride(roundUpToLine(SlotsPerThread)),
        Hazards(std::make_unique<std::atomic<const void *>[]>(
            static_cast<std::size_t>(NumThreads) * Stride)),
        Retired(NumThreads) {
    if (NumThreads < 1 || SlotsPerThread < 1)
      throw std::invalid_argument(
          "HazardDomain: need at least one thread and one slot");
    for (std::size_t I = 0; I < static_cast<std::size_t>(N) * Stride; ++I)
      Hazards[I].store(nullptr, std::memory_order_relaxed);
  }

  HazardDomain(const HazardDomain &) = delete;
  HazardDomain &operator=(const HazardDomain &) = delete;

  /// Dropped entries are NOT recycled on destruction: every retired
  /// object is owned by a pool that frees its storage wholesale, so
  /// running the callbacks here would be pure bookkeeping on a dying
  /// object graph (and would impose a destruction order between the
  /// domain and its pools).
  ~HazardDomain() = default;

  /// Publishes \p Ptr in slot \p Slot of thread \p Tid. seq_cst: the
  /// store must be ordered before the caller's validation re-read
  /// (store-load), which is what makes the protect/validate handshake
  /// sound against a concurrent unlink-then-scan.
  void protect(std::uint32_t Tid, std::uint32_t Slot, const void *Ptr) {
    assert(Tid < N && Slot < Slots && "hazard slot out of range");
    Hazards[static_cast<std::size_t>(Tid) * Stride + Slot].store(
        Ptr, std::memory_order_seq_cst);
  }

  /// Clears one slot. Release suffices: nothing is validated against a
  /// clear; it only *allows* future recycling.
  void clear(std::uint32_t Tid, std::uint32_t Slot) {
    assert(Tid < N && Slot < Slots && "hazard slot out of range");
    Hazards[static_cast<std::size_t>(Tid) * Stride + Slot].store(
        nullptr, std::memory_order_release);
  }

  /// Clears every slot of \p Tid (operation epilogue / crash recovery).
  void clearAll(std::uint32_t Tid) {
    for (std::uint32_t S = 0; S < Slots; ++S)
      clear(Tid, S);
  }

  /// Currently published pointer (test oracle).
  const void *protectedForTesting(std::uint32_t Tid,
                                  std::uint32_t Slot) const {
    return Hazards[static_cast<std::size_t>(Tid) * Stride + Slot].load(
        std::memory_order_seq_cst);
  }

  /// Hands \p Obj to the domain for deferred recycling. The caller must
  /// be the object's unique retirer (it won the unlink CAS), and the
  /// object must already be unreachable from the shared structure.
  /// Triggers an amortized scan once this thread's list reaches the
  /// threshold.
  void retire(std::uint32_t Tid, void *Obj, RecycleFn Recycle, void *Ctx) {
    assert(Tid < N && "thread id out of range");
    RetireBlock &B = Retired[Tid];
    B.List.push_back(Entry{Obj, Recycle, Ctx});
    B.Count.store(B.List.size(), std::memory_order_relaxed);
    noteHighWater(B.List.size());
    if (B.List.size() >= scanThreshold())
      (void)scan(Tid);
  }

  /// Recycles every entry of \p Tid's retire list that no hazard slot
  /// names. Returns the number recycled. Only \p Tid (or its
  /// single-threaded resurrection) may call this.
  std::size_t scan(std::uint32_t Tid) {
    assert(Tid < N && "thread id out of range");
    RetireBlock &B = Retired[Tid];
    if (B.List.empty())
      return 0;
    // Snapshot all published hazards. seq_cst loads pair with the
    // seq_cst protect stores: any reader whose validate succeeded
    // against the pre-unlink structure has its hazard visible here.
    std::vector<const void *> Live;
    Live.reserve(static_cast<std::size_t>(N) * Slots);
    for (std::uint32_t T = 0; T < N; ++T)
      for (std::uint32_t S = 0; S < Slots; ++S) {
        const void *P =
            Hazards[static_cast<std::size_t>(T) * Stride + S].load(
                std::memory_order_seq_cst);
        if (P)
          Live.push_back(P);
      }
    std::sort(Live.begin(), Live.end());
    std::size_t Freed = 0;
    std::size_t Keep = 0;
    for (std::size_t I = 0; I < B.List.size(); ++I) {
      const Entry &E = B.List[I];
      if (std::binary_search(Live.begin(), Live.end(),
                             static_cast<const void *>(E.Obj))) {
        B.List[Keep++] = E;
        continue;
      }
      E.Recycle(E.Obj, E.Ctx);
      ++Freed;
    }
    B.List.resize(Keep);
    B.Count.store(Keep, std::memory_order_relaxed);
    return Freed;
  }

  /// Scans every thread's retire list. Quiescent use only (bench
  /// steady-state measurement, test teardown): retire lists are
  /// single-owner and this walks all of them.
  std::size_t quiescentScanAll() {
    std::size_t Freed = 0;
    for (std::uint32_t T = 0; T < N; ++T)
      Freed += scan(T);
    return Freed;
  }

  /// Retire threshold: a thread scans when its list reaches this many
  /// entries (2*H, H = total hazard slots).
  std::size_t scanThreshold() const {
    return 2 * static_cast<std::size_t>(N) * Slots;
  }

  /// Entries currently awaiting reclamation across all threads. Racy
  /// under concurrency (relaxed per-thread counters); exact when
  /// quiescent.
  std::uint64_t retireBacklog() const {
    std::uint64_t Total = 0;
    for (std::uint32_t T = 0; T < N; ++T)
      Total += Retired[T].Count.load(std::memory_order_relaxed);
    return Total;
  }

  /// Largest single-thread retire list ever observed (the bound under
  /// test is <= scanThreshold()).
  std::uint64_t retireHighWater() const {
    return HighWater.load(std::memory_order_relaxed);
  }

  std::uint32_t numThreads() const { return N; }
  std::uint32_t slotsPerThread() const { return Slots; }

  /// Heap owned by the domain: the hazard slot array plus the retire
  /// lists' storage.
  std::size_t heapBytes() const {
    std::size_t Bytes = static_cast<std::size_t>(N) * Stride *
                        sizeof(std::atomic<const void *>);
    for (std::uint32_t T = 0; T < N; ++T)
      Bytes += Retired[T].List.capacity() * sizeof(Entry) +
               sizeof(RetireBlock);
    return Bytes;
  }

private:
  struct Entry {
    void *Obj;
    RecycleFn Recycle;
    void *Ctx;
  };

  /// Per-thread retire list, padded so neighbours' pushes do not false-
  /// share. Count mirrors List.size() for cross-thread backlog reads.
  struct alignas(CacheLineSize) RetireBlock {
    std::vector<Entry> List;
    std::atomic<std::size_t> Count{0};
  };

  /// Rounds a slot count up so each thread's slots occupy whole cache
  /// lines (no false sharing between neighbouring threads' protects).
  static constexpr std::size_t roundUpToLine(std::uint32_t SlotCount) {
    constexpr std::size_t PerLine =
        CacheLineSize / sizeof(std::atomic<const void *>);
    return ((SlotCount + PerLine - 1) / PerLine) * PerLine;
  }

  void noteHighWater(std::size_t Size) {
    std::uint64_t Cur = HighWater.load(std::memory_order_relaxed);
    while (Size > Cur &&
           !HighWater.compare_exchange_weak(Cur, Size,
                                            std::memory_order_relaxed))
      ;
  }

  const std::uint32_t N;
  const std::uint32_t Slots;
  const std::size_t Stride;
  std::unique_ptr<std::atomic<const void *>[]> Hazards;
  std::vector<RetireBlock> Retired;
  std::atomic<std::uint64_t> HighWater{0};
};

/// RAII hazard slot: publishes on protect(), clears on destruction —
/// including the unwind of a SimulatedCrash/ProcessCrash, so a crashed
/// operation never strands a hazard past its own resurrection scope.
class HazardGuard {
public:
  HazardGuard(HazardDomain &Domain, std::uint32_t Tid, std::uint32_t Slot)
      : Domain(Domain), Tid(Tid), Slot(Slot) {}

  HazardGuard(const HazardGuard &) = delete;
  HazardGuard &operator=(const HazardGuard &) = delete;

  ~HazardGuard() { Domain.clear(Tid, Slot); }

  /// Publishes \p Ptr (seq_cst); the caller must re-validate
  /// reachability afterwards before dereferencing.
  void protect(const void *Ptr) { Domain.protect(Tid, Slot, Ptr); }

private:
  HazardDomain &Domain;
  std::uint32_t Tid;
  std::uint32_t Slot;
};

} // namespace csobj

#endif // CSOBJ_MEMORY_HAZARDDOMAIN_H
