//===- memory/SlotStore.h - Where slot x of Figure 1 lives ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 1 runs on an infinite array STACK[0..]. The
/// abortable stack and queue (core/AbortableStack.h, core/AbortableQueue.h)
/// are each written once over a *slot store*: the type that owns how
/// slot x is reached. The algorithm never touches storage any other way,
/// so choosing a store changes memory behaviour and nothing else. Two
/// stores, selected by a tag:
///
///   FlatStore    — FlatSlots: the k+1 registers allocated up front.
///                  Every slot is always resident; a pin is a plain
///                  array index and never fails.
///   ChunkedStore — ChunkedSlots: the codec's whole index space as a
///                  directory of ChunkSlots-register chunks, installed on
///                  demand as the object grows and retired through
///                  memory/HazardDomain.h as it shrinks, so resident
///                  memory tracks the live population.
///
/// Chunk protocol (reader side): read Dir[pos], publish the pointer as a
/// hazard, re-read Dir[pos]; if unchanged the chunk cannot be recycled
/// until the hazard clears, so its registers are safe. If changed (or
/// null) the caller's view of the object is provably stale — the trim
/// that detached the chunk ran after an operation the caller has not
/// seen — so the caller answers the paper's bottom (Abort), the answer
/// its own C&S would have produced.
///
/// Chunk protocol (writer side): a growing operation pins its next slot
/// with pinOrInstall, which installs an absent chunk; an operation that
/// moves the object's live edge across a chunk boundary calls trim,
/// which retires every chunk outside the live window. Install and trim
/// serialize on one uncounted spinlock, which keeps the directory free of
/// pointer ABA (a detached chunk is re-installed only under the lock
/// that detached it). What differs per object stays beside the
/// algorithm, as two rules the store calls under that lock:
///
///   Owner.seedChunk(Pos, Fill) — may refuse the install (false), or
///       calls Fill(SeedOf) once: the store takes a chunk from its pool,
///       writes SeedOf(x) into each slot x of position Pos, publishes it
///       and the rule returns true.
///   Owner.liveChunks() — the ring interval {Lo, Hi} of positions a trim
///       keeps; every other installed chunk is retired.
///
/// Everything here is on the reclamation channel: directory loads,
/// hazard publication, pool traffic, seeding (writeReclaim) and the
/// spinlock are uncounted, so the AccessCounter oracle and the
/// interleaving explorer see exactly the accesses Figure 1 performs, and
/// no fault injector can fire inside install or trim. Pins are RAII
/// (HazardGuard), so a ProcessCrash unwind clears them.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_MEMORY_SLOTSTORE_H
#define CSOBJ_MEMORY_SLOTSTORE_H

#include "memory/AtomicRegister.h"
#include "memory/HazardDomain.h"
#include "memory/NodePool.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace csobj {

/// The preallocated store: registers 0..Last, all resident.
template <typename Word, typename Policy> class FlatSlots {
public:
  using Register = AtomicRegister<Word, Policy>;

  /// Who is calling. The flat store needs no thread id, so this is an
  /// empty tag any id converts to, and a closure that captures it
  /// carries nothing.
  struct Caller {
    Caller(std::uint32_t /*Tid*/) {}
  };

  /// Per-chunk state an object keeps beside the store: none here.
  template <typename T> struct PerChunk {};

  /// Allocates registers 0..\p Last; register 0 holds \p First and the
  /// others \p Rest (instrumented writes: construct outside counting
  /// scopes).
  FlatSlots(std::uint32_t Last, Word First, Word Rest)
      : Last(Last), Regs(new Register[std::size_t{Last} + 1]) {
    Regs[0].write(First);
    for (std::uint32_t X = 1; X <= Last; ++X)
      Regs[X].write(Rest);
  }

  /// A flat slot never moves: pinning it is an index and cannot fail.
  class Pin {
  public:
    Pin(FlatSlots &S, Caller, std::uint32_t /*Hazard*/) : S(S) {}
    bool pin(std::uint32_t X) {
      R = &S.Regs[X];
      return true;
    }
    template <typename Rules> bool pinOrInstall(std::uint32_t X, Rules &) {
      return pin(X);
    }
    Register &slot() const { return *R; }

  private:
    FlatSlots &S;
    Register *R = nullptr;
  };

  /// Nothing to give back.
  template <typename Rules>
  void trim(Caller, std::uint32_t, std::uint32_t, const Rules &) {}

  std::uint32_t lastIndex() const { return Last; }

  /// Heap owned by the store: the Last + 1 registers.
  std::size_t heapBytes() const {
    return (std::size_t{Last} + 1) * sizeof(Register);
  }

  /// Uninstrumented read of register \p X (test/debug aid).
  Word peekForTesting(std::uint32_t X) const {
    return Regs[X].peekForTesting();
  }

private:
  const std::uint32_t Last;
  std::unique_ptr<Register[]> Regs;
};

/// The chunked store: registers 0..Last as a directory of chunks, each
/// resident only while the owner's live window covers it.
template <typename Word, typename Policy, std::uint32_t Last>
class ChunkedSlots {
public:
  using Register = AtomicRegister<Word, Policy>;
  /// Who is calling: the thread id that names its hazard slots.
  using Caller = std::uint32_t;

  /// Slots per chunk: an install or trim happens once per ChunkSlots
  /// same-direction operations.
  static constexpr std::uint32_t ChunkSlots = 64;
  static constexpr std::uint32_t DirSize =
      static_cast<std::uint32_t>((std::uint64_t{Last} + 1) / ChunkSlots);
  static_assert((std::uint64_t{Last} + 1) % ChunkSlots == 0,
                "the index space must be chunk-aligned so chunk arithmetic "
                "wraps with the ring");
  /// Hazard slots per thread: an operation pins at most two chunks.
  static constexpr std::uint32_t HazardSlots = 2;

  /// Per-chunk state an object keeps beside the store.
  template <typename T> using PerChunk = std::array<T, DirSize>;

  struct Chunk {
    Register Slots[ChunkSlots];
  };

  static constexpr std::uint32_t chunkOf(std::uint32_t X) {
    return X / ChunkSlots;
  }

  /// \p NumThreads sizes the hazard domain. Chunk 0 is installed with
  /// slot 0 holding \p First and the others \p Rest.
  ChunkedSlots(std::uint32_t NumThreads, Word First, Word Rest)
      : Domain(NumThreads, HazardSlots) {
    for (std::uint32_t P = 0; P < DirSize; ++P)
      Dir[P].store(nullptr, std::memory_order_relaxed);
    Chunk *C0 = Pool.acquire();
    C0->Slots[0].writeReclaim(First);
    for (std::uint32_t X = 1; X < ChunkSlots; ++X)
      C0->Slots[X].writeReclaim(Rest);
    Dir[0].store(C0, std::memory_order_seq_cst);
  }

  /// One hazard slot of one thread, holding at most one chunk pinned.
  class Pin {
  public:
    Pin(ChunkedSlots &S, Caller Tid, std::uint32_t Hazard)
        : S(S), Guard(S.Domain, Tid, Hazard) {}

    /// Hazard handshake for slot \p X: read, publish, re-validate.
    /// False when the chunk is (now) absent — proof the caller's view
    /// is stale.
    bool pin(std::uint32_t X) {
      const std::uint32_t Pos = chunkOf(X);
      Chunk *C = S.Dir[Pos].load(std::memory_order_seq_cst);
      while (C) {
        Guard.protect(C);
        Chunk *Again = S.Dir[Pos].load(std::memory_order_seq_cst);
        if (Again == C) {
          R = &C->Slots[X % ChunkSlots];
          return true;
        }
        C = Again;
      }
      return false;
    }

    /// pin that installs an absent chunk first (the growth path). False
    /// when \p Owner's seedChunk refuses the install.
    template <typename Rules> bool pinOrInstall(std::uint32_t X, Rules &Owner) {
      while (!pin(X))
        if (!S.installAt(chunkOf(X), Owner))
          return false;
      return true;
    }

    Register &slot() const { return *R; }

  private:
    ChunkedSlots &S;
    HazardGuard Guard;
    Register *R = nullptr;
  };

  /// Called by \p Tid after its operation moved the live window's edge
  /// from slot \p From to slot \p To. When that crosses a chunk
  /// boundary, retires every installed chunk outside Owner.liveChunks().
  template <typename Rules>
  void trim(Caller Tid, std::uint32_t From, std::uint32_t To,
            const Rules &Owner) {
    if (chunkOf(From) == chunkOf(To))
      return;
    SpinGuard G(DirLock);
    const auto [Lo, Hi] = Owner.liveChunks();
    for (std::uint32_t Pos = 0; Pos < DirSize; ++Pos) {
      const bool Live =
          Lo <= Hi ? (Pos >= Lo && Pos <= Hi) : (Pos >= Lo || Pos <= Hi);
      if (Live)
        continue;
      Chunk *C = Dir[Pos].load(std::memory_order_seq_cst);
      if (!C)
        continue;
      Dir[Pos].store(nullptr, std::memory_order_seq_cst);
      Domain.retire(Tid, C, NodePool<Chunk>::recycle, &Pool);
    }
  }

  static constexpr std::uint32_t lastIndex() { return Last; }

  /// Chunks currently installed in the directory (test/bench oracle).
  std::uint32_t installedChunksForTesting() const {
    std::uint32_t Count = 0;
    for (std::uint32_t P = 0; P < DirSize; ++P)
      if (Dir[P].load(std::memory_order_seq_cst))
        ++Count;
    return Count;
  }

  /// Chunks ever allocated by the pool (test/bench oracle).
  std::size_t allocatedChunksForTesting() const {
    return Pool.allocatedCount();
  }

  /// The reclamation domain (bench/test oracle: backlog, high water).
  HazardDomain &domain() { return Domain; }

  /// Heap owned by the store: every chunk ever allocated, the hazard
  /// domain and the retire bookkeeping — the resident footprint behind
  /// the bytes_per_element bench column.
  std::size_t heapBytes() const {
    return Pool.heapBytes() + Domain.heapBytes();
  }

private:
  /// Install-if-absent at \p Pos, serialized with trim. True when a
  /// chunk is present afterwards.
  template <typename Rules> bool installAt(std::uint32_t Pos, Rules &Owner) {
    SpinGuard G(DirLock);
    if (Dir[Pos].load(std::memory_order_seq_cst))
      return true;
    return Owner.seedChunk(Pos, [this, Pos](auto SeedOf) {
      Chunk *C = Pool.acquire();
      for (std::uint32_t X = 0; X < ChunkSlots; ++X)
        C->Slots[X].writeReclaim(SeedOf(Pos * ChunkSlots + X));
      Dir[Pos].store(C, std::memory_order_seq_cst);
    });
  }

  HazardDomain Domain;
  NodePool<Chunk> Pool;
  std::atomic<Chunk *> Dir[DirSize];
  std::atomic_flag DirLock = ATOMIC_FLAG_INIT;
};

/// Selects FlatSlots: capacity k chosen at construction, k+1 registers.
struct FlatStore {
  static constexpr bool Chunked = false;
  template <typename Config, typename Policy>
  using Slots = FlatSlots<typename Config::Slot::Word, Policy>;
};

/// Selects ChunkedSlots over the codec's whole index space: the capacity
/// is the codec's envelope, and construction takes the thread count
/// (the paper's n) to size the hazard domain.
struct ChunkedStore {
  static constexpr bool Chunked = true;
  template <typename Config, typename Policy>
  using Slots = ChunkedSlots<typename Config::Slot::Word, Policy,
                             Config::Top::MaxIndex>;
};

} // namespace csobj

#endif // CSOBJ_MEMORY_SLOTSTORE_H
