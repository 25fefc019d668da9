//===- locks/TournamentLock.h - Peterson tournament for n -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// n-process mutual exclusion from a binary tournament of Peterson
/// two-process games. A process climbs from its leaf to the root, playing
/// the Peterson protocol at each internal node with role = the path bit;
/// release walks back down. Starvation-free (each node game is), built
/// from reads and writes only — no read-modify-write instructions, which
/// makes it the register-only contrast point in the lock benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LOCKS_TOURNAMENTLOCK_H
#define CSOBJ_LOCKS_TOURNAMENTLOCK_H

#include "memory/AtomicRegister.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace csobj {

/// Peterson-tournament lock for up to NumThreads processes.
class TournamentLock {
public:
  static constexpr const char *Name = "tournament";

  explicit TournamentLock(std::uint32_t NumThreads)
      : Levels(levelsFor(NumThreads)),
        Nodes(new CacheLinePadded<Node>[nodeCount(Levels)]) {
    assert(NumThreads >= 1 && "tournament lock needs a process");
  }

  void lock(std::uint32_t Tid) {
    for (std::uint32_t Level = 0; Level < Levels; ++Level) {
      Node &Game = nodeAt(Level, Tid);
      const std::uint32_t Role = (Tid >> Level) & 1;
      Game.Flag[Role].write(1);
      Game.Victim.write(Role);
      SpinWait Waiter;
      while (Game.Flag[1 - Role].read() != 0 &&
             Game.Victim.read() == Role)
        Waiter.once();
    }
  }

  void unlock(std::uint32_t Tid) {
    // Release from the root back down to the leaf level.
    for (std::uint32_t Level = Levels; Level-- > 0;) {
      Node &Game = nodeAt(Level, Tid);
      Game.Flag[(Tid >> Level) & 1].write(0);
    }
  }

  std::uint32_t levels() const { return Levels; }

  /// Heap owned by the lock: one padded node per game of the tree.
  std::size_t heapBytes() const {
    return std::size_t{nodeCount(Levels)} * sizeof(CacheLinePadded<Node>);
  }

private:
  struct Node {
    AtomicRegister<std::uint8_t> Flag[2]{};
    AtomicRegister<std::uint32_t> Victim{0};
  };

  /// Tree depth: smallest L with 2^L >= NumThreads (at least 1 so a
  /// single game exists even for one process).
  static std::uint32_t levelsFor(std::uint32_t NumThreads) {
    std::uint32_t L = 1;
    while ((std::uint32_t{1} << L) < NumThreads)
      ++L;
    return L;
  }

  /// Total internal nodes of a complete binary tree of depth Levels,
  /// stored level by level from the leaves' parents (level 0) up.
  static std::uint32_t nodeCount(std::uint32_t Levels) {
    return (std::uint32_t{1} << Levels) - 1;
  }

  /// Node played by \p Tid at \p Level: level l has 2^(Levels-1-l) games;
  /// levels are packed with level 0 first.
  Node &nodeAt(std::uint32_t Level, std::uint32_t Tid) {
    std::uint32_t Base = 0;
    for (std::uint32_t L = 0; L < Level; ++L)
      Base += (std::uint32_t{1} << (Levels - 1 - L));
    return Nodes[Base + (Tid >> (Level + 1))].value();
  }

  const std::uint32_t Levels;
  std::unique_ptr<CacheLinePadded<Node>[]> Nodes;
};

} // namespace csobj

#endif // CSOBJ_LOCKS_TOURNAMENTLOCK_H
