//===- core/SkipListCore.h - Reclaiming skip list (weak ops) ----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weak (abortable) half of the contention-sensitive ordered map: a
/// skip list over uint32 keys whose update operations are single
/// Compare&Swap attempts — they either take effect atomically or answer
/// the paper's bottom (Abort) — and whose search path performs the same
/// counted reads as the pre-reclamation tombstone design.
///
/// This revision replaces tombstone-forever semantics with physical
/// removal over the reclamation substrate (memory/HazardDomain.h):
///
///  * **Logical erase is unchanged**: one ValState CAS Live -> Dead is
///    the linearization point. The CAS winner then owns *physical*
///    removal: it marks the node's link words (Harris-style, bit 31 of
///    every Next word), snips the node out of each lane, and retires it
///    to the hazard domain. All of that runs on the uncounted
///    reclamation channel — and because the fault injectors fire only at
///    instrumented accesses, the whole removal tail is crash-atomic with
///    the CAS that linearized it.
///  * **Capacity counts live keys**, not keys-ever: erase frees
///    capacity. Full is certified abort-when-uncertain against a
///    versioned live counter — the counter word is read before and
///    after the absence re-search, and any change answers Abort instead
///    of risking an unsound Full.
///  * **Traversals pin nodes before trusting them.** Each step publishes
///    a hazard on the next node and re-validates the link that led to it
///    (an uncounted re-read); a validated node cannot be recycled under
///    the reader. A traversal that meets a marked node helps snip it
///    (uncounted CAS) and a snip into a marked predecessor fails by
///    construction, because the mark lives in the same word the snip
///    expects unmarked.
///  * **Revival is abolished.** An insert that finds a Dead node goes
///    down the fresh path and links a new node for the key *in front of*
///    the dying one (equal keys sit adjacent, live shadow first); update
///    CASes succeed only on Live words. This removes the revive-vs-
///    removal race entirely.
///  * **Storage is a segmented, grow-on-demand pool** with a free list
///    fed by hazard scans. Nodes are addressed by index (bit 31 of a
///    link word is the mark, so indices are 31-bit); segments are
///    pointer-stable and published through a fixed directory, so a
///    pinned node never moves. The pool's growth is bounded by live
///    keys + per-thread spares + the domain's retire backlog
///    (O(threads^2 x slots) worst case, typically far less), not by
///    keys-ever.
///
/// Insert's express lanes stay best-effort (one CAS per level). With
/// reclamation this needs one extra rule: a lane whose link CAS lost is
/// immediately marked dead in the node's own word, so a traversal
/// descending through the node at that level falls back to the head
/// instead of following a rotting pointer.
///
/// **The sweep descends from the erase's own search window.** After
/// marking, the remover walks down from `Preds[H-1]` of the `find` that
/// located the node, snipping the node (and any other marked node met)
/// at each level. Each level's walk starts at the last node below the
/// key that the level above met, steps through every node of the key
/// (the node can sit anywhere among them: a newer shadow in front, an
/// older node not yet marked behind) and stops at the first larger key;
/// a level restarts from the head only when its predecessor turns out
/// marked. Lanes are sorted, so an erase's tail is O(height), not O(n).
/// Hazard-slot map, per thread: slots 2L and 2L+1 hold level L's (pred,
/// candidate) in both `find` and the sweep — a carried pred stays pinned
/// in a higher level's slot, or in the next level's pred slot once the
/// walk steps onto the key — and slot 2·MaxLevel holds the node an
/// insert is publishing.
///
/// **A late lane link cannot outlive the retire.** The lane CASes run
/// after the level-0 link, so an erase can linearize, sweep and retire
/// the node before one of them lands. The inserter therefore pins its
/// node before the level-0 link (the pin is visible to every scan that
/// could follow the retire, so the node cannot be recycled), and once
/// its lane loop ends — by return or by the unwind of an injected
/// crash — it re-reads the node's state and, if the node died, marks
/// and sweeps it again before the pin clears. Only the inserter links a
/// node into a lane without expecting it as a successor, so after that
/// last sweep the node stays unreachable: the retire precondition holds
/// from the moment any scan can recycle it.
///
/// Solo (contention-free) counted access costs are unchanged for get
/// (8 miss / 9 hit), update and erase-hit (11 each through the Fig-3
/// wrapper) and lower for fresh insert (15 -> 11: the capacity counter
/// is read once for admission, and node allocation/initialisation of
/// unreachable storage — never a shared-memory access in the paper's
/// convention — is now uniformly uncounted). Erased keys physically
/// vanish, so probing one costs a plain miss, not a tombstone read.
///
/// Node heights remain a deterministic hash of the key (geometric,
/// p=1/2, capped at MaxLevel), so directed interleaving tests can pick
/// keys of known height and solo access counts are reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_SKIPLISTCORE_H
#define CSOBJ_CORE_SKIPLISTCORE_H

#include "core/Results.h"
#include "memory/AtomicRegister.h"
#include "memory/HazardDomain.h"
#include "memory/NodePool.h"
#include "memory/TaggedValue.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace csobj {

/// Reclaiming skip list with abortable single-CAS updates.
/// \tparam Policy register policy (Instrumented / Fast).
template <typename Policy = DefaultRegisterPolicy>
class SkipListCore {
public:
  using Key = std::uint32_t;
  using Value = std::uint32_t;
  using RegisterPolicy = Policy;

  /// Tower height cap; also the solo search cost in level reads.
  static constexpr std::uint32_t MaxLevel = 8;
  /// Null link. Indices are 31-bit: bit 31 of a link word is the
  /// Harris mark ("the node owning this word is being removed").
  static constexpr std::uint32_t NilIdx = 0x7FFFFFFFu;
  static constexpr std::uint32_t MarkBit = 0x80000000u;
  /// Hazard slots per thread: a (pred, succ) pair per level, so a
  /// find's whole window stays pinned until the caller's link CASes,
  /// plus one for the node an insert is publishing.
  static constexpr std::uint32_t HazardSlots = 2 * MaxLevel + 1;
  /// Nodes per pool segment (segments are pointer-stable; the directory
  /// publishes them once).
  static constexpr std::uint32_t SegmentNodes = 64;

  /// The per-node value/liveness word: <state:2 | seq:30 | value:32>.
  /// The codec's index field is repurposed as the liveness state.
  using ValCodec = TopCodec<std::uint64_t, 2, 30, std::uint32_t>;
  static constexpr std::uint32_t Dead = 0;
  static constexpr std::uint32_t Live = 1;

  /// \p NumThreads sizes the hazard domain and the over-admission
  /// slack; \p Capacity is the *live* distinct-key bound. Construct
  /// outside counting scopes: initialisation writes the head's links.
  /// Parameter violations throw std::invalid_argument — hard checks, not
  /// asserts, because an NDEBUG build would otherwise size the node pool
  /// and index space inconsistently and corrupt links much later.
  SkipListCore(std::uint32_t NumThreads, std::uint32_t Capacity)
      : Cap(checkedCapacity(NumThreads, Capacity)), N(NumThreads),
        NodeBudget(1 + Capacity + 2 * NumThreads +
                   2 * NumThreads * NumThreads * HazardSlots),
        DirSlots((NodeBudget + SegmentNodes - 1) / SegmentNodes),
        Domain(NumThreads, HazardSlots),
        Dir(std::make_unique<std::atomic<Segment *>[]>(DirSlots)),
        Spare(NumThreads, NilIdx) {
    for (std::uint32_t S = 0; S < DirSlots; ++S)
      Dir[S].store(nullptr, std::memory_order_relaxed);
    installSegment(0);
    Node &Head = node(0);
    Head.Height.store(MaxLevel, std::memory_order_relaxed);
    for (std::uint32_t L = 0; L < MaxLevel; ++L)
      Head.Next[L].writeReclaim(NilIdx);
    NextFresh = 1;
    LiveCount.writeReclaim(0);
  }

  ~SkipListCore() {
    for (std::uint32_t S = 0; S < DirSlots; ++S)
      delete Dir[S].load(std::memory_order_relaxed);
  }

  /// Deterministic tower height of \p K: geometric with p=1/2 over a
  /// mixed hash, capped at MaxLevel. Exposed so directed tests can pick
  /// keys of known height.
  static constexpr std::uint32_t heightOf(Key K) {
    std::uint64_t H = (K + 0x9E3779B97F4A7C15ull) * 0xBF58476D1CE4E5B9ull;
    H ^= H >> 27;
    H *= 0x94D049BB133111EBull;
    H ^= H >> 31;
    std::uint32_t Level = 1;
    while ((H & 1) != 0 && Level < MaxLevel) {
      ++Level;
      H >>= 1;
    }
    return Level;
  }

  /// Search result: the node holding K (or NilIdx; possibly Dead — the
  /// caller inspects ValState) plus the per-level insertion window. All
  /// named nodes stay hazard-pinned until the operation's HazardScope
  /// closes.
  struct FindResult {
    std::uint32_t Found = NilIdx;
    std::uint32_t Preds[MaxLevel] = {};
    std::uint32_t Succs[MaxLevel] = {};
  };

  /// Lock-free search with the hazard handshake per step (publish the
  /// candidate, re-validate the link that led to it on the uncounted
  /// channel). Counted cost is one link read per level plus one per
  /// horizontal advance — identical to the pre-reclamation walk when
  /// solo. Meets marked nodes only under contention: helps snip them
  /// (uncounted) and restarts on interference.
  FindResult find(std::uint32_t Tid, Key K) const {
  Restart:
    FindResult F;
    std::uint32_t Pred = 0; // head sentinel, never retired
    for (std::int32_t L = MaxLevel - 1; L >= 0; --L) {
      const std::uint32_t UL = static_cast<std::uint32_t>(L);
      std::uint32_t W = node(Pred).Next[UL].read(std::memory_order_acquire);
      if ((W & MarkBit) != 0) {
        // The node carried down from the level above is dead here (it
        // was erased, or this lane's insert CAS lost and the lane was
        // marked dead). The head's lanes are never marked: re-walk this
        // level from the head.
        Pred = 0;
        W = node(Pred).Next[UL].read(std::memory_order_acquire);
      }
      while (true) {
        const std::uint32_t Cur = W & ~MarkBit;
        if (Cur == NilIdx)
          break;
        Domain.protect(Tid, 2 * UL + 1, &node(Cur));
        if (node(Pred).Next[UL].readReclaim() != W) {
          // The link changed under us; re-observe it (counted — this is
          // a fresh algorithmic read, reachable only under contention).
          W = node(Pred).Next[UL].read(std::memory_order_acquire);
          if ((W & MarkBit) != 0)
            goto Restart; // pred died mid-walk
          continue;
        }
        // Cur is pinned and was reachable from Pred at validation.
        const Key CK = node(Cur).Key.load(std::memory_order_relaxed);
        if (CK >= K)
          break;
        const std::uint32_t NW =
            node(Cur).Next[UL].read(std::memory_order_acquire);
        if ((NW & MarkBit) != 0) {
          // Cur is logically deleted: help snip it (reclamation
          // channel; fails — and we restart — if Pred itself died).
          if (!node(Pred).Next[UL].compareAndSwapReclaim(W, NW & ~MarkBit))
            goto Restart;
          W = NW & ~MarkBit;
          continue;
        }
        Domain.protect(Tid, 2 * UL, &node(Cur)); // keep pinned as pred
        Pred = Cur;
        W = NW;
      }
      F.Preds[UL] = Pred;
      F.Succs[UL] = W & ~MarkBit;
    }
    if (F.Succs[0] != NilIdx &&
        node(F.Succs[0]).Key.load(std::memory_order_relaxed) == K)
      F.Found = F.Succs[0];
    return F;
  }

  /// Lock-free read: the value mapped to K, or Empty. Never aborts (the
  /// linearization point is the ValState read, or the level-0 window
  /// read that proves absence).
  PopResult<Value> get(std::uint32_t Tid, Key K) const {
    assert(Tid < N && "thread id out of range");
    HazardScope Scope(Domain, Tid);
    const FindResult F = find(Tid, K);
    if (F.Found == NilIdx)
      return PopResult<Value>::empty();
    const TopFields<Value> Fields = ValCodec::unpack(
        node(F.Found).ValState.read(std::memory_order_acquire));
    if (Fields.Index != Live)
      return PopResult<Value>::empty();
    return PopResult<Value>::value(Fields.Value);
  }

  /// weak insert-or-update: Done (took effect at one CAS), Full (the
  /// live-key capacity is exhausted and K is not live), or Abort
  /// (interference or uncertainty; no effect).
  PushResult weakInsert(std::uint32_t Tid, Key K, Value V) {
    assert(Tid < N && "thread id out of range");
    HazardScope Scope(Domain, Tid);
    FindResult F = find(Tid, K);
    if (F.Found != NilIdx) {
      switch (tryUpdate(F.Found, V)) {
      case UpdateOutcome::Done:
        return PushResult::Done;
      case UpdateOutcome::Interfered:
        return PushResult::Abort;
      case UpdateOutcome::WasDead:
        break; // fresh path shadows the dying node
      }
    }
    // Admission: a fresh key (including a shadow of a dead one) needs a
    // live slot. The counter word is versioned, so equality of two
    // reads proves it never moved in between.
    const std::uint64_t CountW = LiveCount.read(std::memory_order_acquire);
    if (countOf(CountW) >= Cap) {
      F = find(Tid, K);
      if (F.Found != NilIdx) {
        switch (tryUpdate(F.Found, V)) {
        case UpdateOutcome::Done:
          return PushResult::Done;
        case UpdateOutcome::Interfered:
          return PushResult::Abort;
        case UpdateOutcome::WasDead:
          break;
        }
      }
      // K is logically absent at the search just performed; Full is
      // sound only if the counter held >= Cap across it. Otherwise the
      // two facts were not simultaneous: abort, per the paper's
      // abort-when-uncertain discipline.
      return LiveCount.read(std::memory_order_acquire) == CountW
                 ? PushResult::Full
                 : PushResult::Abort;
    }
    const std::uint32_t Height = heightOf(K);
    std::uint32_t Idx = Spare[Tid];
    if (Idx == NilIdx)
      Idx = acquireNode(Tid);
    Node &Fresh = node(Idx);
    // Initialisation of unreachable storage: reclamation channel. The
    // ValState sequence tag continues from the node's previous
    // incarnation, preserving the 2^30 ABA envelope across recycling.
    Fresh.Key.store(K, std::memory_order_relaxed);
    Fresh.Height.store(Height, std::memory_order_relaxed);
    const TopFields<Value> OldVal =
        ValCodec::unpack(Fresh.ValState.readReclaim());
    Fresh.ValState.writeReclaim(
        ValCodec::pack({Live, V, ValCodec::seqAdd(OldVal.Seq, 1)}));
    for (std::uint32_t L = 0; L < Height; ++L)
      Fresh.Next[L].writeReclaim(F.Succs[L]);
    // Pinned before it becomes reachable, so no scan that could follow
    // an erase's retire misses the pin while a lane CAS is pending.
    Domain.protect(Tid, FreshSlot, &Fresh);
    // The linearization point: publish at level 0. Success proves the
    // window [pred, succ) was still intact, so no live node with key K
    // existed anywhere in the (complete) level-0 list at this instant.
    if (!node(F.Preds[0]).Next[0].compareAndSwap(F.Succs[0], Idx)) {
      Spare[Tid] = Idx; // keep the speculative node for the next attempt
      return PushResult::Abort;
    }
    Spare[Tid] = NilIdx;
    bumpLive(+1);
    // Destroyed before Scope, so it sweeps before the pins clear.
    const LateLinkSweep Sweep(*this, Tid, Idx, F);
    // Express lanes: one attempt per level. A lost race marks the lane
    // dead in the node's own word — the node stays reachable through
    // lower levels, and descents through the dead lane fall back to the
    // head instead of following a link that will never be maintained.
    for (std::uint32_t L = 1; L < Height; ++L)
      if (!node(F.Preds[L]).Next[L].compareAndSwap(F.Succs[L], Idx))
        Fresh.Next[L].writeReclaim(NilIdx | MarkBit);
    return PushResult::Done;
  }

  /// weak erase: the old value (removed at one CAS), Empty, or Abort.
  /// The CAS winner performs physical removal and retires the node —
  /// all on the uncounted reclamation channel, crash-atomic with the
  /// CAS (fault injectors fire only at instrumented accesses).
  PopResult<Value> weakErase(std::uint32_t Tid, Key K) {
    assert(Tid < N && "thread id out of range");
    HazardScope Scope(Domain, Tid);
    const FindResult F = find(Tid, K);
    if (F.Found == NilIdx)
      return PopResult<Value>::empty();
    Node &Target = node(F.Found);
    const std::uint64_t W = Target.ValState.read(std::memory_order_acquire);
    const TopFields<Value> Fields = ValCodec::unpack(W);
    if (Fields.Index != Live)
      return PopResult<Value>::empty();
    const std::uint64_t NewW = ValCodec::pack(
        {Dead, Fields.Value, ValCodec::seqAdd(Fields.Seq, 1)});
    if (!Target.ValState.compareAndSwap(W, NewW))
      return PopResult<Value>::abort();
    // This thread won the Live -> Dead transition: it is the unique
    // remover and retirer of this node.
    bumpLive(-1);
    markLanes(Target);
    sweepOut(Tid, F.Found, F);
    Domain.retire(Tid, &Target, &SkipListCore::recycleNode, this);
    return PopResult<Value>::value(Fields.Value);
  }

  std::uint32_t capacity() const { return Cap; }
  std::uint32_t numThreads() const { return N; }

  HazardDomain &domain() { return Domain; }
  const HazardDomain &domain() const { return Domain; }

  /// Live entries, by an uninstrumented level-0 walk. Quiescent only.
  std::uint32_t liveCountForTesting() const {
    std::uint32_t Count = 0;
    for (std::uint32_t Cur =
             node(0).Next[0].peekForTesting() & ~MarkBit;
         Cur != NilIdx;
         Cur = node(Cur).Next[0].peekForTesting() & ~MarkBit)
      if (ValCodec::unpack(node(Cur).ValState.peekForTesting()).Index ==
          Live)
        ++Count;
    return Count;
  }

  /// The admission counter's current count field (test oracle).
  std::uint32_t liveCounterForTesting() const {
    return countOf(LiveCount.peekForTesting());
  }

  /// Nodes ever drawn from the pool (head included). Quiescent only.
  std::uint32_t allocatedNodesForTesting() const {
    SpinGuard G(PoolLock);
    return NextFresh;
  }

  /// Structure oracle, by uninstrumented walks: every lane ends within
  /// NodeBudget steps with strictly increasing keys; no node reached on
  /// a lane has that lane's word marked; every node reached is Live, and
  /// every node on a lane above 0 is also on lane 0. Returns "" when all
  /// hold, else the first violation. Quiescent only.
  std::string checkLanesForTesting() const {
    const std::uint32_t Allocated = allocatedNodesForTesting();
    std::vector<bool> OnLane0(Allocated, false);
    for (std::uint32_t L = 0; L < MaxLevel; ++L) {
      std::uint32_t W = node(0).Next[L].peekForTesting();
      Key Prev = 0;
      for (std::uint32_t Step = 0; W != NilIdx; ++Step) {
        const auto Fail = [&](const std::string &What) {
          return "lane " + std::to_string(L) + ", step " +
                 std::to_string(Step) + ": " + What;
        };
        if ((W & MarkBit) != 0)
          return Fail("marked word");
        if (W == 0 || W >= Allocated)
          return Fail("links node " + std::to_string(W) + " of " +
                      std::to_string(Allocated) + " allocated");
        if (Step == NodeBudget)
          return Fail("no end within the node budget");
        const Node &X = node(W);
        const Key K = X.Key.load(std::memory_order_relaxed);
        if (Step > 0 && K <= Prev)
          return Fail("key " + std::to_string(K) + " after key " +
                      std::to_string(Prev));
        if (ValCodec::unpack(X.ValState.peekForTesting()).Index != Live)
          return Fail("key " + std::to_string(K) + " is not Live");
        if (L == 0)
          OnLane0[W] = true;
        else if (!OnLane0[W])
          return Fail("key " + std::to_string(K) + " is not on lane 0");
        Prev = K;
        W = X.Next[L].peekForTesting();
      }
    }
    return {};
  }

  /// Nodes currently on the free list. Quiescent only.
  std::uint32_t freeNodesForTesting() const {
    SpinGuard G(PoolLock);
    return static_cast<std::uint32_t>(FreeList.size());
  }

  /// Heap owned by the list: segment directory, allocated segments,
  /// free list, spare table, and the hazard domain's bookkeeping.
  std::size_t heapBytes() const {
    std::size_t Bytes = DirSlots * sizeof(std::atomic<Segment *>) +
                        Spare.capacity() * sizeof(std::uint32_t) +
                        Domain.heapBytes();
    for (std::uint32_t S = 0; S < DirSlots; ++S)
      if (Dir[S].load(std::memory_order_acquire))
        Bytes += sizeof(Segment);
    {
      SpinGuard G(PoolLock);
      Bytes += FreeList.capacity() * sizeof(std::uint32_t);
    }
    return Bytes;
  }

private:
  /// The hazard slot an insert pins its own node in, from before the
  /// level-0 link until its lane loop has ended; no level's walk uses it.
  static constexpr std::uint32_t FreshSlot = 2 * MaxLevel;

  /// Runs before any member is sized: a bad capacity must not allocate
  /// a directory for ~2^31 nodes on its way to being rejected.
  static std::uint32_t checkedCapacity(std::uint32_t NumThreads,
                                       std::uint32_t Capacity) {
    if (NumThreads < 1)
      throw std::invalid_argument("SkipListCore: need at least one process");
    if (Capacity >= NilIdx)
      throw std::invalid_argument(
          "SkipListCore: capacity exceeds the 31-bit index space");
    return Capacity;
  }

  /// Per-key state. Key/Height are plain relaxed atomics, not counted
  /// registers: they are immutable between a node's publication and its
  /// retirement, and a traversal only reads them while the node is
  /// hazard-pinned. SelfIdx is set once at segment creation.
  struct Node {
    std::atomic<std::uint32_t> Key{0};
    std::atomic<std::uint32_t> Height{0};
    std::uint32_t SelfIdx = 0;
    AtomicRegister<std::uint64_t, Policy> ValState;
    AtomicRegister<std::uint32_t, Policy> Next[MaxLevel];
  };

  struct Segment {
    Node Nodes[SegmentNodes];
  };

  /// Clears every hazard slot of the thread on scope exit — including
  /// the unwind of an injected crash, so a dead operation never strands
  /// its pins past its own resurrection scope.
  class HazardScope {
  public:
    HazardScope(HazardDomain &D, std::uint32_t Tid) : D(D), Tid(Tid) {}
    HazardScope(const HazardScope &) = delete;
    HazardScope &operator=(const HazardScope &) = delete;
    ~HazardScope() { D.clearAll(Tid); }

  private:
    HazardDomain &D;
    std::uint32_t Tid;
  };

  enum class UpdateOutcome { Done, Interfered, WasDead };

  Node &node(std::uint32_t Idx) const {
    Segment *S = Dir[Idx / SegmentNodes].load(std::memory_order_acquire);
    return S->Nodes[Idx % SegmentNodes];
  }

  static std::uint32_t countOf(std::uint64_t CountWord) {
    return static_cast<std::uint32_t>(CountWord & 0xFFFFFFFFull);
  }

  /// Update an existing node at one tagged CAS — but only a Live one:
  /// revival of a Dead node is abolished (the fresh path shadows it).
  UpdateOutcome tryUpdate(std::uint32_t NodeIdx, Value V) {
    Node &Target = node(NodeIdx);
    const std::uint64_t W = Target.ValState.read(std::memory_order_acquire);
    const TopFields<Value> Fields = ValCodec::unpack(W);
    if (Fields.Index != Live)
      return UpdateOutcome::WasDead;
    const std::uint64_t NewW =
        ValCodec::pack({Live, V, ValCodec::seqAdd(Fields.Seq, 1)});
    return Target.ValState.compareAndSwap(W, NewW)
               ? UpdateOutcome::Done
               : UpdateOutcome::Interfered;
  }

  /// Adjusts the versioned live counter (reclamation channel: capacity
  /// bookkeeping after the operation already linearized).
  void bumpLive(std::int32_t Delta) {
    while (true) {
      const std::uint64_t W = LiveCount.readReclaim();
      const std::uint64_t Version = (W >> 32) + 1;
      const std::uint64_t Count =
          static_cast<std::uint32_t>(countOf(W) +
                                     static_cast<std::uint32_t>(Delta));
      if (LiveCount.compareAndSwapReclaim(W, (Version << 32) | Count))
        return;
    }
  }

  /// Marks every lane word of \p X top-down (Harris: a marked word both
  /// flags the node dead and makes any mutation CAS on it fail).
  void markLanes(Node &X) {
    const std::uint32_t H = X.Height.load(std::memory_order_relaxed);
    for (std::int32_t L = static_cast<std::int32_t>(H) - 1; L >= 0; --L) {
      const std::uint32_t UL = static_cast<std::uint32_t>(L);
      while (true) {
        const std::uint32_t W = X.Next[UL].readReclaim();
        if ((W & MarkBit) != 0)
          break;
        if (X.Next[UL].compareAndSwapReclaim(W, W | MarkBit))
          break;
      }
    }
  }

  /// Removes the marked node \p XIdx from every lane by one descent
  /// from \p Window, a search window for its key K. Each level's walk
  /// starts at the last node below K that the level above met (at the
  /// top, Window.Preds[H-1], still pinned by find), snips every marked
  /// node it meets, X included, and steps through every node of key K
  /// — X can sit anywhere among them — until it reaches a key above K.
  /// Lanes are sorted, so that walk proves the level no longer links X:
  /// the retire precondition, up to a late lane link (LateLinkSweep). A
  /// marked predecessor, carried or re-read after a failed snip, sends
  /// the level back to the head. Level L's pred and candidate use
  /// hazard slots 2L and 2L+1; the next level's start stays pinned in
  /// a higher slot, or in slot 2L-2 once the walk steps onto key K.
  void sweepOut(std::uint32_t Tid, std::uint32_t XIdx,
                const FindResult &Window) {
    const Key K = node(XIdx).Key.load(std::memory_order_relaxed);
    const std::uint32_t H =
        node(XIdx).Height.load(std::memory_order_relaxed);
    std::uint32_t Below = Window.Preds[H - 1];
    for (std::uint32_t L = H; L-- > 0;) {
      std::uint32_t Pred = Below;
      std::uint32_t W = node(Pred).Next[L].readReclaim();
      while (true) {
        if ((W & MarkBit) != 0) {
          Pred = Below = 0; // the head's lanes are never marked
          W = node(Pred).Next[L].readReclaim();
        }
        const std::uint32_t Cur = W;
        if (Cur == NilIdx)
          break;
        Domain.protect(Tid, 2 * L + 1, &node(Cur));
        const std::uint32_t Seen = node(Pred).Next[L].readReclaim();
        if (Seen != W) {
          W = Seen;
          continue;
        }
        const std::uint32_t NW = node(Cur).Next[L].readReclaim();
        if ((NW & MarkBit) != 0) {
          const std::uint32_t Succ = NW & ~MarkBit;
          W = node(Pred).Next[L].compareAndSwapReclaim(W, Succ)
                  ? Succ
                  : node(Pred).Next[L].readReclaim();
          continue;
        }
        const Key CK = node(Cur).Key.load(std::memory_order_relaxed);
        if (CK > K)
          break;
        if (CK == K && Pred == Below && L > 0)
          Domain.protect(Tid, 2 * L - 2, &node(Below));
        Domain.protect(Tid, 2 * L, &node(Cur));
        Pred = Cur;
        W = NW;
        if (CK < K)
          Below = Cur;
      }
    }
  }

  /// Held by an insert across its lane loop. Should the node have died
  /// by then — an erase can linearize, sweep and retire it while a lane
  /// CAS is pending, which then links it late — the destructor marks
  /// and sweeps it out again, before the insert's pins clear. It runs
  /// on the unwind of an injected crash too, since the lane CASes are
  /// counted accesses; everything it does is uncounted, so no injector
  /// fires inside it.
  class LateLinkSweep {
  public:
    LateLinkSweep(SkipListCore &List, std::uint32_t Tid, std::uint32_t Idx,
                  const FindResult &Window)
        : List(List), Tid(Tid), Idx(Idx), Window(Window) {}
    LateLinkSweep(const LateLinkSweep &) = delete;
    LateLinkSweep &operator=(const LateLinkSweep &) = delete;
    ~LateLinkSweep() {
      Node &X = List.node(Idx);
      if (ValCodec::unpack(X.ValState.readReclaim()).Index == Live)
        return; // its eraser, if any, sweeps after every lane CAS
      List.markLanes(X);
      List.sweepOut(Tid, Idx, Window);
    }

  private:
    SkipListCore &List;
    std::uint32_t Tid;
    std::uint32_t Idx;
    const FindResult &Window;
  };

  /// HazardDomain recycler: the storage returns to the free list.
  static void recycleNode(void *Obj, void *Ctx) {
    auto *Self = static_cast<SkipListCore *>(Ctx);
    SpinGuard G(Self->PoolLock);
    Self->FreeList.push_back(static_cast<Node *>(Obj)->SelfIdx);
  }

  /// Draws a node index: free list first, then a scan of this thread's
  /// own retire backlog, then fresh growth. Entirely uncounted.
  std::uint32_t acquireNode(std::uint32_t Tid) {
    {
      SpinGuard G(PoolLock);
      if (!FreeList.empty()) {
        const std::uint32_t Idx = FreeList.back();
        FreeList.pop_back();
        return Idx;
      }
    }
    // Drain what this thread retired; recycleNode feeds the free list.
    (void)Domain.scan(Tid);
    SpinGuard G(PoolLock);
    if (!FreeList.empty()) {
      const std::uint32_t Idx = FreeList.back();
      FreeList.pop_back();
      return Idx;
    }
    const std::uint32_t Idx = NextFresh++;
    assert(Idx < NodeBudget &&
           "node budget exhausted: live + spares + retire backlog "
           "exceeded its proven bound");
    if (!Dir[Idx / SegmentNodes].load(std::memory_order_acquire))
      installSegment(Idx / SegmentNodes);
    return Idx;
  }

  /// Allocates and publishes segment \p Slot (caller holds PoolLock or
  /// is the constructor).
  void installSegment(std::uint32_t Slot) {
    Segment *S = new Segment;
    for (std::uint32_t I = 0; I < SegmentNodes; ++I)
      S->Nodes[I].SelfIdx = Slot * SegmentNodes + I;
    Dir[Slot].store(S, std::memory_order_release);
  }

  const std::uint32_t Cap;
  const std::uint32_t N;
  const std::uint32_t NodeBudget;
  const std::uint32_t DirSlots;
  /// Mutable: reads publish and clear hazards, and traversal helping
  /// snips dead nodes — all memory-system bookkeeping, not logical
  /// state of the map.
  mutable HazardDomain Domain;
  std::unique_ptr<std::atomic<Segment *>[]> Dir;
  /// Versioned live-key counter: <version:32 | count:32>. Reads are
  /// counted (they gate Full); updates are post-linearization
  /// bookkeeping on the reclamation channel.
  AtomicRegister<std::uint64_t, Policy> LiveCount;
  /// Per-thread speculative node kept across failed link attempts (only
  /// ever touched by its own thread).
  std::vector<std::uint32_t> Spare;
  mutable std::atomic_flag PoolLock = ATOMIC_FLAG_INIT;
  std::vector<std::uint32_t> FreeList; // guarded by PoolLock
  std::uint32_t NextFresh = 0;         // guarded by PoolLock
};

} // namespace csobj

#endif // CSOBJ_CORE_SKIPLISTCORE_H
