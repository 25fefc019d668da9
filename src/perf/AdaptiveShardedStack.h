//===- perf/AdaptiveShardedStack.h - Runtime-sharded Fig. 3 bag -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// N Figure 3 stacks (each with its own TOP, CONTENTION, doorway and
/// lock) behind one push/pop facade, with an elimination array balancing
/// load between them. The shard *mask* adapts: `Active` of the MaxShards
/// constructed shards accept traffic, and a ShardController samples
/// PathSnapshot deltas to grow the mask under lock-path pressure, shrink
/// it back when the delta is shortcut-dominant and some active shard
/// completed no operation, and retune the elimination gate's spin budget
/// from the pairing rate. Threads start probing at their home shard
/// (Tid mod Active), so at low thread counts each shard behaves like a
/// solo Figure 3 stack — six shared accesses, no lock — while at high
/// thread counts contention splits Active ways.
/// At Active == 1 every operation is a plain Figure 3 operation on
/// shard 0 — exactly six shared accesses solo, oracle-checked
/// (perf_test, E18).
///
/// The static N-shard bag is this facade built at the full mask
/// (InitialShards == MaxShards == N) with the controller off
/// (ShardControllerConfig::TickOps == 0). A push grows only below the
/// full mask and nothing ticks, so the mask and the epoch never move; the
/// probe order, both elimination seams and the Full/Empty double collect
/// are then those of a fixed N-shard bag. The configuration words add
/// only loads of plain atomics, which the access oracle does not see. It
/// pays the multi-shard probe on every boundary answer, even solo; E18
/// compares it with the adaptive mask.
///
/// Semantics: a *bag* (pool) with capacity TotalCapacity, not a LIFO
/// stack — pops return some pushed-but-unpopped element (per-shard LIFO
/// order only). This is the standard trade for sharding; the conformance
/// battery checks it against BoundedBagSpec, and stress tests check
/// element conservation. Observable capacity is ALWAYS TotalCapacity: a
/// push that finds every *active* shard full does not certify Full while
/// growth is possible — it activates another shard and re-probes; Full
/// can only be certified at the full mask. Full/Empty answers remain
/// total and linearizable:
///
///  * push returns Full only on an *all-full simultaneous witness*: the
///    packed TOP words of all shards (each carrying a sequence number
///    bumped by every successful operation) are collected twice; if the
///    second collect equals the first word-for-word and every word shows
///    index == k/N, then no successful operation executed anywhere in
///    the window, so there is an instant at which every shard — hence
///    the bag — was full. Eliminated pairs do not bump TOP but are
///    net-zero (a push immediately consumed by a pop), so they cannot
///    invalidate the witness. Pop's Empty answer is symmetric.
///  * a matched elimination pair linearizes push;pop at the matcher's
///    gate read of one shard's TOP showing index < k/N — a bag-not-full
///    witness, since room in any shard is room in the bag (see
///    EliminationRescue in perf/EliminationArray.h; the argument carries
///    over verbatim because a bag push only needs "not full").
///
/// The one elimination array is armed at TWO seams. Every shard is the
/// Figure 3 stack with EliminationRescue over this shared array, so
/// every shard probe — home or not — runs through its skeleton's rescue
/// window: when the shortcut fails (CONTENTION up or a weak attempt
/// aborted) the op tries once to pair with an inverse op *before*
/// competing for that shard's lock, gated on that shard's TOP. Sharing
/// the array makes this the inter-shard balancer: a push homed on one
/// shard pairs with a pop homed on another, under ordinary mixed load,
/// not only at capacity boundaries. The facade seam additionally tries
/// elimination after every active shard answered Full/Empty, before
/// growing or certifying, through the home shard's rescue gated on the
/// home shard's TOP. Early versions armed only the facade seam, and E12
/// measured elimination_exchanges == 0 — the boundary is never reached
/// in a half-full bag, so the balancer never ran.
///
/// Reconfiguration protocol (all configuration words — Active, Epoch,
/// the per-thread tick slots — are plain std::atomics, the same
/// convention as the elimination exchange counter and the metric sinks:
/// control state, not algorithm state, invisible to the access-count
/// oracle, the explorer and the fault injectors; the tick reads each
/// shard's TOP word on the same uncounted channel):
///
///  * tick: each thread counts its own facade ops in a padded slot of
///    its own and samples the controller after every TickOps of them, so
///    no op writes a line another thread's op reads. A shared counter
///    did: it sat beside Active, which every op loads first, and two
///    threads on two shards passed that line back and forth on every op.
///    The tick tells the controller how many active shards completed a
///    push or pop since the last consumed sample — those whose TOP word
///    moved — and the mask shrinks only if some shard did not.
///  * grow: CAS Active up, bump Epoch, book Event::ShardGrow.
///  * shrink: CAS Active down, bump Epoch, book Event::ShardShrink.
///    Retirement is LAZY — it moves no elements, so a crash cannot
///    strand any. Elements left in (or straggler-pushed into) a retired
///    shard are recovered pull-based: the Empty-boundary certificate
///    observes them and pops the retired shard directly; a later grow
///    simply re-activates the shard, stragglers included.
///
/// Certificates: probing is restricted to the active mask, and the
/// Full/Empty double collect is epoch-tagged — the witness reads Epoch
/// before the first collect and re-checks it after the second, so a
/// concurrent grow/shrink forces a re-probe instead of a stale
/// certificate. The collect itself spans the full shard array: Full is
/// only certified at the full mask (where mask == array), and Empty must
/// prove even retired shards hold no stragglers — two equal collects of
/// all seq-carrying TOP words certify one instant at which the whole bag
/// was empty, which a mask-only collect cannot do while retirement is
/// lazy (a straggler in a retired shard would be invisible to it).
///
/// Progress: each shard operation is starvation-free (Theorem 1 applies
/// per shard), but the outer probe loop restarts when the double collect
/// detects movement or reconfiguration, so the facade as a whole is only
/// obstruction-free at the boundary cases — against a storm of
/// successful operations on other shards, a Full/Empty answer can be
/// deferred indefinitely. In return, non-boundary operations never help
/// and never wait on other shards. DESIGN.md places this on the
/// progress-downgrade lattice ("Adaptive sharding control loop").
/// Failed boundary rounds back off (randomized exponential, yielding
/// past the cap): on an oversubscribed host the chaser's hot spin is
/// precisely what starves the operations that would quiesce the bag, so
/// surrendering the timeslice is both a courtesy and the fastest route
/// to a stable witness. The soak harness's per-op watchdog caught the
/// unthrottled loop chasing a churning near-boundary bag past its
/// deadline; the backoff is off the solo path (first probe succeeds).
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERF_ADAPTIVESHARDEDSTACK_H
#define CSOBJ_PERF_ADAPTIVESHARDEDSTACK_H

#include "core/ContentionSensitiveStack.h"
#include "obs/PathCounters.h"
#include "perf/EliminationArray.h"
#include "perf/ShardController.h"
#include "support/Backoff.h"
#include "support/CacheLine.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>

namespace csobj {

/// \tparam MaxShards upper bound of the active-shard mask; all shards
/// are constructed up front (capacity TotalCapacity / MaxShards each)
/// and activation is a mask move, never an allocation.
/// Remaining parameters as ContentionSensitiveStack.
template <std::uint32_t MaxShards = 8, typename Config = Compact64,
          typename Lock = TasLock, ContentionManager Manager = NoBackoff,
          typename Policy = DefaultRegisterPolicy>
class AdaptiveShardedStack {
public:
  /// One shard: the Figure 3 stack whose rescue shares the facade's
  /// elimination array.
  using Shard = ContentionSensitiveStack<
      Config, Lock, Manager, Policy, ContentionSensitive<Lock, Manager, Policy>,
      FlatStore, EliminationRescue<Policy, EliminationArrayT<Policy> &>>;
  using Value = typename Config::Value;
  using RegisterPolicy = Policy;
  /// One thread's facade-op count toward its next control tick, alone on
  /// its cache line.
  using TickSlot = CacheLinePadded<std::atomic<std::uint32_t>>;

  static_assert(MaxShards >= 1, "need at least one shard");

  /// \p TotalCapacity must divide evenly across MaxShards and give each
  /// shard at least one slot; \p InitialShards must lie in
  /// [1, MaxShards]. Violations throw std::invalid_argument — hard
  /// checks, not asserts, because an NDEBUG build would otherwise
  /// silently construct a zero-capacity or capacity-losing bag.
  AdaptiveShardedStack(std::uint32_t NumThreads, std::uint32_t TotalCapacity,
                       std::uint32_t InitialShards = 1,
                       std::uint32_t SlotCount = 4,
                       std::uint32_t SpinBudget = 64,
                       ShardControllerConfig Controller = {})
      : N(NumThreads), PerShard(checkedPerShard(TotalCapacity)),
        Elim(SlotCount, SpinBudget), Ctl(Controller),
        Ticks(obs::MetricsEnabled && Controller.TickOps != 0
                  ? std::make_unique<TickSlot[]>(NumThreads)
                  : nullptr),
        Active(checkedInitial(InitialShards)) {
    for (std::uint32_t S = 0; S < MaxShards; ++S) {
      Shards[S].emplace(NumThreads, PerShard, Elim);
      SeenTop[S] = shard(S).abortable().controlReadTopWord();
    }
  }

  /// Bag push: Done, or Full only at the full mask on an epoch-stable
  /// all-full simultaneous witness. An all-active-full probe below the
  /// full mask grows instead of certifying, so observable capacity is
  /// always TotalCapacity.
  PushResult push(std::uint32_t Tid, Value V) {
    const PushResult Res = pushImpl(Tid, V);
    maybeTick(Tid);
    return Res;
  }

  /// Bag pop: some element, or Empty on an epoch-stable all-empty
  /// witness spanning active and retired shards alike.
  PopResult<Value> pop(std::uint32_t Tid) {
    const PopResult<Value> Res = popImpl(Tid);
    maybeTick(Tid);
    return Res;
  }

  /// Group push over the active mask: each active shard applies its
  /// chunk through its own group seam (one lock tenure per shard
  /// touched, not per element). Leftovers (every active shard answered
  /// Full mid-batch) fall back to the facade's per-element push, so
  /// elimination, growth and the all-full certificate still apply;
  /// stops at the first total Full answer. Returns the number pushed (a
  /// prefix of Vs lands in the bag).
  std::size_t push_all(std::uint32_t Tid, const Value *Vs,
                       std::size_t Count) {
    const std::uint32_t A = activeShards();
    const std::uint32_t Home = Tid % A;
    std::size_t Pushed = 0;
    for (std::uint32_t I = 0; I < A && Pushed < Count; ++I)
      Pushed += shard((Home + I) % A)
                    .push_all(Tid, Vs + Pushed, Count - Pushed);
    const std::size_t SeamPushed = Pushed;
    while (Pushed < Count && push(Tid, Vs[Pushed]) == PushResult::Done)
      ++Pushed;
    bookBatchFallback(Tid, Pushed - SeamPushed);
    return Pushed;
  }

  /// Group pop over the active mask with the facade's per-element
  /// fallback (which also recovers retired-shard stragglers at the Empty
  /// boundary). Returns the number of values written to Out.
  std::size_t pop_all(std::uint32_t Tid, Value *Out, std::size_t MaxCount) {
    const std::uint32_t A = activeShards();
    const std::uint32_t Home = Tid % A;
    std::size_t Got = 0;
    for (std::uint32_t I = 0; I < A && Got < MaxCount; ++I)
      Got += shard((Home + I) % A).pop_all(Tid, Out + Got, MaxCount - Got);
    const std::size_t SeamGot = Got;
    while (Got < MaxCount) {
      const PopResult<Value> Res = pop(Tid);
      if (!Res.isValue())
        break;
      Out[Got++] = Res.value();
    }
    bookBatchFallback(Tid, Got - SeamGot);
    return Got;
  }

  /// Drains the bag: pop_all bounded by the caller's buffer.
  std::size_t drain(std::uint32_t Tid, Value *Out, std::size_t MaxOut) {
    return pop_all(Tid, Out, MaxOut);
  }

  //===--------------------------------------------------------------===//
  // Control plane
  //===--------------------------------------------------------------===//

  std::uint32_t activeShards() const {
    return Active.load(std::memory_order_relaxed);
  }
  static constexpr std::uint32_t maxShards() { return MaxShards; }

  /// Reconfiguration epoch: bumped by every grow/shrink. Test aid (the
  /// certificates read it internally).
  std::uint64_t reconfigEpoch() const {
    return Epoch.load(std::memory_order_relaxed);
  }

  /// Forces one control tick now, regardless of the op cadence.
  void tickForTesting(std::uint32_t Tid) { tick(Tid); }

  /// Direct mask moves for directed tests (same booking as the control
  /// loop's moves).
  bool growForTesting(std::uint32_t Tid) { return grow(Tid); }
  bool shrinkForTesting(std::uint32_t Tid) { return shrink(Tid); }

  const ShardController &controller() const { return Ctl; }

  /// Test knob: every shard probe tries the elimination array first
  /// (its rescue's force-first knob), so a directed schedule can force an
  /// exchange without racing the shards.
  void forceBalancerForTesting(bool Force) {
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      shard(S).rescue().forceFirstForTesting(Force);
  }

  /// Exposes the home shard's slot-hint stream so the two-instance
  /// divergence regression can observe it without racing the rendezvous
  /// machinery.
  std::uint64_t slotHintForTesting(std::uint32_t Tid) {
    return shard(Tid % activeShards()).rescue().slotHintForTesting(Tid);
  }

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  std::uint32_t capacity() const { return PerShard * MaxShards; }
  std::uint32_t shardCapacity() const { return PerShard; }
  std::uint32_t numThreads() const { return N; }

  /// Sum of ALL shard sizes, retired included (stragglers are still
  /// elements of the bag); exact when quiescent.
  std::uint32_t sizeForTesting() const {
    std::uint32_t Total = 0;
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      Total += shardAt(S).sizeForTesting();
    return Total;
  }

  Shard &shard(std::uint32_t S) { return *Shards[S]; }
  EliminationArrayT<Policy> &eliminationArray() { return Elim; }
  std::uint64_t eliminationExchangesForTesting() const {
    return Elim.exchangesForTesting();
  }

  /// Facade sink + every shard skeleton, retired shards included (their
  /// history must stay counted across reconfigurations). One facade op
  /// may enter several shard skeletons, so Ops here is >= the harness's
  /// op count; the conservation law (Ops == Σ paths) still holds because
  /// each sink's entries and exits balance independently.
  obs::PathSnapshot pathSnapshot() const {
    obs::PathSnapshot Total = Sink.snapshot();
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      Total += shardAt(S).pathSnapshot();
    return Total;
  }

  /// Resident bytes: header (which embeds the shard objects), shard
  /// heaps, balancer slots, facade sink blocks, tick slots.
  std::size_t footprintBytes() const {
    std::size_t Bytes = sizeof(*this) + Elim.heapBytes() + Sink.heapBytes() +
                        (Ticks ? std::size_t{N} * sizeof(TickSlot) : 0);
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      Bytes += shardAt(S).footprintBytes() - sizeof(Shard);
    return Bytes;
  }

private:
  const Shard &shardAt(std::uint32_t S) const { return *Shards[S]; }

  static std::uint32_t checkedPerShard(std::uint32_t TotalCapacity) {
    if (TotalCapacity % MaxShards != 0)
      throw std::invalid_argument(
          "AdaptiveShardedStack: capacity must divide evenly across shards");
    if (TotalCapacity / MaxShards == 0)
      throw std::invalid_argument(
          "AdaptiveShardedStack: each shard needs capacity >= 1");
    return TotalCapacity / MaxShards;
  }

  static std::uint32_t checkedInitial(std::uint32_t InitialShards) {
    if (InitialShards < 1 || InitialShards > MaxShards)
      throw std::invalid_argument(
          "AdaptiveShardedStack: initial shard count outside [1, MaxShards]");
    return InitialShards;
  }

  PushResult pushImpl(std::uint32_t Tid, Value V) {
    std::optional<ExponentialBackoff> Boundary;
    while (true) {
      const std::uint32_t A = activeShards();
      const std::uint32_t Home = Tid % A;
      for (std::uint32_t I = 0; I < A; ++I)
        if (shard((Home + I) % A).push(Tid, V) == PushResult::Done)
          return PushResult::Done;
      // Every active shard answered Full. Pair with a concurrent pop if
      // one is parked (the boundary seam: the home shard's rescue, run
      // outside its skeleton, so this sink books the op), else grow the
      // mask (never certify Full while growth is possible — observable
      // capacity is TotalCapacity).
      Shard &H = shard(Home);
      if (const auto Res = Shard::Rescue::alone(
              Tid, Sink, H.rescue().give(Tid, H.abortable(), Sink, V)))
        return *Res;
      if (A < MaxShards) {
        grow(Tid);
        continue;
      }
      std::uint32_t Straggler = 0;
      if (certify(/*WantFull=*/true, Straggler) == Witness::Certified)
        return PushResult::Full;
      // Movement or reconfiguration raced the witness: re-probe after a
      // randomized backoff (the boundary witness is only
      // obstruction-free, and hot-spinning through the churn is what
      // starves the ops that would quiesce the bag). The backoff is
      // built lazily: the solo path never gets here, and construction
      // draws a per-thread RNG seed.
      if (!Boundary)
        Boundary.emplace();
      Boundary->onAbort();
    }
  }

  PopResult<Value> popImpl(std::uint32_t Tid) {
    std::optional<ExponentialBackoff> Boundary;
    while (true) {
      const std::uint32_t A = activeShards();
      const std::uint32_t Home = Tid % A;
      for (std::uint32_t I = 0; I < A; ++I) {
        const PopResult<Value> Res = shard((Home + I) % A).pop(Tid);
        if (Res.isValue())
          return Res;
      }
      Shard &H = shard(Home);
      if (const auto Res = Shard::Rescue::alone(
              Tid, Sink, H.rescue().take(Tid, H.abortable(), Sink)))
        return *Res;
      std::uint32_t Straggler = 0;
      switch (certify(/*WantFull=*/false, Straggler)) {
      case Witness::Certified:
        return PopResult<Value>::empty();
      case Witness::Straggler: {
        // A retired shard holds elements (lazy retirement): recover
        // directly — this is the pull-based drain, so there is no
        // retirement window a crash could strand elements in.
        const PopResult<Value> Res = shard(Straggler).pop(Tid);
        if (Res.isValue())
          return Res;
        break;
      }
      case Witness::Moved:
        break;
      }
      if (!Boundary)
        Boundary.emplace();
      Boundary->onAbort();
    }
  }

  /// Books \p Fallback batch elements that landed through the facade's
  /// per-element boundary loop instead of a shard group seam. The shard
  /// skeletons already retired those entries on their own (non-batched)
  /// paths, so without this the group's path_batched / group-size
  /// histogram under-report exactly the fallback suffix; one facade-level
  /// group booking restores "every element of a group API call is
  /// counted as group work" while keeping each sink's conservation law
  /// intact (ops and paths are added in balance).
  void bookBatchFallback(std::uint32_t Tid, std::size_t Fallback) {
    if (Fallback == 0)
      return;
    Sink.onOp(Tid, Fallback);
    Sink.onPath(Tid, obs::Path::Batched, Fallback);
    Sink.onBatch(Tid, Fallback);
  }

  enum class Witness : std::uint8_t { Certified, Moved, Straggler };

  /// The epoch-tagged double collect. WantFull certifies only at the
  /// full mask (callers grow below it), so Want == PerShard everywhere;
  /// !WantFull requires every shard — active or retired — to show 0.
  /// A retired shard showing elements reports Straggler (with the shard
  /// index in \p StragglerShard) so the caller can recover them. Two
  /// equal collects of the seq-carrying TOP words certify a single
  /// instant; an Epoch change across the witness voids it (the mask the
  /// probe ran against is stale) and forces a re-probe.
  Witness certify(bool WantFull, std::uint32_t &StragglerShard) {
    const std::uint64_t E1 = Epoch.load();
    const std::uint32_t A = Active.load();
    if (WantFull && A < MaxShards)
      return Witness::Moved;
    std::array<TopWord, MaxShards> First;
    for (std::uint32_t S = 0; S < MaxShards; ++S) {
      const TopWord W = shard(S).abortable().readTopWord();
      const std::uint32_t Idx = decodeIndex(W);
      const std::uint32_t Want = WantFull ? PerShard : 0;
      if (Idx != Want) {
        if (!WantFull && S >= A && Idx != 0) {
          StragglerShard = S;
          return Witness::Straggler;
        }
        return Witness::Moved;
      }
      First[S] = W;
    }
    for (std::uint32_t S = 0; S < MaxShards; ++S)
      if (shard(S).abortable().readTopWord() != First[S])
        return Witness::Moved;
    if (Epoch.load() != E1)
      return Witness::Moved;
    return Witness::Certified;
  }

  bool grow(std::uint32_t Tid) {
    std::uint32_t A = Active.load();
    while (A < MaxShards) {
      if (Active.compare_exchange_weak(A, A + 1)) {
        Epoch.fetch_add(1);
        Sink.onEvent(Tid, obs::Event::ShardGrow);
        return true;
      }
    }
    return false;
  }

  /// Lazy retirement: publishes the narrower mask and bumps the epoch.
  /// Deliberately moves NO elements — see file comment.
  bool shrink(std::uint32_t Tid) {
    std::uint32_t A = Active.load();
    while (A > 1) {
      if (Active.compare_exchange_weak(A, A - 1)) {
        Epoch.fetch_add(1);
        Sink.onEvent(Tid, obs::Event::ShardShrink);
        return true;
      }
    }
    return false;
  }

  /// Op-cadence auto-tick: the caller's own slot counts its facade ops
  /// and it ticks after every TickOps of them. Only thread Tid writes
  /// slot Tid, so a load and a store suffice, and like every other
  /// configuration word the slot adds nothing to the solo access count.
  void maybeTick(std::uint32_t Tid) {
    if (!Ticks)
      return;
    std::atomic<std::uint32_t> &Count = Ticks[Tid].value();
    const std::uint32_t Next = Count.load(std::memory_order_relaxed) + 1;
    const bool Due = Next == Ctl.config().TickOps;
    Count.store(Due ? 0 : Next, std::memory_order_relaxed);
    if (Due)
      tick(Tid);
  }

  /// One control sample + application. Concurrent tickers skip (the
  /// controller's delta state wants a single writer); everything inside
  /// runs on plain atomics, metric reads and control-plane TOP reads, so
  /// a tick cannot raise a simulated crash or perturb a counted
  /// operation. Each sink is read once (pathSnapshot) and each TOP word
  /// once.
  void tick(std::uint32_t Tid) {
    bool Busy = false;
    if (!TickBusy.compare_exchange_strong(Busy, true,
                                          std::memory_order_acquire))
      return;
    const std::uint32_t A = activeShards();
    std::array<TopWord, MaxShards> Tops{};
    std::uint32_t Moved = 0;
    for (std::uint32_t S = 0; S < MaxShards; ++S) {
      Tops[S] = shard(S).abortable().controlReadTopWord();
      Moved += S < A && Tops[S] != SeenTop[S];
    }
    const ShardActions Act =
        Ctl.sample(pathSnapshot(), Moved, A, MaxShards, Elim.spinBudget());
    if (Act.Consumed)
      SeenTop = Tops;
    switch (Act.Mask) {
    case ShardActions::MaskMove::Grow:
      grow(Tid);
      break;
    case ShardActions::MaskMove::Shrink:
      shrink(Tid);
      break;
    case ShardActions::MaskMove::Hold:
      break;
    }
    switch (Act.Gate) {
    case ShardActions::GateMove::Widen:
      Elim.setSpinBudget(Elim.spinBudget() * 2);
      Sink.onEvent(Tid, obs::Event::GateWiden);
      break;
    case ShardActions::GateMove::Narrow:
      Elim.setSpinBudget(Elim.spinBudget() / 2);
      Sink.onEvent(Tid, obs::Event::GateNarrow);
      break;
    case ShardActions::GateMove::Hold:
      break;
    }
    TickBusy.store(false, std::memory_order_release);
  }

  using TopC = typename AbortableStack<Config, Policy>::TopC;
  using TopWord = typename TopC::Word;

  static std::uint32_t decodeIndex(TopWord W) {
    return static_cast<std::uint32_t>(TopC::unpack(W).Index);
  }

  const std::uint32_t N;
  const std::uint32_t PerShard;
  std::array<std::optional<Shard>, MaxShards> Shards;
  EliminationArrayT<Policy> Elim;
  ShardController Ctl;
  /// Per-thread tick slots; none when nothing ticks on its own (TickOps
  /// == 0, or CSOBJ_NO_METRICS, where the controller has no signal).
  const std::unique_ptr<TickSlot[]> Ticks;
  /// Every shard's TOP word at the last consumed sample (tick-guarded).
  std::array<TopWord, MaxShards> SeenTop{};
  std::atomic<std::uint32_t> Active;
  std::atomic<std::uint64_t> Epoch{0};
  std::atomic<bool> TickBusy{false};
  [[no_unique_address]] mutable obs::MetricSink Sink{N};
};

} // namespace csobj

#endif // CSOBJ_PERF_ADAPTIVESHARDEDSTACK_H
