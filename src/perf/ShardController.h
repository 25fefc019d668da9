//===- perf/ShardController.h - Obs-driven sharding control law -*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control law of the adaptive sharded facade, separated from the
/// facade's mechanics so it can be unit-tested against synthetic
/// snapshots. The controller consumes PathSnapshot *deltas* — the obs
/// layer was built to be exactly this signal (ROADMAP) — and answers two
/// questions per sample:
///
///  * shard count: a high lock-path ratio means the active shards'
///    doorways are absorbing real contention, so activate another shard;
///    a shortcut-dominant delta in which some active shard completed no
///    push or pop means the mask is wider than the load needs, so retire
///    one (down to 1, where the facade's solo cost returns to the paper's
///    exact six-access bound). A mask whose every shard completes work
///    does not shrink: shortcut dominance there is the mask keeping busy
///    threads apart, and retiring a shard would put two of them back on
///    one doorway. So the mask settles, and only lock pressure grows it.
///  * elimination gate: a high pairing rate means rendezvous windows are
///    productive, so widen the spin budget (more time parked for a
///    partner); a negligible rate means parked spins are wasted, so
///    narrow it.
///
/// The controller is pure policy: it owns no synchronization and books no
/// events. The facade samples it from at most one thread at a time (a
/// try-lock tick guard) and applies/attributes the returned actions.
/// Samples smaller than MinDeltaOps are accumulated, not consumed, so a
/// trickle of operations cannot trigger decisions on noise.
///
/// Under CSOBJ_NO_METRICS the snapshot deltas are identically zero and
/// every sample holds: the control loop is inert (its signal is compiled
/// out), while the facade's correctness machinery (grow-on-full,
/// epoch-tagged certificates) is metric-free and unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_PERF_SHARDCONTROLLER_H
#define CSOBJ_PERF_SHARDCONTROLLER_H

#include "obs/PathCounters.h"

#include <cstdint>

namespace csobj {

/// Thresholds of the control law. Defaults are sized for bench/soak
/// cadences; directed tests use aggressive settings (tiny TickOps /
/// MinDeltaOps) to force decisions deterministically.
struct ShardControllerConfig {
  /// Facade operations per thread between that thread's automatic
  /// control ticks; 0 disables auto-ticking (manual tickForTesting only).
  std::uint32_t TickOps = 256;
  /// Minimum op delta a sample must carry before any decision is made;
  /// smaller deltas accumulate into the next sample.
  std::uint64_t MinDeltaOps = 64;
  /// Lock-path fraction of the delta at/above which the mask grows.
  double GrowLockRatio = 0.05;
  /// Shortcut fraction of the delta at/above which the mask shrinks,
  /// provided some active shard completed no operation in the window.
  double ShrinkShortcutRatio = 0.95;
  /// Eliminated fraction at/above which the gate spin budget doubles.
  double WidenPairRatio = 0.05;
  /// Eliminated fraction at/below which the gate spin budget halves.
  double NarrowPairRatio = 0.005;
  /// Clamp bounds for the elimination gate spin budget.
  std::uint32_t MinSpinBudget = 8;
  std::uint32_t MaxSpinBudget = 4096;
};

/// One sample's verdict: at most one mask move and one gate move, and
/// whether the sample was consumed (the next window starts at it) or
/// left to accumulate.
struct ShardActions {
  enum class MaskMove : std::uint8_t { Hold, Grow, Shrink };
  enum class GateMove : std::uint8_t { Hold, Widen, Narrow };
  MaskMove Mask = MaskMove::Hold;
  GateMove Gate = GateMove::Hold;
  bool Consumed = false;
};

class ShardController {
public:
  explicit ShardController(ShardControllerConfig Config = {})
      : Cfg(Config) {}

  const ShardControllerConfig &config() const { return Cfg; }

  /// Consumes the delta between \p Now and the previous consumed sample
  /// and returns the actions the facade should apply. \p BusyShards is
  /// how many of the \p Active shards completed a push or pop since the
  /// previous consumed sample; the mask shrinks only if some did not.
  /// \p Active and \p MaxShards bound the mask moves; \p SpinBudget
  /// bounds the gate moves. Not thread-safe: the facade serializes
  /// callers.
  ShardActions sample(const obs::PathSnapshot &Now, std::uint32_t BusyShards,
                      std::uint32_t Active, std::uint32_t MaxShards,
                      std::uint32_t SpinBudget) {
    ShardActions Act;
    const std::uint64_t DeltaOps = Now.Ops - Last.Ops;
    if (DeltaOps < Cfg.MinDeltaOps)
      return Act; // Too small to act on; keep accumulating.

    const double Ops = static_cast<double>(DeltaOps);
    const double LockRatio =
        static_cast<double>(delta(Now, obs::Path::Lock) +
                            delta(Now, obs::Path::Degraded)) /
        Ops;
    const double ShortcutRatio =
        static_cast<double>(delta(Now, obs::Path::Shortcut)) / Ops;
    const double PairRatio =
        static_cast<double>(delta(Now, obs::Path::Eliminated)) / Ops;
    Last = Now;
    Act.Consumed = true;

    if (LockRatio >= Cfg.GrowLockRatio && Active < MaxShards)
      Act.Mask = ShardActions::MaskMove::Grow;
    else if (ShortcutRatio >= Cfg.ShrinkShortcutRatio && Active > 1 &&
             BusyShards < Active)
      Act.Mask = ShardActions::MaskMove::Shrink;

    if (PairRatio >= Cfg.WidenPairRatio &&
        SpinBudget * 2 <= Cfg.MaxSpinBudget)
      Act.Gate = ShardActions::GateMove::Widen;
    else if (PairRatio <= Cfg.NarrowPairRatio &&
             SpinBudget / 2 >= Cfg.MinSpinBudget)
      Act.Gate = ShardActions::GateMove::Narrow;
    return Act;
  }

  /// The snapshot the next sample's delta will be measured against.
  const obs::PathSnapshot &lastSample() const { return Last; }

private:
  std::uint64_t delta(const obs::PathSnapshot &Now, obs::Path P) const {
    return Now.path(P) - Last.path(P);
  }

  ShardControllerConfig Cfg;
  obs::PathSnapshot Last;
};

} // namespace csobj

#endif // CSOBJ_PERF_SHARDCONTROLLER_H
