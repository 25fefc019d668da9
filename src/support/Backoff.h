//===- support/Backoff.h - Randomized exponential backoff -------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized exponential backoff, the simplest contention manager the
/// paper's Section 5 alludes to. Used by baseline lock-free structures
/// (Treiber, elimination stack) and available as a retry manager for the
/// non-blocking constructions of Figure 2 and the protected retry of
/// Figure 3. Both classes model the ContentionManager concept
/// (support/ContentionManager.h): onAbort() after a bottom result,
/// onSuccess() after a non-bottom one.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_SUPPORT_BACKOFF_H
#define CSOBJ_SUPPORT_BACKOFF_H

#include "support/SpinWait.h"
#include "support/SplitMix64.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

namespace csobj {

/// Sentinel seed meaning "derive a fresh per-thread, per-instance seed".
/// This is the default: a *constant* default seed put every thread's
/// backoff RNG into the identical SplitMix64 stream, so contending
/// threads drew the same windows in lockstep and re-collided — randomized
/// backoff without the randomization, which systematically skewed every
/// abort-rate and latency measurement under contention.
inline constexpr std::uint64_t DeriveBackoffSeed = ~std::uint64_t{0};

namespace detail {

/// Per-construction seed: the calling thread's id hashed and mixed with a
/// process-wide nonce, whitened through one SplitMix64 step. Two managers
/// constructed on different threads — or constructed twice on the same
/// thread — draw from diverging streams.
inline std::uint64_t deriveBackoffSeed() {
  static std::atomic<std::uint64_t> Nonce{0};
  const std::uint64_t Id =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::uint64_t Salt =
      Nonce.fetch_add(1, std::memory_order_relaxed) + 1;
  SplitMix64 Mix(Id ^ (Salt * 0x9e3779b97f4a7c15ull));
  return Mix();
}

} // namespace detail

/// Capped randomized exponential backoff. Each failure doubles the window
/// (up to \p MaxWindow) and waits a uniformly random number of relax hints
/// drawn from it.
class ExponentialBackoff {
public:
  static constexpr const char *Name = "exp";

  explicit ExponentialBackoff(std::uint32_t MinWindow = 4,
                              std::uint32_t MaxWindow = 1024,
                              std::uint64_t Seed = DeriveBackoffSeed)
      : Window(MinWindow), Floor(MinWindow), Cap(MaxWindow),
        Rng(Seed == DeriveBackoffSeed ? detail::deriveBackoffSeed() : Seed) {}

  /// Waits for a random duration within the current window and widens it.
  void onAbort() {
    const std::uint64_t Steps = Rng.below(Window) + 1;
    for (std::uint64_t I = 0; I < Steps; ++I)
      cpuRelax();
    if (Window < Cap)
      Window *= 2;
    // Beyond the cap we still want to stop burning a shared core: on an
    // oversubscribed host the CAS owner may need our timeslice.
    if (Window >= Cap)
      std::this_thread::yield();
  }

  /// Shrinks the window back to the floor after a success.
  void onSuccess() { Window = Floor; }

  std::uint32_t window() const { return Window; }

  /// Next randomized step count, without the wait (regression-test aid:
  /// seed divergence is asserted on these draws; advances the RNG exactly
  /// as onAbort would).
  std::uint64_t stepDrawForTesting() { return Rng.below(Window) + 1; }

private:
  std::uint32_t Window;
  std::uint32_t Floor;
  std::uint32_t Cap;
  SplitMix64 Rng;
};

/// A no-op retry policy: retry immediately. Matches the literal text of
/// Figure 2 ("repeat ... until res != bottom").
struct NoBackoff {
  static constexpr const char *Name = "none";

  void onAbort() { cpuRelax(); }
  void onSuccess() {}
};

} // namespace csobj

#endif // CSOBJ_SUPPORT_BACKOFF_H
