//===- tests/support_test.cpp - support/ substrate unit tests ------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "support/Backoff.h"
#include "support/BitPack.h"
#include "support/CacheLine.h"
#include "support/SpinWait.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace csobj {
namespace {

//===----------------------------------------------------------------------===
// BitPack
//===----------------------------------------------------------------------===

TEST(BitPackTest, LowBitMask) {
  EXPECT_EQ(lowBitMask<std::uint64_t>(1), 0x1u);
  EXPECT_EQ(lowBitMask<std::uint64_t>(16), 0xFFFFu);
  EXPECT_EQ(lowBitMask<std::uint64_t>(32), 0xFFFFFFFFull);
  EXPECT_EQ(lowBitMask<std::uint64_t>(64), ~std::uint64_t{0});
  EXPECT_EQ(lowBitMask<std::uint32_t>(32), ~std::uint32_t{0});
}

TEST(BitPackTest, BitFieldRoundTrip) {
  using F = BitField<std::uint64_t, 16, 16>;
  EXPECT_EQ(F::maxValue(), 0xFFFFu);
  std::uint64_t Word = 0;
  Word = F::set(Word, 0xABCD);
  EXPECT_EQ(F::get(Word), 0xABCDu);
  // Neighbouring bits untouched.
  EXPECT_EQ(Word & 0xFFFFu, 0u);
  EXPECT_EQ(Word >> 32, 0u);
}

TEST(BitPackTest, BitFieldSetPreservesOthers) {
  using Low = BitField<std::uint64_t, 0, 8>;
  using High = BitField<std::uint64_t, 8, 8>;
  std::uint64_t Word = Low::encode(0x12) | High::encode(0x34);
  Word = Low::set(Word, 0xFF);
  EXPECT_EQ(Low::get(Word), 0xFFu);
  EXPECT_EQ(High::get(Word), 0x34u);
}

TEST(BitPackTest, PackedTripleRoundTrip) {
  using T = PackedTriple<std::uint64_t, 16, 16, 32>;
  const std::uint64_t Word = T::pack(0x1234, 0x5678, 0x9ABCDEF0);
  EXPECT_EQ(T::a(Word), 0x1234u);
  EXPECT_EQ(T::b(Word), 0x5678u);
  EXPECT_EQ(T::c(Word), 0x9ABCDEF0u);
}

TEST(BitPackTest, PackedTripleExtremes) {
  using T = PackedTriple<std::uint64_t, 16, 16, 32>;
  const std::uint64_t Word = T::pack(0xFFFF, 0xFFFF, 0xFFFFFFFF);
  EXPECT_EQ(T::a(Word), 0xFFFFu);
  EXPECT_EQ(T::b(Word), 0xFFFFu);
  EXPECT_EQ(T::c(Word), 0xFFFFFFFFu);
  EXPECT_EQ(Word, ~std::uint64_t{0});
}

TEST(BitPackTest, PackedTriple128) {
  using T = PackedTriple<unsigned __int128, 32, 32, 64>;
  const unsigned __int128 Word =
      T::pack(0xDEADBEEF, 0xCAFEBABE, 0x0123456789ABCDEFull);
  EXPECT_EQ(static_cast<std::uint64_t>(T::a(Word)), 0xDEADBEEFull);
  EXPECT_EQ(static_cast<std::uint64_t>(T::b(Word)), 0xCAFEBABEull);
  EXPECT_EQ(static_cast<std::uint64_t>(T::c(Word)), 0x0123456789ABCDEFull);
}

TEST(BitPackTest, PackedPairRoundTrip) {
  using P = PackedPair<std::uint64_t, 32, 32>;
  const std::uint64_t Word = P::pack(7, 0xFFFF0000);
  EXPECT_EQ(P::a(Word), 7u);
  EXPECT_EQ(P::b(Word), 0xFFFF0000u);
}

//===----------------------------------------------------------------------===
// SplitMix64
//===----------------------------------------------------------------------===

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A(), B());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A() == B())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(SplitMix64Test, BelowStaysInRange) {
  SplitMix64 Rng(7);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(Rng.below(10), 10u);
}

TEST(SplitMix64Test, BelowCoversRange) {
  SplitMix64 Rng(7);
  std::set<std::uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(Rng.below(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(SplitMix64Test, ChanceExtremes) {
  SplitMix64 Rng(3);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(Rng.chance(0, 100));
    EXPECT_TRUE(Rng.chance(100, 100));
  }
}

TEST(SplitMix64Test, ChanceRoughlyUniform) {
  SplitMix64 Rng(11);
  int Hits = 0;
  const int Trials = 20000;
  for (int I = 0; I < Trials; ++I)
    if (Rng.chance(25, 100))
      ++Hits;
  EXPECT_NEAR(static_cast<double>(Hits) / Trials, 0.25, 0.02);
}

TEST(SplitMix64Test, SplitDecorrelatesWorkers) {
  SplitMix64 Base(99);
  SplitMix64 W0 = Base.split(0);
  SplitMix64 W1 = Base.split(1);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (W0() == W1())
      ++Same;
  EXPECT_EQ(Same, 0);
}

//===----------------------------------------------------------------------===
// SpinWait / Backoff
//===----------------------------------------------------------------------===

TEST(SpinWaitTest, EscalationCountsUp) {
  SpinWait Waiter;
  for (std::uint32_t I = 0; I < 10; ++I)
    Waiter.once();
  EXPECT_EQ(Waiter.spinCount(), 10u);
  Waiter.reset();
  EXPECT_EQ(Waiter.spinCount(), 0u);
}

TEST(SpinWaitTest, SpinUntilObservesOtherThread) {
  std::atomic<bool> Flag{false};
  std::thread Setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Flag.store(true);
  });
  spinUntil([&] { return Flag.load(); });
  EXPECT_TRUE(Flag.load());
  Setter.join();
}

TEST(BackoffTest, WindowGrowsAndResets) {
  ExponentialBackoff Backoff(4, 64);
  EXPECT_EQ(Backoff.window(), 4u);
  Backoff.onAbort();
  EXPECT_EQ(Backoff.window(), 8u);
  Backoff.onAbort();
  EXPECT_EQ(Backoff.window(), 16u);
  Backoff.onSuccess();
  EXPECT_EQ(Backoff.window(), 4u);
}

TEST(BackoffTest, WindowCapped) {
  ExponentialBackoff Backoff(4, 64);
  for (int I = 0; I < 20; ++I)
    Backoff.onAbort();
  EXPECT_LE(Backoff.window(), 64u);
}

namespace {

/// First \p Count randomized step draws of a default-seeded manager. A
/// wide fixed window (no onAbort in between) makes an accidental
/// full-sequence collision between independent streams astronomically
/// unlikely (2^-20 per draw).
std::vector<std::uint64_t> backoffDraws(ExponentialBackoff &Backoff,
                                        std::size_t Count) {
  std::vector<std::uint64_t> Draws;
  for (std::size_t I = 0; I < Count; ++I)
    Draws.push_back(Backoff.stepDrawForTesting());
  return Draws;
}

} // namespace

TEST(BackoffTest, DefaultSeedDivergesAcrossThreads) {
  // Regression: the seed default used to be one shared constant, which
  // put every thread's backoff RNG into the identical SplitMix64 stream
  // — contending threads drew the same windows in lockstep and
  // re-collided, defeating the randomization the manager exists for.
  // Two managers default-constructed on different threads must draw
  // diverging step sequences.
  constexpr std::uint32_t Wide = 1u << 20;
  constexpr std::size_t Draws = 8;
  std::vector<std::uint64_t> A, B;
  std::thread T1([&] {
    ExponentialBackoff Backoff(Wide, Wide);
    A = backoffDraws(Backoff, Draws);
  });
  std::thread T2([&] {
    ExponentialBackoff Backoff(Wide, Wide);
    B = backoffDraws(Backoff, Draws);
  });
  T1.join();
  T2.join();
  EXPECT_NE(A, B) << "two threads' default-seeded backoff streams are "
                     "identical: the lockstep-seed bug is back";
}

TEST(BackoffTest, DefaultSeedDivergesAcrossInstances) {
  // Even on ONE thread, two default-seeded instances must differ (the
  // per-instance nonce): contention-sensitive objects construct one
  // manager per operation site, often from the same thread.
  constexpr std::uint32_t Wide = 1u << 20;
  ExponentialBackoff First(Wide, Wide);
  ExponentialBackoff Second(Wide, Wide);
  EXPECT_NE(backoffDraws(First, 8), backoffDraws(Second, 8));
}

TEST(BackoffTest, ExplicitSeedStaysDeterministic) {
  // Directed tests rely on reproducible backoff; passing an explicit
  // seed must keep two managers in the identical stream.
  constexpr std::uint32_t Wide = 1u << 20;
  ExponentialBackoff First(Wide, Wide, /*Seed=*/42);
  ExponentialBackoff Second(Wide, Wide, /*Seed=*/42);
  EXPECT_EQ(backoffDraws(First, 8), backoffDraws(Second, 8));
}

//===----------------------------------------------------------------------===
// CacheLine
//===----------------------------------------------------------------------===

TEST(CacheLineTest, PaddedHasFullLineSize) {
  EXPECT_GE(sizeof(CacheLinePadded<int>), CacheLineSize);
  EXPECT_EQ(alignof(CacheLinePadded<int>), CacheLineSize);
}

TEST(CacheLineTest, AdjacentElementsDoNotShareLines) {
  CacheLinePadded<int> Two[2];
  const auto A = reinterpret_cast<std::uintptr_t>(&Two[0].value());
  const auto B = reinterpret_cast<std::uintptr_t>(&Two[1].value());
  EXPECT_GE(B - A, CacheLineSize);
}

} // namespace
} // namespace csobj
