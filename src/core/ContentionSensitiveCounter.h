//===- core/ContentionSensitiveCounter.h - Figure 3 genericity --*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second, minimal instantiation of the Figure 3 skeleton demonstrating
/// that the construction is independent of the object: an abortable
/// fetch-and-add counter (read + C&S; abort when the C&S loses) wrapped
/// into a starvation-free strong counter. A contention-free strong add
/// performs three shared-memory accesses (read CONTENTION, read the
/// counter, C&S the counter).
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_CONTENTIONSENSITIVECOUNTER_H
#define CSOBJ_CORE_CONTENTIONSENSITIVECOUNTER_H

#include "core/ContentionSensitive.h"
#include "core/ContentionSensitiveObject.h"
#include "memory/AtomicRegister.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <tuple>

namespace csobj {

/// Abortable counter: one read + one C&S per attempt.
class AbortableCounter {
public:
  /// Heap owned by the counter: none (one inline register).
  std::size_t heapBytes() const { return 0; }

  /// Adds \p Delta; returns the new value, or nullopt (bottom) when a
  /// concurrent update won the C&S.
  std::optional<std::uint64_t> weakAdd(std::uint64_t Delta) {
    const std::uint64_t Seen = Register.read();
    if (Register.compareAndSwap(Seen, Seen + Delta))
      return Seen + Delta;
    return std::nullopt;
  }

  std::uint64_t valueForTesting() const {
    return Register.peekForTesting();
  }

private:
  AtomicRegister<std::uint64_t> Register{0};
};

/// Starvation-free strong counter via the Figure 3 skeleton. \p SkeletonT
/// defaults to Figure 3; the flat-combining skeleton plugs in the same
/// way (perf/CombiningSlowPath.h).
template <typename Lock = TasLock,
          typename SkeletonT = ContentionSensitive<Lock>>
class ContentionSensitiveCounter
    : public ContentionSensitiveObject<AbortableCounter, SkeletonT> {
  using Base = ContentionSensitiveObject<AbortableCounter, SkeletonT>;

public:
  explicit ContentionSensitiveCounter(std::uint32_t NumThreads)
      : Base(NumThreads, std::tuple{}) {}

  /// Adds \p Delta and returns the new value. Never fails, always
  /// terminates.
  std::uint64_t add(std::uint32_t Tid, std::uint64_t Delta) {
    return this->strong(Tid,
                        [this, Delta] { return this->Weak.weakAdd(Delta); });
  }

  /// Group add: applies Deltas[0..Count) in index order as one batch
  /// (one seam acquisition for the contended remainder). Adds never
  /// report Full/Empty so the whole batch always applies; the running
  /// post-add values land in NewValues[0..Count) when non-null. Returns
  /// Count.
  std::size_t add_all(std::uint32_t Tid, const std::uint64_t *Deltas,
                      std::size_t Count,
                      std::uint64_t *NewValues = nullptr) {
    return this->group(
        Tid, Count,
        [this, Deltas](std::size_t I) { return this->Weak.weakAdd(Deltas[I]); },
        [NewValues](std::size_t K, std::uint64_t V) {
          if (NewValues)
            NewValues[K] = V;
        });
  }

  std::uint64_t valueForTesting() const {
    return this->Weak.valueForTesting();
  }
};

} // namespace csobj

#endif // CSOBJ_CORE_CONTENTIONSENSITIVECOUNTER_H
