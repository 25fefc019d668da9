//===- lincheck/Spec.h - Sequential specifications --------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sequential specifications of the objects under test, in the form the
/// linearizability checker consumes: a value-type state plus an apply
/// function that checks one operation's result against the state and
/// advances it. Both objects are *bounded* and *total* exactly as in the
/// paper: push on a full object answers "full", pop on an empty object
/// answers "empty" (Section 1.1).
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_LINCHECK_SPEC_H
#define CSOBJ_LINCHECK_SPEC_H

#include "lincheck/History.h"

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace csobj {

/// Sequential bounded LIFO stack.
class BoundedStackSpec {
public:
  explicit BoundedStackSpec(std::uint32_t Capacity) : Capacity(Capacity) {}

  /// If \p Op is legal in the current state, applies it and returns true;
  /// otherwise leaves the state unchanged and returns false.
  bool apply(const Operation &Op);

  /// Canonical serialization for memoization keys.
  std::string key() const;

  std::size_t size() const { return Contents.size(); }

private:
  std::uint32_t Capacity;
  std::vector<std::uint32_t> Contents;
};

/// Sequential bounded double-ended queue. Push/PopLeft and
/// Push/PopRight act on the respective ends; the plain Push/Pop codes
/// are rejected (a history mixing models is a bug in the harness).
class BoundedDequeSpec {
public:
  explicit BoundedDequeSpec(std::uint32_t Capacity) : Capacity(Capacity) {}

  bool apply(const Operation &Op);
  std::string key() const;
  std::size_t size() const { return Contents.size(); }

private:
  std::uint32_t Capacity;
  std::deque<std::uint32_t> Contents;
};

/// Sequential specification of the *linear* (non-circular) HLM deque:
/// the array cannot shift the value block, so each end reports Full when
/// its own free slots run out. State = contents + how many free slots
/// remain on the left; the right side is derived.
class LinearDequeSpec {
public:
  LinearDequeSpec(std::uint32_t Capacity, std::uint32_t InitialLeftSlots)
      : Capacity(Capacity), LeftFree(InitialLeftSlots) {}

  bool apply(const Operation &Op);
  std::string key() const;
  std::size_t size() const { return Contents.size(); }
  std::uint32_t rightFree() const {
    return Capacity - static_cast<std::uint32_t>(Contents.size()) -
           LeftFree;
  }

private:
  std::uint32_t Capacity;
  std::uint32_t LeftFree;
  std::deque<std::uint32_t> Contents;
};

/// Sequential bounded *bag* (pool): pop returns some pushed-but-unpopped
/// element, with no ordering constraint. This is the specification of
/// the sharded stack (perf/AdaptiveShardedStack.h), whose pops follow
/// per-shard LIFO order but not a global one. State = sorted multiset, which is
/// also its canonical memo key.
class BoundedBagSpec {
public:
  explicit BoundedBagSpec(std::uint32_t Capacity) : Capacity(Capacity) {}

  bool apply(const Operation &Op);
  std::string key() const;
  std::size_t size() const { return Contents.size(); }

private:
  std::uint32_t Capacity;
  std::vector<std::uint32_t> Contents; // kept sorted
};

/// Sequential bounded FIFO queue.
class BoundedQueueSpec {
public:
  explicit BoundedQueueSpec(std::uint32_t Capacity) : Capacity(Capacity) {}

  bool apply(const Operation &Op);
  std::string key() const;
  std::size_t size() const { return Contents.size(); }

private:
  std::uint32_t Capacity;
  std::deque<std::uint32_t> Contents;
};

/// Sequential bounded ordered map whose capacity counts *live* keys
/// (erase frees the key's slot — core/SkipListCore.h physically removes
/// and recycles erased nodes). Insert of a live key is always Done
/// (update); insert of an absent key is Done below capacity and Full at
/// it. Get/Erase answer the live mapping or Empty.
class OrderedMapSpec {
public:
  explicit OrderedMapSpec(std::uint32_t Capacity) : Capacity(Capacity) {}

  bool apply(const Operation &Op);
  std::string key() const;
  std::size_t size() const { return Live.size(); }

private:
  std::uint32_t Capacity;
  std::map<std::uint32_t, std::uint32_t> Live;
};

} // namespace csobj

#endif // CSOBJ_LINCHECK_SPEC_H
