//===- core/Results.h - Operation result types ------------------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Result types shared by all concurrent objects in the library. The
/// paper's operations are *total*: they never block the caller; instead
/// they return distinguished values (done / full / empty) and, for
/// abortable objects, the bottom value when aborting under contention.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_CORE_RESULTS_H
#define CSOBJ_CORE_RESULTS_H

#include <cassert>
#include <optional>

namespace csobj {

/// Result of a push / enqueue style operation.
enum class PushResult {
  Done, ///< The value was added.
  Full, ///< The object is at capacity (a total, non-aborted answer).
  Abort ///< The paper's bottom: concurrency detected, no effect took place.
};

/// Result of a pop / dequeue style operation: either a value, or one of
/// the distinguished non-value answers.
template <typename ValueT>
class PopResult {
public:
  enum class Kind {
    Value, ///< A value was removed and is carried in the result.
    Empty, ///< The object was empty (a total, non-aborted answer).
    Abort  ///< The paper's bottom: concurrency detected, no effect.
  };

  static PopResult value(ValueT V) { return PopResult(Kind::Value, V); }
  static PopResult empty() { return PopResult(Kind::Empty, ValueT{}); }
  static PopResult abort() { return PopResult(Kind::Abort, ValueT{}); }

  /// Default-constructs as Empty, so result buffers (the batch wrappers'
  /// scratch arrays) need no explicit fill.
  PopResult() : PopResult(Kind::Empty, ValueT{}) {}

  Kind kind() const { return K; }
  bool isValue() const { return K == Kind::Value; }
  bool isEmpty() const { return K == Kind::Empty; }
  bool isAbort() const { return K == Kind::Abort; }

  /// The removed value. Only meaningful when isValue().
  ValueT value() const {
    assert(K == Kind::Value && "no value carried by this result");
    return V;
  }

  bool operator==(const PopResult &) const = default;

private:
  PopResult(Kind K, ValueT V) : K(K), V(V) {}

  Kind K;
  ValueT V;
};

/// A weak attempt's answer in the form the Figure 3 skeletons take:
/// Abort becomes nullopt (the paper's bottom), any other answer is final.
/// Both take the answer by value: passed by reference, GCC kept the
/// two-word PopResult in memory and spilled it through the stack on the
/// shortcut of every pop.
inline std::optional<PushResult> unlessAbort(PushResult R) {
  if (R == PushResult::Abort)
    return std::nullopt;
  return R;
}

template <typename ValueT>
std::optional<PopResult<ValueT>> unlessAbort(PopResult<ValueT> R) {
  if (R.isAbort())
    return std::nullopt;
  return R;
}

} // namespace csobj

#endif // CSOBJ_CORE_RESULTS_H
