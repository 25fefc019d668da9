//===- lincheck/Checker.cpp - Sequential spec implementations ------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "lincheck/Spec.h"

#include <algorithm>

namespace csobj {

namespace {

/// The rule the bounded stack, queue and bag share: a push is Done below
/// capacity and Full only at it; a pop answers Empty only when empty, or
/// a value \p Take removes when it is one the container may hand out
/// now. Every code but Push and Pop belongs to another operation model,
/// which a history recorded against one of these specs must not use.
template <typename ContentsT, typename PutFn, typename TakeFn>
bool applyPushPop(const Operation &Op, const ContentsT &Contents,
                  std::uint32_t Capacity, PutFn Put, TakeFn Take) {
  if (Op.Code == OpCode::Push) {
    if (Op.Result == ResCode::Done) {
      if (Contents.size() >= Capacity)
        return false;
      Put(Op.Arg);
      return true;
    }
    return Op.Result == ResCode::Full && Contents.size() == Capacity;
  }
  if (Op.Code != OpCode::Pop)
    return false;
  if (Op.Result == ResCode::Value)
    return Take(Op.RetValue);
  return Op.Result == ResCode::Empty && Contents.empty();
}

/// The memo key of a container: its elements' bytes in order.
template <typename ContentsT> std::string keyOf(const ContentsT &Contents) {
  std::string Key;
  Key.reserve(Contents.size() * 4);
  for (std::uint32_t V : Contents)
    Key.append(reinterpret_cast<const char *>(&V), sizeof(V));
  return Key;
}

} // namespace

bool BoundedStackSpec::apply(const Operation &Op) {
  return applyPushPop(
      Op, Contents, Capacity, [&](std::uint32_t V) { Contents.push_back(V); },
      [&](std::uint32_t V) {
        if (Contents.empty() || Contents.back() != V)
          return false;
        Contents.pop_back();
        return true;
      });
}

std::string BoundedStackSpec::key() const { return keyOf(Contents); }

bool LinearDequeSpec::apply(const Operation &Op) {
  switch (Op.Code) {
  case OpCode::PushLeft:
    if (Op.Result == ResCode::Done) {
      if (LeftFree == 0)
        return false;
      Contents.push_front(Op.Arg);
      --LeftFree;
      return true;
    }
    return Op.Result == ResCode::Full && LeftFree == 0;
  case OpCode::PushRight:
    if (Op.Result == ResCode::Done) {
      if (rightFree() == 0)
        return false;
      Contents.push_back(Op.Arg);
      return true;
    }
    return Op.Result == ResCode::Full && rightFree() == 0;
  case OpCode::PopLeft:
    if (Op.Result == ResCode::Value) {
      if (Contents.empty() || Contents.front() != Op.RetValue)
        return false;
      Contents.pop_front();
      ++LeftFree;
      return true;
    }
    return Op.Result == ResCode::Empty && Contents.empty();
  case OpCode::PopRight:
    if (Op.Result == ResCode::Value) {
      if (Contents.empty() || Contents.back() != Op.RetValue)
        return false;
      Contents.pop_back();
      return true;
    }
    return Op.Result == ResCode::Empty && Contents.empty();
  case OpCode::Push:
  case OpCode::Pop:
  case OpCode::Get:
  case OpCode::Insert:
  case OpCode::Erase:
  case OpCode::FetchAdd:
    return false; // Wrong operation model for a deque history.
  }
  return false;
}

std::string LinearDequeSpec::key() const {
  std::string Key;
  Key.reserve(Contents.size() * 4 + 4);
  Key.append(reinterpret_cast<const char *>(&LeftFree), sizeof(LeftFree));
  for (std::uint32_t V : Contents)
    Key.append(reinterpret_cast<const char *>(&V), sizeof(V));
  return Key;
}

bool BoundedBagSpec::apply(const Operation &Op) {
  return applyPushPop(
      Op, Contents, Capacity,
      [&](std::uint32_t V) {
        Contents.insert(std::lower_bound(Contents.begin(), Contents.end(), V),
                        V);
      },
      [&](std::uint32_t V) {
        const auto It = std::lower_bound(Contents.begin(), Contents.end(), V);
        if (It == Contents.end() || *It != V)
          return false;
        Contents.erase(It);
        return true;
      });
}

std::string BoundedBagSpec::key() const { return keyOf(Contents); }

bool BoundedQueueSpec::apply(const Operation &Op) {
  return applyPushPop(
      Op, Contents, Capacity, [&](std::uint32_t V) { Contents.push_back(V); },
      [&](std::uint32_t V) {
        if (Contents.empty() || Contents.front() != V)
          return false;
        Contents.pop_front();
        return true;
      });
}

std::string BoundedQueueSpec::key() const { return keyOf(Contents); }

bool OrderedMapSpec::apply(const Operation &Op) {
  const std::uint32_t K = Op.Arg;
  switch (Op.Code) {
  case OpCode::Insert:
    if (Op.Result == ResCode::Done) {
      // Update is always legal; an absent key needs a live slot.
      if (Live.count(K) == 0 && Live.size() >= Capacity)
        return false;
      Live[K] = Op.RetValue;
      return true;
    }
    return Op.Result == ResCode::Full && Live.count(K) == 0 &&
           Live.size() >= Capacity;
  case OpCode::Get: {
    const auto It = Live.find(K);
    if (Op.Result == ResCode::Value)
      return It != Live.end() && It->second == Op.RetValue;
    return Op.Result == ResCode::Empty && It == Live.end();
  }
  case OpCode::Erase: {
    const auto It = Live.find(K);
    if (Op.Result == ResCode::Value) {
      if (It == Live.end() || It->second != Op.RetValue)
        return false;
      Live.erase(It);
      return true;
    }
    return Op.Result == ResCode::Empty && It == Live.end();
  }
  default:
    return false; // a non-map op in a map history is a harness bug
  }
}

std::string OrderedMapSpec::key() const {
  std::string Key;
  Key.reserve(Live.size() * 2 * 4);
  for (const auto &[K, V] : Live) {
    Key.append(reinterpret_cast<const char *>(&K), sizeof(K));
    Key.append(reinterpret_cast<const char *>(&V), sizeof(V));
  }
  return Key;
}

bool FetchAddSpec::apply(const Operation &Op) {
  if (Op.Code != OpCode::FetchAdd || Op.Result != ResCode::Value ||
      Op.RetValue != Sum + Op.Arg)
    return false;
  Sum += Op.Arg;
  return true;
}

std::string FetchAddSpec::key() const {
  return std::string(reinterpret_cast<const char *>(&Sum), sizeof(Sum));
}

} // namespace csobj
