//===- runtime/Stats.cpp --------------------------------------------------===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//

#include "runtime/Stats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace csobj {

LatencyHistogram::LatencyHistogram()
    : Buckets(static_cast<std::size_t>(Exponents) * SubBuckets, 0) {}

unsigned LatencyHistogram::bucketIndex(std::uint64_t Value) {
  assert(Value >= 1 && "histogram values are clamped to >= 1");
  const unsigned Exp = 63 - static_cast<unsigned>(std::countl_zero(Value));
  unsigned Sub = 0;
  if (Exp > SubBucketBits)
    Sub = static_cast<unsigned>((Value >> (Exp - SubBucketBits)) &
                                (SubBuckets - 1));
  else
    Sub = static_cast<unsigned>(Value & (SubBuckets - 1));
  const unsigned Index = Exp * SubBuckets + Sub;
  return std::min<unsigned>(Index, Exponents * SubBuckets - 1);
}

std::uint64_t LatencyHistogram::bucketUpperEdge(unsigned Index) {
  const unsigned Exp = Index / SubBuckets;
  const unsigned Sub = Index % SubBuckets;
  if (Exp <= SubBucketBits)
    return (std::uint64_t{1} << Exp) + Sub;
  const std::uint64_t Base = std::uint64_t{1} << Exp;
  const std::uint64_t Step = std::uint64_t{1} << (Exp - SubBucketBits);
  return Base + (Sub + 1) * Step - 1;
}

void LatencyHistogram::record(std::uint64_t ValueNs) {
  const std::uint64_t Clamped = std::max<std::uint64_t>(ValueNs, 1);
  ++Buckets[bucketIndex(Clamped)];
  ++Total;
  Sum += ValueNs;
  Max = std::max(Max, Clamped);
  Min = std::min(Min, Clamped);
}

void LatencyHistogram::merge(const LatencyHistogram &Other) {
  for (std::size_t I = 0; I < Buckets.size(); ++I)
    Buckets[I] += Other.Buckets[I];
  Total += Other.Total;
  Sum += Other.Sum;
  Max = std::max(Max, Other.Max);
  if (Other.Total != 0)
    Min = std::min(Min, Other.Min);
}

double LatencyHistogram::mean() const {
  return Total == 0 ? 0.0
                    : static_cast<double>(Sum) / static_cast<double>(Total);
}

std::uint64_t LatencyHistogram::valueAtQuantile(double Q) const {
  if (Total == 0)
    return 0;
  const double Clamped = std::clamp(Q, 0.0, 1.0);
  const std::uint64_t Rank = static_cast<std::uint64_t>(
      std::ceil(Clamped * static_cast<double>(Total)));
  std::uint64_t Seen = 0;
  for (std::size_t I = 0; I < Buckets.size(); ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank && Buckets[I] != 0)
      return bucketUpperEdge(static_cast<unsigned>(I));
  }
  return Max;
}

void LatencyHistogram::reset() {
  std::fill(Buckets.begin(), Buckets.end(), 0);
  Total = 0;
  Sum = 0;
  Max = 0;
  Min = ~std::uint64_t{0};
}

double jainFairnessIndex(const std::vector<double> &Scores) {
  if (Scores.empty())
    return 1.0;
  double Sum = 0.0;
  double SumSquares = 0.0;
  for (double S : Scores) {
    Sum += S;
    SumSquares += S * S;
  }
  if (SumSquares == 0.0)
    return 1.0;
  return (Sum * Sum) / (static_cast<double>(Scores.size()) * SumSquares);
}

LatencySummary summarize(const LatencyHistogram &Histogram) {
  LatencySummary Summary;
  Summary.Count = Histogram.count();
  Summary.MeanNs = Histogram.mean();
  Summary.P50Ns = Histogram.valueAtQuantile(0.50);
  Summary.P99Ns = Histogram.valueAtQuantile(0.99);
  Summary.MaxNs = Histogram.maxValue();
  return Summary;
}

} // namespace csobj
