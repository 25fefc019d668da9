//===- runtime/Stats.h - Latency histograms & fairness ----------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measurement plumbing for the benchmark harness:
///
///  * LatencyHistogram — HDR-style log/linear histogram of nanosecond
///    latencies; constant memory, constant-time record, mergeable across
///    threads, percentile queries. The starvation experiments (E4, E6)
///    need faithful *tails*, which sampled means would hide.
///  * jainFairnessIndex — the classic (sum x)^2 / (n * sum x^2) fairness
///    score over per-thread completion counts; 1.0 = perfectly fair.
///    Starvation-freedom shows up as the index staying near 1 while
///    unfair locks drift toward 1/n.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_RUNTIME_STATS_H
#define CSOBJ_RUNTIME_STATS_H

#include <cstdint>
#include <vector>

namespace csobj {

/// Log/linear histogram for values in [1, ~2^62] ns.
///
/// Values are bucketed by (exponent of the highest set bit, next
/// SubBucketBits bits), giving a relative quantization error below
/// 1 / 2^SubBucketBits — ample for latency percentiles.
class LatencyHistogram {
public:
  static constexpr unsigned SubBucketBits = 5;
  static constexpr unsigned SubBuckets = 1u << SubBucketBits;
  static constexpr unsigned Exponents = 63;

  LatencyHistogram();

  /// Records one value. Bucketing, min and max clamp it to >= 1; sum()
  /// takes it as given.
  void record(std::uint64_t ValueNs);

  /// Adds all samples of \p Other into this histogram.
  void merge(const LatencyHistogram &Other);

  std::uint64_t count() const { return Total; }
  std::uint64_t maxValue() const { return Max; }

  /// Exact smallest recorded value (0 when empty). Tracked directly like
  /// Max: deriving it from the first non-empty bucket's upper edge, as an
  /// earlier version did, biased the reported minimum upward by up to one
  /// bucket width (~3% relative, but absolute error grows with the
  /// exponent — hundreds of ns for microsecond-scale fast paths).
  std::uint64_t minValue() const { return Total == 0 ? 0 : Min; }

  /// Exact sum of every recorded value, so per-sample identities (one
  /// histogram's values are the sum of others') carry over to sums.
  std::uint64_t sum() const { return Sum; }

  double mean() const;

  /// Value at quantile \p Q in [0, 1] (0.5 = median). Returns the upper
  /// edge of the containing bucket; 0 when empty.
  std::uint64_t valueAtQuantile(double Q) const;

  /// Clears all recorded samples.
  void reset();

private:
  static unsigned bucketIndex(std::uint64_t Value);
  static std::uint64_t bucketUpperEdge(unsigned Index);

  std::vector<std::uint64_t> Buckets;
  std::uint64_t Total = 0;
  std::uint64_t Sum = 0;
  std::uint64_t Max = 0;
  std::uint64_t Min = ~std::uint64_t{0}; ///< Sentinel until first record().
};

/// Jain's fairness index over per-thread scores; 1 = perfectly fair,
/// 1/n = one thread got everything. Returns 1 for empty/all-zero input.
double jainFairnessIndex(const std::vector<double> &Scores);

/// Convenience summary of a histogram for table printing.
struct LatencySummary {
  std::uint64_t Count = 0;
  double MeanNs = 0;
  std::uint64_t P50Ns = 0;
  std::uint64_t P99Ns = 0;
  std::uint64_t MaxNs = 0;
};

LatencySummary summarize(const LatencyHistogram &Histogram);

} // namespace csobj

#endif // CSOBJ_RUNTIME_STATS_H
