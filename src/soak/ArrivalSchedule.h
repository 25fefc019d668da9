//===- soak/ArrivalSchedule.h - Open-loop arrival generation ----*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Open-loop load description for the soak harness (soak/SoakHarness.h).
/// Every measurement the repo shipped before this layer was closed-loop:
/// each thread issues its next operation only after the previous one
/// completes, so when the object slows down the offered load politely
/// slows down with it and overload is invisible. A service does not get
/// that courtesy. An ArrivalSchedule instead describes *when requests
/// arrive* independent of how fast they are served:
///
///  * a cycled piecewise-linear rate profile (the "diurnal" ramp — e.g.
///    20k/s climbing to 40k/s and back),
///  * a Poisson burst overlay (exponentially spaced bursts that multiply
///    the base rate for a fixed duration — flash crowds),
///  * per-arrival operation mix (push percent) and hot-key skew: keys
///    index an object-instance pool and are drawn Zipf(S), so a few
///    instances absorb most of the traffic like a hot shard does.
///
/// ArrivalStream turns the schedule into a concrete arrival sequence:
/// nominal timestamps via exponential inter-arrival gaps -ln(U)/rate(t),
/// fully deterministic given (schedule, seed). The stream knows nothing
/// about wall clocks — the harness's generator thread replays it in real
/// time and keeps each arrival's *nominal* timestamp, so sojourn latency
/// (completion minus nominal arrival) measures queueing delay without
/// coordinated omission: a late generator cannot hide a backlog.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_SOAK_ARRIVALSCHEDULE_H
#define CSOBJ_SOAK_ARRIVALSCHEDULE_H

#include "support/SplitMix64.h"

#include <cmath>
#include <cstdint>
#include <vector>

namespace csobj {
namespace soak {

/// Open-loop load profile: rate over time plus per-arrival shape.
struct ArrivalSchedule {
  /// One leg of the rate profile: the offered rate moves linearly from
  /// StartRate to EndRate ops/sec over DurationSec.
  struct Phase {
    double DurationSec = 1.0;
    double StartRate = 1000.0;
    double EndRate = 1000.0;
  };

  /// The profile, cycled: after the last phase the first begins again,
  /// so a 60s soak over a 10s profile sees six "days".
  std::vector<Phase> Phases;

  /// Poisson burst overlay: bursts start with exponentially distributed
  /// gaps of mean BurstMeanPeriodSec, last BurstDurationSec, and
  /// multiply the base rate by BurstMultiplier. MeanPeriod 0 = no
  /// bursts.
  double BurstMeanPeriodSec = 0.0;
  double BurstDurationSec = 0.0;
  double BurstMultiplier = 1.0;

  /// Keys index the harness's object-instance pool ([0, Keys)); drawn
  /// Zipf(ZipfS) so low keys are hot. ZipfS = 0 is uniform.
  std::uint32_t Keys = 1;
  double ZipfS = 0.0;

  /// Percent of arrivals that are pushes.
  std::uint32_t PushPercent = 50;

  double cycleSec() const {
    double Total = 0;
    for (const Phase &P : Phases)
      Total += P.DurationSec;
    return Total;
  }

  /// Base (burst-free) rate at absolute time \p TSec, cycling the
  /// profile. A schedule with no phases offers a flat 1000 ops/sec.
  double baseRateAt(double TSec) const {
    if (Phases.empty())
      return 1000.0;
    const double Cycle = cycleSec();
    double T = Cycle > 0 ? std::fmod(TSec, Cycle) : 0.0;
    for (const Phase &P : Phases) {
      if (T < P.DurationSec || P.DurationSec <= 0) {
        const double F = P.DurationSec > 0 ? T / P.DurationSec : 0.0;
        return P.StartRate + (P.EndRate - P.StartRate) * F;
      }
      T -= P.DurationSec;
    }
    return Phases.back().EndRate;
  }

  /// Convenience: a flat \p Rate ops/sec profile.
  static ArrivalSchedule flat(double Rate) {
    ArrivalSchedule S;
    S.Phases.push_back({1.0, Rate, Rate});
    return S;
  }
};

/// One arrival. NominalNs is the scheduled arrival instant relative to
/// the stream's origin; the harness keeps it through the queue so
/// sojourn latency is measured from when the request *should* have
/// arrived, not from when an overloaded generator got around to it.
/// EnqueueNs (same origin) is stamped by the harness when its generator
/// queues the arrival; the stream leaves it 0.
struct Arrival {
  std::uint64_t NominalNs = 0;
  std::uint32_t Key = 0;
  bool IsPush = true;
  std::uint32_t Value = 0;
  std::uint64_t EnqueueNs = 0;
};

/// Deterministic realisation of an ArrivalSchedule: same (schedule,
/// seed) — same sequence of arrivals, timestamps included. Not thread
/// safe; owned by the single generator thread.
class ArrivalStream {
public:
  ArrivalStream(const ArrivalSchedule &Schedule, std::uint64_t Seed)
      : Schedule(Schedule), Rng(Seed) {
    // Zipf CDF over the key pool, computed once. Weight(k) = 1/(k+1)^S.
    const std::uint32_t Keys = Schedule.Keys ? Schedule.Keys : 1;
    KeyCdf.reserve(Keys);
    double Total = 0;
    for (std::uint32_t K = 0; K < Keys; ++K) {
      Total += 1.0 / std::pow(static_cast<double>(K + 1), Schedule.ZipfS);
      KeyCdf.push_back(Total);
    }
    for (double &C : KeyCdf)
      C /= Total;
    if (Schedule.BurstMeanPeriodSec > 0)
      NextBurstStartSec = expGap(Schedule.BurstMeanPeriodSec);
  }

  /// Produces the next arrival (strictly non-decreasing NominalNs).
  Arrival next() {
    // Advance the burst state machine past NowSec.
    double Multiplier = 1.0;
    if (Schedule.BurstMeanPeriodSec > 0) {
      while (NowSec >= NextBurstStartSec + Schedule.BurstDurationSec)
        NextBurstStartSec = NextBurstStartSec + Schedule.BurstDurationSec +
                            expGap(Schedule.BurstMeanPeriodSec);
      if (NowSec >= NextBurstStartSec)
        Multiplier = Schedule.BurstMultiplier;
    }
    const double Rate =
        std::max(Schedule.baseRateAt(NowSec) * Multiplier, 1e-6);
    NowSec += expGap(1.0 / Rate);

    Arrival A;
    A.NominalNs = static_cast<std::uint64_t>(NowSec * 1e9);
    A.Key = drawKey();
    A.IsPush = Rng.chance(Schedule.PushPercent, 100);
    A.Value = static_cast<std::uint32_t>(Rng.below(1u << 31));
    return A;
  }

  /// Stream time after the most recent arrival, in seconds.
  double nowSec() const { return NowSec; }

private:
  /// Exponential gap with mean \p MeanSec, strictly positive.
  double expGap(double MeanSec) {
    // 53 uniform bits in (0, 1]; log of that is finite and <= 0.
    const double U =
        (static_cast<double>(Rng() >> 11) + 1.0) * 0x1.0p-53;
    return -std::log(U) * MeanSec;
  }

  std::uint32_t drawKey() {
    if (KeyCdf.size() <= 1)
      return 0;
    const double U = static_cast<double>(Rng() >> 11) * 0x1.0p-53;
    // Linear scan: the pool is small (tens of instances) and the CDF is
    // front-loaded under Zipf, so most draws stop in the first buckets.
    for (std::uint32_t K = 0; K < KeyCdf.size(); ++K)
      if (U < KeyCdf[K])
        return K;
    return static_cast<std::uint32_t>(KeyCdf.size() - 1);
  }

  ArrivalSchedule Schedule;
  SplitMix64 Rng;
  std::vector<double> KeyCdf;
  double NowSec = 0.0;
  double NextBurstStartSec = 0.0;
};

} // namespace soak
} // namespace csobj

#endif // CSOBJ_SOAK_ARRIVALSCHEDULE_H
