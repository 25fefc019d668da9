//===- runtime/Watchdog.h - Per-operation deadline monitor ------*- C++ -*-===//
//
// Part of csobj, a reproduction of Mostefaoui & Raynal (PI-1969, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Liveness oracle for wall-clock runs. Each worker arms a per-thread
/// slot with its operation's start time and disarms it on completion; a
/// monitor thread samples the slots and records every operation that
/// overstays its deadline. With fault injection active
/// (faults/FaultInjector.h) this turns "survivors must keep completing
/// after a crash" from hope into an assertion: a run of the crash-
/// tolerant construction reports zero stuck operations, while the plain
/// Figure 3 construction under a lock-holder crash is *caught* hanging
/// rather than hanging the test suite.
///
/// The slots are plain atomics, written once per operation — harness
/// accounting, invisible to the access counter and the explorer.
///
//===----------------------------------------------------------------------===//

#ifndef CSOBJ_RUNTIME_WATCHDOG_H
#define CSOBJ_RUNTIME_WATCHDOG_H

#include "obs/PathCounters.h"
#include "support/CacheLine.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csobj {

/// One stuck-operation observation.
struct StuckOpReport {
  std::uint32_t Tid = 0;
  std::uint64_t ObservedNs = 0; ///< Age of the operation when caught.
  /// Terminal path of the thread's last *completed* operation (None when
  /// no path probe was installed). A wedged thread whose last op retired
  /// via Lock points at the doorway/lock machinery; one whose last op was
  /// a Shortcut suggests the hang began before any slow-path entry.
  obs::Path PathHint = obs::Path::None;
};

/// Deadline monitor over per-thread operation slots. Usage:
///
///   Watchdog Dog(Threads, DeadlineNs);
///   Dog.start();
///   ... worker Tid: Dog.arm(Tid); op(); Dog.disarm(Tid); ...
///   Dog.stop();
///   Dog.stuckReports();
///
/// An operation is reported at most once (the slot's arm timestamp is
/// its identity). A disarm after a report is fine — the report stands as
/// evidence the deadline was crossed, which is what liveness tests
/// assert on.
///
/// The watchdog is re-armable: stop()/start() cycles reuse the same
/// instance (slots, totals, and undrained reports survive), so a soak
/// harness can pause monitoring between phases without reconstruction.
/// For window-granular accounting, drainReports() hands back everything
/// observed since the previous drain while stuckCount() keeps the
/// lifetime total — the soak collector drains once per window and
/// reports per-window stuck-op counts instead of a single terminal
/// number.
class Watchdog {
public:
  Watchdog(std::uint32_t NumThreads, std::uint64_t DeadlineNs,
           std::uint64_t PollIntervalNs = 1000 * 1000)
      : DeadlineNs(DeadlineNs), PollIntervalNs(PollIntervalNs),
        Slots(NumThreads) {}

  ~Watchdog() { stop(); }

  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

  /// Arms the calling worker's slot with the current time. Free when
  /// the watchdog is disabled — benches run with deadline 0, and a
  /// clock read per operation would distort their per-op costs.
  void arm(std::uint32_t Tid) {
    if (DeadlineNs == 0)
      return;
    Slots[Tid].value().Armed.store(nowNs(), std::memory_order_release);
  }

  /// Clears the calling worker's slot.
  void disarm(std::uint32_t Tid) {
    if (DeadlineNs == 0)
      return;
    Slots[Tid].value().Armed.store(0, std::memory_order_release);
  }

  /// Starts the monitor thread. No-op when the deadline is 0 (disabled).
  void start() {
    if (DeadlineNs == 0 || Monitor.joinable())
      return;
    Stopping.store(false, std::memory_order_relaxed);
    Monitor = std::thread([this] { monitorLoop(); });
  }

  /// Stops the monitor thread and performs one final scan, so stuck
  /// operations still in flight at shutdown are not missed.
  void stop() {
    if (!Monitor.joinable())
      return;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stopping.store(true, std::memory_order_relaxed);
    }
    Cv.notify_all();
    Monitor.join();
    scanOnce();
  }

  /// Number of operations caught over deadline so far — a lifetime
  /// total, unaffected by drainReports().
  std::uint64_t stuckCount() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return TotalReported;
  }

  /// All stuck-operation observations since the last drainReports()
  /// (or ever, when nothing was drained).
  std::vector<StuckOpReport> stuckReports() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Reports;
  }

  /// Hands back every observation since the previous drain and clears
  /// the buffer; stuckCount() keeps counting across drains. This is the
  /// per-window collection channel for long soaks — without it the
  /// report vector grows for the whole run and windows cannot be told
  /// apart.
  std::vector<StuckOpReport> drainReports() {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::vector<StuckOpReport> Out;
    Out.swap(Reports);
    return Out;
  }

  std::uint64_t deadlineNs() const { return DeadlineNs; }

  /// Installs a per-thread path probe (typically the adapter's
  /// lastPath(Tid)) consulted when a stuck operation is reported. Must be
  /// set before start(); the probe must be safe to call from the monitor
  /// thread (MetricSink::lastPath is a relaxed load, so it is).
  void setPathProbe(std::function<obs::Path(std::uint32_t)> Probe) {
    PathProbe = std::move(Probe);
  }

private:
  struct Slot {
    std::atomic<std::uint64_t> Armed{0};    ///< Op start time, 0 = idle.
    std::atomic<std::uint64_t> Reported{0}; ///< Start time already reported.
  };

  static std::uint64_t nowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void scanOnce() {
    for (std::uint32_t Tid = 0; Tid < Slots.size(); ++Tid) {
      Slot &S = Slots[Tid].value();
      // Arm time first, clock second: the acquire orders the arming
      // thread's clock read before ours, so Now >= Armed and the age
      // cannot wrap to ~2^64 ns for an op armed mid-scan.
      const std::uint64_t Armed = S.Armed.load(std::memory_order_acquire);
      if (Armed == 0)
        continue;
      const std::uint64_t Now = nowNs();
      if (Now - Armed < DeadlineNs)
        continue;
      if (S.Reported.load(std::memory_order_relaxed) == Armed)
        continue; // This operation was already reported.
      S.Reported.store(Armed, std::memory_order_relaxed);
      const obs::Path Hint = PathProbe ? PathProbe(Tid) : obs::Path::None;
      std::lock_guard<std::mutex> Lock(Mutex);
      Reports.push_back({Tid, Now - Armed, Hint});
      ++TotalReported;
    }
  }

  void monitorLoop() {
    std::unique_lock<std::mutex> Lock(Mutex);
    while (!Stopping.load(std::memory_order_relaxed)) {
      Cv.wait_for(Lock, std::chrono::nanoseconds(PollIntervalNs), [this] {
        return Stopping.load(std::memory_order_relaxed);
      });
      Lock.unlock();
      scanOnce();
      Lock.lock();
    }
  }

  const std::uint64_t DeadlineNs;
  const std::uint64_t PollIntervalNs;
  std::vector<CacheLinePadded<Slot>> Slots;
  mutable std::mutex Mutex;
  std::condition_variable Cv;
  std::atomic<bool> Stopping{false};
  std::thread Monitor;
  std::vector<StuckOpReport> Reports;
  std::uint64_t TotalReported = 0;
  std::function<obs::Path(std::uint32_t)> PathProbe;
};

} // namespace csobj

#endif // CSOBJ_RUNTIME_WATCHDOG_H
