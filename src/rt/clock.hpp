/// \file clock.hpp
/// Wall-clock ↔ tick mapping for the real-threads runtime.
///
/// Protocol code (timers, heartbeat periods, harness think/eat durations)
/// is written in abstract ticks — under the simulator one tick is one
/// unit of virtual time. The rt engine maps one tick to a fixed number of
/// wall-clock nanoseconds (`tick_ns`, default 100 µs), so the *same*
/// parameterization drives both engines: a heartbeat period of 20 ticks is
/// "20 units of virtual time" in sim and 2 ms of real time under rt.
///
/// The clock is rebased at `Runtime::start()` so setup cost never eats
/// into the run horizon; `now_ticks()` is monotonic per thread by
/// construction (steady_clock) and safe to call from any thread.
///
/// ## One clock read per dispatch burst
///
/// A steady_clock read costs tens of nanoseconds, and an rt meal touches
/// the clock in every hook: each send, delivery, timer and trace record
/// wants both a tick stamp and a merge key. A worker thread therefore
/// reads the clock at a few points and serves every consumer on that
/// thread — `now_ticks()`, `Runtime::now()`, the recorder's merge key and
/// its heartbeat — from the cached reading. The runtime refreshes it at
/// exactly four points:
///
///  1. the top of each worker-loop iteration;
///  2. right after a successful claim, when `dispatch_run` is entered;
///  3. after every non-empty mailbox `pop_n`;
///  4. on every idle probe in `park()`, and again after its wait returns.
///
/// Threads that never called `enter_worker()` (the main thread, the
/// recorder's collector, netproc nodes) read the clock fresh on every
/// call. segment.hpp explains why the cached readings still order the
/// merged stream; docs/RUNTIME.md ("Clock reads and timer lateness") the
/// cost: a timer can fire up to one drain burst late.
#pragma once

#include <chrono>
#include <cstdint>

#include "sim/time.hpp"

namespace ekbd::rt {

namespace detail {
/// One thread's clock state (TickClock, "One clock read per dispatch burst").
struct ThreadReading {
  bool worker = false;
  std::int64_t ns = 0;
};
}  // namespace detail

class TickClock {
 public:
  using WallClock = std::chrono::steady_clock;

  explicit TickClock(std::uint64_t tick_ns = 100'000)
      : tick_ns_(tick_ns == 0 ? 1 : tick_ns), t0_ns_(epoch_now_ns()) {}

  /// Re-zero the tick origin (called once, just before threads launch).
  void rebase() { t0_ns_ = epoch_now_ns(); }

  /// Set the tick origin to an *absolute* steady-clock reading (nanoseconds
  /// since the steady epoch, as produced by `epoch_now_ns`). steady_clock is
  /// CLOCK_MONOTONIC — one epoch per host — so node processes of the socket
  /// engine all rebase to the orchestrator's chosen instant and their tick
  /// streams are directly comparable when the shipped logs are merged.
  void rebase_to_epoch(std::int64_t epoch_ns) { t0_ns_ = epoch_ns; }

  /// A fresh steady-clock reading in nanoseconds since its epoch (the
  /// coordinate `rebase_to_epoch` consumes).
  [[nodiscard]] static std::int64_t epoch_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               WallClock::now().time_since_epoch())
        .count();
  }

  // -- the calling thread's reading ---------------------------------------

  /// Make the calling thread a worker: from here on `thread_now_ns` returns
  /// its cached reading, which only `refresh()` advances.
  static void enter_worker() {
    tls_.worker = true;
    tls_.ns = epoch_now_ns();
  }
  /// Back to fresh reads (the worker loop is exiting).
  static void leave_worker() { tls_.worker = false; }
  /// Re-read the clock into the calling worker's cache; a no-op elsewhere.
  static void refresh() {
    if (tls_.worker) tls_.ns = epoch_now_ns();
  }
  /// The calling thread's reading, in `epoch_now_ns` coordinates: cached
  /// on a worker, fresh anywhere else.
  [[nodiscard]] static std::int64_t thread_now_ns() {
    return tls_.worker ? tls_.ns : epoch_now_ns();
  }

  /// Elapsed ticks since the origin at the calling thread's reading (>= 0,
  /// monotonic per thread).
  [[nodiscard]] sim::Time now_ticks() const {
    const std::int64_t ns = thread_now_ns() - t0_ns_;
    return ns <= 0 ? 0 : static_cast<sim::Time>(static_cast<std::uint64_t>(ns) / tick_ns_);
  }

  /// Wall-clock instant at which tick `t` is reached.
  [[nodiscard]] WallClock::time_point deadline(sim::Time t) const {
    return WallClock::time_point(std::chrono::nanoseconds(
        t0_ns_ + static_cast<std::int64_t>(t) * static_cast<std::int64_t>(tick_ns_)));
  }

  [[nodiscard]] std::uint64_t tick_ns() const { return tick_ns_; }

 private:
  static inline thread_local constinit detail::ThreadReading tls_{};

  std::uint64_t tick_ns_;
  std::int64_t t0_ns_;
};

}  // namespace ekbd::rt
