/// \file heartbeat.hpp
/// A real ◇P₁ implementation: heartbeats with adaptive timeouts.
///
/// The classic Chandra–Toueg construction for partially synchronous
/// systems: every process periodically heartbeats its conflict-graph
/// neighbors; a neighbor silent past its current timeout is suspected;
/// whenever a suspicion is revealed to be a mistake (a heartbeat arrives
/// from a suspected neighbor) the timeout for that neighbor is increased.
///
///  * Local Strong Completeness: a crashed neighbor stops heartbeating, so
///    its deadline passes and the suspicion is never retracted.
///  * Local Eventual Strong Accuracy: after GST every heartbeat arrives
///    within period + Δ; each false suspicion bumps the timeout, so after
///    finitely many mistakes the timeout exceeds period + Δ forever.
///
/// The module lives *inside* the host process (same ProcessId, crashes with
/// it) — the host actor forwards messages/timers the module owns. Any
/// `dining::Diner` can host one (see dining/diner.hpp), keeping the dining
/// algorithm code oracle-agnostic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fd/detector.hpp"
#include "fd/module.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"

namespace ekbd::fd {

// The Heartbeat wire struct is defined in sim/payload.hpp (every wire
// type is an alternative of the closed sim::Payload variant).

/// Per-process heartbeat/timeout state machine.
class HeartbeatModule final : public FdModule {
 public:
  struct Params {
    Time period = 20;            ///< heartbeat send interval
    Time initial_timeout = 40;   ///< starting silence tolerance
    Time timeout_increment = 20; ///< additive bump on each false suspicion
  };

  /// `neighbors` must be strictly increasing (a ConflictGraph adjacency
  /// list is); anything else throws std::invalid_argument.
  HeartbeatModule(std::vector<ProcessId> neighbors, Params params);

  /// Arms the periodic timer and sends the first round of heartbeats.
  void start(ModuleHost& host) override;

  /// Consumes Heartbeat payloads.
  bool handle_message(ModuleHost& host, const ekbd::sim::Message& m) override;

  bool handle_timer(ModuleHost& host, ekbd::sim::TimerId id) override;

  [[nodiscard]] bool suspects(ProcessId target) const override;

  // -- instrumentation -------------------------------------------------

  /// Suspicions raised against processes that were alive at the time.
  [[nodiscard]] std::uint64_t false_suspicions() const { return false_suspicions_; }

  /// Time the last false suspicion was *retracted* (0 if none): a lower
  /// bound estimate of this module's convergence time.
  [[nodiscard]] Time last_retraction() const { return last_retraction_; }

  /// Current timeout for a neighbor (instrumentation for E8).
  [[nodiscard]] Time timeout_of(ProcessId target) const;

 private:
  struct NeighborState {
    Time last_heard = 0;
    Time timeout = 0;
    bool suspected = false;
  };

  void tick(ModuleHost& host);
  /// Position of `target` in neighbors_ (binary search), or
  /// neighbors_.size() if it is not a neighbor.
  [[nodiscard]] std::size_t index_of(ProcessId target) const;

  std::vector<ProcessId> neighbors_;  ///< sorted, duplicate-free
  Params params_;
  std::vector<NeighborState> state_;  ///< state_[i] is neighbors_[i]'s
  ekbd::sim::TimerId tick_timer_ = 0;
  std::uint64_t false_suspicions_ = 0;
  Time last_retraction_ = 0;
  bool started_ = false;
};

/// FailureDetector facade over a set of per-process modules. The dining
/// harness attaches each diner's embedded module here so property checkers
/// and guards can query "owner suspects target" uniformly.
class HeartbeatDetector final : public FailureDetector {
 public:
  void attach(ProcessId owner, const HeartbeatModule* module);

  bool suspects(ProcessId owner, ProcessId target) const override;

  /// Aggregate mistake count across all modules.
  [[nodiscard]] std::uint64_t total_false_suspicions() const;

  /// Latest retraction across all modules — an observed convergence bound.
  [[nodiscard]] Time last_retraction() const;

 private:
  std::vector<const HeartbeatModule*> modules_;  ///< by owner; nullptr: none
};

}  // namespace ekbd::fd
