/// \file liveness.hpp
/// Canned LivenessWorlds: closed dining/drinking universes for the
/// fair-lasso checker (mc/liveness.hpp).
///
/// The timed Scenario runs a finite horizon; the liveness checker instead
/// needs a *closed* system whose reachable semantic state space is finite
/// while its runs are infinite. Two choices make that so:
///
///  * infinite meals (LivenessConfig::meals = -1): a diner that stops
///    eating is always offered a re-hungry choice, so every run
///    continues forever and the meal counter stays OUT of the state key —
///    the graph closes into cycles instead of growing a counter;
///  * every harness decision (ending a meal, getting hungry again,
///    crashing) is a controlled-mode *scheduled choice*, adversarially
///    interleaved with message deliveries like everything else.
///
/// These worlds drive the mechanical verification of the paper's liveness
/// claims (tests/liveness_test.cpp, bench/e23_liveness):
///
///  * P3 (wait-freedom): under weak event fairness and a truthful ◇P₁,
///    the correct configurations admit NO fair cycle on which a correct
///    process stays hungry forever — certified exhaustively on the full
///    K3 closure, and on restricted C5 / 2x3-grid / crash-adjacent
///    closures (`initial_hungry` selects the recurrent class; the
///    all-hungry C5 and timers-on crash graphs exceed any feasible
///    budget — docs/MODELCHECK.md "measured sizes").
///  * P4 (eventual 2-bounded waiting): with the per-session overtake
///    counters in the state key and `check_overtakes` on, every reachable
///    state of the infinite-session graph keeps every counter <= 2 — and
///    the bound is tight (bound 1 is violated; ack budget 3 violates
///    bound 2).
///  * Harness honesty: each seeded mutation (LivenessMutation) must be
///    re-detected — dropped fork handovers and a stuck detector as fair
///    hungry-forever lassos, budget-ignoring ack grants as an overtake
///    bound violation — and the counterexample must replay through the
///    post-hoc trace checkers (dining/checkers.hpp) to the same verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/wait_free_diner.hpp"
#include "dining/trace.hpp"
#include "drinking/drinking_diner.hpp"
#include "fd/detector.hpp"
#include "graph/graph.hpp"
#include "mc/liveness.hpp"
#include "sim/simulator.hpp"

namespace ekbd::scenario {

using ekbd::sim::ProcessId;
using ekbd::sim::Time;

/// Deliberately broken variants for the honesty suite. kDropForkHandover
/// and kGrantBeyondBudget flip the corresponding core::WaitFreeDiner
/// mutation flags; kStuckDetector wires a NeverSuspect oracle (a ◇P₁
/// whose completeness never arrives) — combine it with `crash_victim`.
enum class LivenessMutation {
  kNone,
  kDropForkHandover,
  kGrantBeyondBudget,
  kStuckDetector,
};

struct LivenessConfig {
  /// graph::by_name family (the certification set: "clique"/3,
  /// "ring"/5, "grid"/6 = P2xP3).
  std::string topology = "clique";
  std::size_t n = 3;
  /// Eat sessions per process; -1 = forever (the liveness closure above).
  /// Finite values bound the run and put the capped counter in the key —
  /// used by the sleep-set tick-insensitivity regression, which needs a
  /// world explore() can exhaust.
  int meals = -1;
  /// Processes hungry from the start (bit per process).
  std::uint64_t initial_hungry = ~0ULL;
  /// Ack budget per neighbor per session (core::WaitFreeDiner::Options).
  int acks_per_session = 1;
  LivenessMutation mutation = LivenessMutation::kNone;
  /// When >= 0, crashing this process is offered as one more adversarial
  /// choice (the crash instant interleaves freely with every message).
  ProcessId crash_victim = ekbd::sim::kNoProcess;
  /// P4 machinery: keep per-(waiter, eater) overtake counters, capped at
  /// overtake_bound + 1, in the state key, and fail check() the moment a
  /// counter exceeds the bound.
  bool check_overtakes = false;
  int overtake_bound = 2;
};

/// A closed dining universe on cfg.topology: one core::WaitFreeDiner per
/// vertex (greedy coloring), a truthful time-free ◇P₁ (fd::PerfectDetector)
/// unless the stuck-detector mutation is selected, every harness decision
/// a scheduled choice. Records a dining::Trace so lasso replays can be
/// cross-checked against the post-hoc checkers.
class DinnerLivenessWorld final : public ekbd::mc::LivenessWorld {
 public:
  /// What every rebuild of one configuration shares: the config and the
  /// conflict graph and coloring built from it. The checker rebuilds a
  /// world per expanded edge, so the factory builds this once.
  struct Universe {
    /// Throws std::invalid_argument for an unknown topology, more than 16
    /// processes or a degree above 8 — the limits of the state key's
    /// packing (4 overtake bits per process pair, 8 bits per neighbor).
    explicit Universe(const LivenessConfig& config);
    LivenessConfig cfg;
    ekbd::graph::ConflictGraph graph;
    std::vector<int> colors;
  };

  /// Builds a private Universe (same validation).
  explicit DinnerLivenessWorld(const LivenessConfig& cfg);
  explicit DinnerLivenessWorld(std::shared_ptr<const Universe> universe);

  // -- mc::World ---------------------------------------------------------
  ekbd::sim::Simulator& simulator() override { return sim_; }
  std::string check() override;
  bool done() override;

  // -- mc::LivenessWorld -------------------------------------------------
  void state_key(std::vector<std::uint64_t>& out) const override;
  [[nodiscard]] std::uint64_t hungry_mask() const override;
  [[nodiscard]] std::uint64_t event_fingerprint(
      const ekbd::sim::PendingEvent& ev) const override;

  // -- cross-check access -------------------------------------------------
  [[nodiscard]] const ekbd::dining::Trace& trace() const { return trace_; }
  [[nodiscard]] const ekbd::graph::ConflictGraph& graph() const { return graph_; }
  /// Per-process crash times (-1 = correct), reconstructed from the trace
  /// in the shape dining::check_wait_freedom expects.
  [[nodiscard]] std::vector<Time> crash_times() const;
  [[nodiscard]] ekbd::core::WaitFreeDiner* diner(ProcessId p) {
    return diners_[static_cast<std::size_t>(p)];
  }

 private:
  /// Scheduled-choice roles: the semantic identity of a pending
  /// sim::schedule closure (event ids are fresh on every rebuild, roles
  /// are not). Registered by reading Simulator::next_event_id() just
  /// before scheduling; erased by the closure itself when it fires.
  enum class Role : std::uint64_t { kFinish = 1, kRehungry = 2, kCrash = 3 };
  struct Choice {
    std::uint64_t id;
    Role role;
    ProcessId p;
  };

  void schedule_choice(Role role, ProcessId p);
  void run_choice(std::uint64_t id);
  void on_trace(ekbd::dining::Diner& d, ekbd::dining::TraceEventKind kind);

  std::shared_ptr<const Universe> universe_;
  const LivenessConfig& cfg_;
  const ekbd::graph::ConflictGraph& graph_;
  ekbd::sim::Simulator sim_;
  ekbd::fd::NeverSuspect never_;
  ekbd::fd::PerfectDetector perfect_;
  std::vector<ekbd::core::WaitFreeDiner*> diners_;
  ekbd::dining::Trace trace_;
  std::vector<Choice> choices_;  ///< pending scheduled choices; a handful
  std::vector<int> meals_done_;
  /// overtakes_[waiter * n + eater]: times `eater` started eating during
  /// `waiter`'s current hungry session (capped at overtake_bound + 1).
  std::vector<int> overtakes_;
};

/// Factory adaptor for check_liveness. Validates `cfg` and builds its
/// Universe up front (throws std::invalid_argument like Universe).
[[nodiscard]] ekbd::mc::LivenessWorldFactory make_dinner_liveness_factory(LivenessConfig cfg);

/// A closed drinking universe on one edge: two drinking::DrinkingDiners
/// that re-thirst forever (each thirst session needs the shared bottle),
/// with drink endings and re-thirsts as scheduled choices. Crash-free,
/// message-driven — run it with include_timers = false. Verifies thirst
/// liveness: no fair cycle keeps a process thirsty forever.
class DrinkingEdgeLivenessWorld final : public ekbd::mc::LivenessWorld {
 public:
  DrinkingEdgeLivenessWorld();

  ekbd::sim::Simulator& simulator() override { return sim_; }
  std::string check() override;
  bool done() override { return false; }  // infinite thirst sessions

  void state_key(std::vector<std::uint64_t>& out) const override;
  [[nodiscard]] std::uint64_t hungry_mask() const override;
  [[nodiscard]] std::uint64_t event_fingerprint(
      const ekbd::sim::PendingEvent& ev) const override;

 private:
  enum class Role : std::uint64_t { kFinishDrink = 1, kRethirst = 2 };
  struct Choice {
    std::uint64_t id;
    Role role;
    ProcessId p;
  };

  void schedule_choice(Role role, ProcessId p);
  void run_choice(std::uint64_t id);
  void wire(ekbd::drinking::DrinkingDiner* d, ProcessId peer);

  ekbd::sim::Simulator sim_;
  ekbd::fd::NeverSuspect never_;
  ekbd::drinking::DrinkingDiner* hi_ = nullptr;
  ekbd::drinking::DrinkingDiner* lo_ = nullptr;
  std::vector<Choice> choices_;
};

[[nodiscard]] ekbd::mc::LivenessWorldFactory make_drinking_edge_liveness_factory();

}  // namespace ekbd::scenario
