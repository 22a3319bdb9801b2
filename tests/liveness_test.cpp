/// \file liveness_test.cpp
/// Fair-lasso liveness checking (mc/liveness.hpp) over the closed dining
/// and drinking universes (scenario/liveness.hpp).
///
/// The suite does four jobs:
///  1. certification — mechanically verify P3 (wait-freedom) on the full
///     K3 closure (crash-free and with an adversarially timed crash) and
///     on restricted C5 / 2x3-grid closures (three adjacent perpetual
///     re-hungerers; the all-hungry graphs are beyond any feasible
///     budget — docs/MODELCHECK.md), and P4 (2-bounded waiting) on an
///     edge, bound tightness and budget-abuse-on-K3 included;
///  2. honesty — every seeded mutation must be re-detected, and each
///     counterexample must replay through the post-hoc trace checkers
///     (dining/checkers.hpp) to the same verdict as the model checker;
///  3. round-trips — lassos unroll for any number of laps and close the
///     state key every lap; Results are bit-identical for 1/2/8 threads;
///  4. guards — sleep sets and random walks are refused for liveness,
///     worlds beyond the state key's packing limits are refused, and the
///     sleep-set tick-insensitivity contract still holds for explore() on
///     the finite-meal crash-free liveness worlds.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dining/checkers.hpp"
#include "mc/liveness.hpp"
#include "scenario/liveness.hpp"

namespace {

using ekbd::mc::Fairness;
using ekbd::mc::Options;
using ekbd::mc::Result;
using ekbd::scenario::DinnerLivenessWorld;
using ekbd::scenario::LivenessConfig;
using ekbd::scenario::LivenessMutation;
using ekbd::scenario::make_dinner_liveness_factory;
using ekbd::scenario::make_drinking_edge_liveness_factory;

Options live_options(std::size_t max_depth, std::uint64_t max_nodes,
                     bool include_timers = false) {
  Options opt;
  opt.max_depth = max_depth;
  opt.max_nodes = max_nodes;
  opt.include_timers = include_timers;
  opt.threads = 2;
  opt.fairness = Fairness::kWeakEvent;
  return opt;
}

/// The full certification claim: a verdict is a proof only when the graph
/// was built to the end (liveness.hpp "Soundness caveats").
void expect_certified(const Result& r) {
  EXPECT_TRUE(r.ok()) << "violation: " << r.violation
                      << " config_error: " << r.config_error;
  EXPECT_EQ(r.paths_truncated, 0u) << "graph truncated at max_depth: not a proof";
  EXPECT_FALSE(r.budget_exhausted) << "budget exhausted: not a proof";
  EXPECT_EQ(r.fair_cycles, 0u);
  EXPECT_GT(r.unique_states, 0u);
  // Infinite-session universes must actually recur: a cycle-free graph
  // would mean the closure (re-hungry choices) is broken.
  EXPECT_GT(r.scc_count, 0u);
}

/// Drive recorded event ids through a fresh world, checking invariants
/// after each step — the honest-trace side of the cross-check.
std::string drive_ids(DinnerLivenessWorld& world, const std::vector<std::uint64_t>& ids) {
  for (std::uint64_t id : ids) {
    if (!world.simulator().execute_event(id)) return "replay diverged";
    std::string v = world.check();
    if (!v.empty()) return v;
  }
  return "";
}

// ------------------------------------------------------ P3 certification

TEST(LivenessCertify, WaitFreedomOnK3) {
  // Also pins the exact size of the certification (perfbench mc-k3, E23
  // certify/p3-k3): any change to the protocol, the simulator's
  // controlled mode or the checker that moves one explored state, one
  // executed node or one replayed event fails here.
  LivenessConfig cfg;
  cfg.topology = "clique";
  cfg.n = 3;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    Options opt = live_options(120, 80'000'000);
    opt.threads = threads;
    const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
    expect_certified(r);
    EXPECT_EQ(r.unique_states, 48'899u) << threads << " threads";
    EXPECT_EQ(r.nodes_executed, 149'970u) << threads << " threads";
    EXPECT_EQ(r.replayed_events, 5'317'461u) << threads << " threads";
    EXPECT_EQ(r.scc_count, 1u) << threads << " threads";
  }
}

TEST(LivenessCertify, WaitFreedomOnC5) {
  // Restricted closure: with meals = -1 only initially-hungry processes
  // ever re-hungry, so the mask selects the recurrent class. Three
  // adjacent perpetual re-hungerers among responsive peers — the
  // all-hungry C5 closure exceeds any feasible budget (>4 GB of state
  // table; measured in docs/MODELCHECK.md) and is deliberately NOT
  // claimed here.
  LivenessConfig cfg;
  cfg.topology = "ring";
  cfg.n = 5;
  cfg.initial_hungry = 0b00111;
  const Result r = check_liveness(make_dinner_liveness_factory(cfg),
                                  live_options(160, 400'000'000));
  expect_certified(r);
}

TEST(LivenessCertify, WaitFreedomOnGrid2x3) {
  // Same restricted-closure discipline as C5. by_name("grid", 6) is the
  // 3x2 grid laid out row-major with two columns, so {0, 1, 2} is a
  // corner L: 0-1 and 0-2 are edges, 1 and 2 contend only through 0 —
  // a different conflict shape than the C5 chain (whose two outer
  // hungry diners never share a neighbor's fork with each other).
  LivenessConfig cfg;
  cfg.topology = "grid";  // 6 vertices -> most-square shape = 3x2
  cfg.n = 6;
  cfg.initial_hungry = 0b00111;
  const Result r = check_liveness(make_dinner_liveness_factory(cfg),
                                  live_options(160, 400'000'000));
  expect_certified(r);
}

TEST(LivenessCertify, WaitFreedomOnK3WithAdversarialCrash) {
  // The crash of process 0 is one more controlled choice, interleaved
  // with every delivery; the truthful ◇P₁ (PerfectDetector) must keep the
  // survivors live on every schedule. Timers stay in: the post-crash
  // recovery path is pump-driven. Restricted closure (hungry = {0, 1}):
  // timers blow the all-hungry crash graph past any feasible budget, and
  // the demanding part — the victim's hungry neighbor surviving a crash
  // timed against every delivery — needs only one perpetual waiter next
  // to the victim plus a responsive third party.
  LivenessConfig cfg;
  cfg.topology = "clique";
  cfg.n = 3;
  cfg.crash_victim = 0;
  cfg.initial_hungry = 0b011;
  const Result r = check_liveness(make_dinner_liveness_factory(cfg),
                                  live_options(160, 80'000'000, /*include_timers=*/true));
  expect_certified(r);
}

TEST(LivenessCertify, DrinkingEdgeHasNoThirstForeverCycle) {
  const Result r = check_liveness(make_drinking_edge_liveness_factory(),
                                  live_options(120, 80'000'000));
  expect_certified(r);
}

// ------------------------------------------------------ P4 certification

LivenessConfig edge_overtake_config(int bound) {
  LivenessConfig cfg;
  cfg.topology = "clique";
  cfg.n = 2;
  cfg.check_overtakes = true;
  cfg.overtake_bound = bound;
  return cfg;
}

TEST(LivenessP4, TwoBoundedWaitingHoldsOnEdge) {
  // Theorem 3 with ack budget 1: on every infinite schedule, a hungry
  // process is overtaken at most twice per neighbor. The overtake
  // counters live in the state key, so this quantifies over ALL reachable
  // states of the infinite-session graph.
  const Result r = check_liveness(make_dinner_liveness_factory(edge_overtake_config(2)),
                                  live_options(120, 80'000'000));
  expect_certified(r);
}

TEST(LivenessP4, BoundOneIsViolatedSoTwoIsTight) {
  const Result r = check_liveness(make_dinner_liveness_factory(edge_overtake_config(1)),
                                  live_options(120, 80'000'000));
  EXPECT_TRUE(r.violation_found);
  EXPECT_EQ(r.cycle_length, 0u);  // a safety counterexample, not a lasso
  EXPECT_NE(r.violation.find("bounded waiting violated"), std::string::npos) << r.violation;
}

TEST(LivenessP4, AckBudgetThreeBreaksBoundTwo) {
  // The bound tracks the spent ack budget (Theorem 3): a diner that may
  // grant three acks per session admits triple overtaking. Degree
  // matters here — on a single edge, per-channel FIFO delivers the
  // granted ack before any later ping on the same channel and caps
  // overtaking at 2 REGARDLESS of the budget, so the abuse only
  // manifests at degree >= 2: a waiter stuck outside the doorway
  // awaiting one neighbor's adversarially delayed ack while the other
  // neighbor loops sessions. Hence K3, not K2. fail_fast: a safety
  // violation on the liveness graph is a real counterexample whatever
  // the rest of the graph holds, and the full K3 overtake graph is
  // bench territory (e23).
  LivenessConfig cfg = edge_overtake_config(2);
  cfg.topology = "clique";
  cfg.n = 3;
  cfg.acks_per_session = 3;
  Options opt = live_options(160, 400'000'000);
  opt.fail_fast = true;
  const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  EXPECT_TRUE(r.violation_found);
  EXPECT_EQ(r.cycle_length, 0u);
  EXPECT_NE(r.violation.find("bounded waiting violated"), std::string::npos) << r.violation;
}

// ---------------------------------------------------------- honesty suite

LivenessConfig drop_fork_config() {
  // Process 0 (token holder) hungry alone; process 1 holds the initial
  // fork and silently drops the handover. Every schedule strands 0
  // inside the doorway with only its pump timer firing — a fair lasso.
  LivenessConfig cfg;
  cfg.topology = "clique";
  cfg.n = 2;
  cfg.mutation = LivenessMutation::kDropForkHandover;
  cfg.initial_hungry = 0b01;
  return cfg;
}

LivenessConfig stuck_detector_config() {
  // Process 1 may crash at an adversarial instant while the oracle never
  // suspects anyone: a schedule that crashes 1 before its ack leaves 0
  // waiting at the doorway forever. (With a truthful oracle the same
  // crash is survivable — LivenessCertify.WaitFreedomOnK3WithAdversarialCrash.)
  LivenessConfig cfg;
  cfg.topology = "clique";
  cfg.n = 2;
  cfg.mutation = LivenessMutation::kStuckDetector;
  cfg.crash_victim = 1;
  cfg.initial_hungry = 0b01;
  return cfg;
}

/// Checker-vs-checker agreement for a starvation lasso: unroll it, then
/// make the post-hoc trace checkers reach the same verdict.
void expect_starvation_cross_check(const LivenessConfig& cfg, const Result& r,
                                   const Options& opt) {
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.violation.rfind(ekbd::mc::kLivenessViolationPrefix, 0), 0u) << r.violation;
  EXPECT_NE(r.violation.find("process 0"), std::string::npos) << r.violation;
  EXPECT_GT(r.cycle_length, 0u);
  EXPECT_EQ(r.stem_length + r.cycle_length, r.counterexample.size());

  const auto factory = make_dinner_liveness_factory(cfg);
  constexpr std::size_t kLaps = 3;
  ekbd::mc::LassoReplay replay = unroll_lasso(factory, r, kLaps, opt);
  ASSERT_TRUE(replay.valid);
  EXPECT_EQ(replay.laps_closed, kLaps);
  EXPECT_TRUE(replay.violation.empty()) << replay.violation;
  EXPECT_EQ(replay.fired.size(), r.stem_length + kLaps * r.cycle_length);

  auto* world = dynamic_cast<DinnerLivenessWorld*>(replay.world.get());
  ASSERT_NE(world, nullptr);
  // The liveness predicate and its post-hoc face agree: process 0 is
  // hungry at the end of the unrolled trace...
  EXPECT_TRUE(ekbd::dining::hungry_at_end_mask(world->trace()) & 1ULL);
  // ...and check_wait_freedom calls that same process starving.
  const auto report =
      ekbd::dining::check_wait_freedom(world->trace(), world->crash_times(),
                                       /*starvation_horizon=*/1);
  EXPECT_FALSE(report.wait_free());
  ASSERT_EQ(report.starving.size(), 1u);
  EXPECT_EQ(report.starving[0], 0);
}

TEST(LivenessMutants, DetectsDroppedForkHandover) {
  const LivenessConfig cfg = drop_fork_config();
  const Options opt = live_options(80, 20'000'000, /*include_timers=*/true);
  const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  expect_starvation_cross_check(cfg, r, opt);
}

TEST(LivenessMutants, DetectsStuckDetector) {
  const LivenessConfig cfg = stuck_detector_config();
  const Options opt = live_options(80, 20'000'000, /*include_timers=*/true);
  const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  expect_starvation_cross_check(cfg, r, opt);
}

TEST(LivenessMutants, DetectsGrantBeyondBudget) {
  // Ignoring the ack budget does NOT starve anyone (weak fairness still
  // drives every waiter through the doorway) — it breaks the overtake
  // bound instead, so the harness must catch it as a safety violation on
  // the liveness graph, not as a lasso. On K3, not K2: FIFO alone keeps
  // a single edge 2-bounded whatever the diner grants (see
  // AckBudgetThreeBreaksBoundTwo).
  LivenessConfig cfg = edge_overtake_config(2);
  cfg.topology = "clique";
  cfg.n = 3;
  cfg.mutation = LivenessMutation::kGrantBeyondBudget;
  Options opt = live_options(160, 400'000'000);
  opt.fail_fast = true;
  const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.cycle_length, 0u);
  EXPECT_NE(r.violation.find("bounded waiting violated"), std::string::npos) << r.violation;

  // Cross-check: the recorded schedule replays to the same verdict, and
  // the post-hoc overtake census counts the same unbounded overtaking.
  DinnerLivenessWorld world(cfg);
  EXPECT_EQ(drive_ids(world, r.counterexample), r.violation);
  const auto census = ekbd::dining::overtake_census(world.trace(), world.graph());
  EXPECT_GT(ekbd::dining::max_overtakes(census), 2);
}

TEST(LivenessMutants, KBoundedDaemonPredicateAlsoCatchesStarvation) {
  // The starvation lasso of the dropped handover is a one-process spin:
  // trivially 2-bounded, so even the most restrictive daemon class
  // exhibits it — the kKBounded predicate must report it too.
  const LivenessConfig cfg = drop_fork_config();
  Options opt = live_options(80, 20'000'000, /*include_timers=*/true);
  opt.fairness = Fairness::kKBounded;
  opt.fairness_k = 2;
  const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  EXPECT_TRUE(r.violation_found);
  EXPECT_GT(r.cycle_length, 0u);
  EXPECT_NE(r.violation.find("k-bounded"), std::string::npos) << r.violation;
}

// ------------------------------------------------- round-trip / parity

TEST(LivenessRoundTrip, LassoUnrollsForAnyLapCount) {
  const LivenessConfig cfg = drop_fork_config();
  const Options opt = live_options(80, 20'000'000, /*include_timers=*/true);
  const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  ASSERT_TRUE(r.violation_found);
  ASSERT_GT(r.cycle_length, 0u);
  const auto factory = make_dinner_liveness_factory(cfg);
  for (std::size_t laps : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    const auto replay = unroll_lasso(factory, r, laps, opt);
    EXPECT_TRUE(replay.valid) << laps << " laps";
    EXPECT_EQ(replay.laps_closed, laps);
    EXPECT_EQ(replay.fired.size(), r.stem_length + laps * r.cycle_length);
  }
}

void expect_same_result(const Result& a, const Result& b, const std::string& what) {
  // Every field except wall_seconds (explicitly outside the guarantee).
  EXPECT_EQ(a.nodes_executed, b.nodes_executed) << what;
  EXPECT_EQ(a.replayed_events, b.replayed_events) << what;
  EXPECT_EQ(a.paths_completed, b.paths_completed) << what;
  EXPECT_EQ(a.paths_truncated, b.paths_truncated) << what;
  EXPECT_EQ(a.sleep_pruned, b.sleep_pruned) << what;
  EXPECT_EQ(a.max_depth_seen, b.max_depth_seen) << what;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << what;
  EXPECT_EQ(a.unique_states, b.unique_states) << what;
  EXPECT_EQ(a.scc_count, b.scc_count) << what;
  EXPECT_EQ(a.fair_cycles, b.fair_cycles) << what;
  EXPECT_EQ(a.violation_found, b.violation_found) << what;
  EXPECT_EQ(a.violation, b.violation) << what;
  EXPECT_EQ(a.counterexample, b.counterexample) << what;
  EXPECT_EQ(a.stem_length, b.stem_length) << what;
  EXPECT_EQ(a.cycle_length, b.cycle_length) << what;
  EXPECT_EQ(a.config_error, b.config_error) << what;
}

TEST(LivenessRoundTrip, ResultBitIdenticalForOneTwoEightThreads) {
  // One certifying config and one violating config, each swept over the
  // thread grid: graph construction, SCC analysis and witness choice must
  // be pure functions of (factory, options).
  LivenessConfig clean;
  clean.topology = "clique";
  clean.n = 3;
  const LivenessConfig broken = drop_fork_config();
  for (const bool use_broken : {false, true}) {
    const LivenessConfig& cfg = use_broken ? broken : clean;
    Options opt = live_options(use_broken ? 80 : 120, use_broken ? 20'000'000 : 80'000'000,
                               /*include_timers=*/use_broken);
    opt.threads = 1;
    const Result base = check_liveness(make_dinner_liveness_factory(cfg), opt);
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      opt.threads = threads;
      const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
      expect_same_result(base, r,
                         (use_broken ? "broken@" : "clean@") + std::to_string(threads));
    }
  }
}

// ------------------------------------------------------------- guards

TEST(LivenessGuards, RefusesSleepSets) {
  LivenessConfig cfg;
  cfg.topology = "clique";
  cfg.n = 2;
  Options opt = live_options(60, 1'000'000);
  opt.sleep_sets = true;
  const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.config_error, ekbd::mc::kLivenessSleepSetRefusal);
  EXPECT_FALSE(r.violation_found);  // no verdict, not a violation
  EXPECT_EQ(r.unique_states, 0u);
  EXPECT_EQ(r.nodes_executed, 0u);
}

TEST(LivenessGuards, RefusesRandomWalks) {
  LivenessConfig cfg;
  cfg.topology = "clique";
  cfg.n = 2;
  Options opt = live_options(60, 1'000'000);
  opt.random_walks = 16;
  const Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.config_error, ekbd::mc::kLivenessRandomWalkRefusal);
  EXPECT_EQ(r.unique_states, 0u);
}

TEST(LivenessGuards, RejectsDegreeAboveEight) {
  // Eight bits per neighbor in one state-key word: a ninth neighbor
  // would shift past the word and could merge distinct states.
  LivenessConfig cfg;
  cfg.topology = "clique";
  cfg.n = 10;
  EXPECT_THROW((void)make_dinner_liveness_factory(cfg), std::invalid_argument);
  EXPECT_THROW(DinnerLivenessWorld world(cfg), std::invalid_argument);
}

TEST(LivenessGuards, RejectsMoreThanSixteenProcesses) {
  // Four overtake bits per (waiter, eater) pair in one word per waiter.
  LivenessConfig cfg;
  cfg.topology = "ring";  // degree 2: only the process count is out of range
  cfg.n = 17;
  EXPECT_THROW((void)make_dinner_liveness_factory(cfg), std::invalid_argument);
  EXPECT_THROW(DinnerLivenessWorld world(cfg), std::invalid_argument);
  cfg.n = 16;
  EXPECT_NO_THROW((void)make_dinner_liveness_factory(cfg));
}

/// Adapt the liveness factory for plain explore() (safety DFS).
ekbd::mc::WorldFactory as_world_factory(LivenessConfig cfg) {
  return [cfg]() -> std::unique_ptr<ekbd::mc::World> {
    return std::make_unique<DinnerLivenessWorld>(cfg);
  };
}

TEST(LivenessGuards, SleepSetVerdictUnchangedOnFiniteCrashFreeWorlds) {
  // The tick-insensitivity contract (sleep_sets.hpp): on crash-free
  // truthful-oracle worlds, pruning only drops permutations of commuting
  // deliveries, so explore()'s VERDICT cannot change — regression-tested
  // here on the finite-meal liveness worlds, one clean and one whose
  // every schedule deadlocks.
  LivenessConfig clean;
  clean.topology = "clique";
  clean.n = 2;
  clean.meals = 1;

  LivenessConfig broken = drop_fork_config();
  broken.meals = 1;

  for (const bool use_broken : {false, true}) {
    const LivenessConfig& cfg = use_broken ? broken : clean;
    Options opt;
    opt.max_depth = 80;
    opt.max_nodes = 20'000'000;
    opt.include_timers = false;  // message-driven: the worlds stay tick-insensitive
    opt.threads = 2;
    const Result plain = explore(as_world_factory(cfg), opt);
    opt.sleep_sets = true;
    const Result pruned = explore(as_world_factory(cfg), opt);

    EXPECT_EQ(plain.violation_found, pruned.violation_found);
    EXPECT_EQ(plain.violation, pruned.violation);
    EXPECT_FALSE(plain.budget_exhausted);
    EXPECT_FALSE(pruned.budget_exhausted);
    EXPECT_LE(pruned.nodes_executed, plain.nodes_executed);
    if (use_broken) {
      // The dropped handover strands the requester; with timers excluded
      // the stranded state is a deadlock on every schedule. (No pruning
      // expected here: one hungry process serializes every schedule on a
      // single edge, so no two eligible deliveries ever commute.)
      EXPECT_TRUE(plain.violation_found);
      EXPECT_NE(plain.violation.find("deadlock"), std::string::npos) << plain.violation;
    } else {
      EXPECT_TRUE(plain.ok()) << plain.violation;
      EXPECT_GT(plain.paths_completed, 0u);
      // Both hungry: the two opening pings commute, so the reduction
      // must actually have engaged for the verdict equality to mean
      // anything.
      EXPECT_GT(pruned.sleep_pruned, 0u);
    }
  }
}

}  // namespace
