// Drinking philosophers tests: safety (shared-bottle exclusion), wait-free
// progress, concurrency beyond dining, and the co-eating tie-break.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "dining/checkers.hpp"
#include "drinking/drinking_harness.hpp"
#include "fd/scripted.hpp"
#include "graph/coloring.hpp"
#include "graph/topology.hpp"

namespace {

using ekbd::dining::TraceEventKind;
using ekbd::drinking::DrinkingDiner;
using ekbd::drinking::DrinkingHarness;
using ekbd::drinking::DrinkingOptions;
using ekbd::fd::ScriptedDetector;
using ekbd::sim::ProcessId;
using ekbd::sim::Simulator;
using ekbd::sim::Time;

struct World {
  World(ekbd::graph::ConflictGraph g, std::uint64_t seed, DrinkingOptions opt = {})
      : graph(std::move(g)),
        sim(seed, ekbd::sim::make_uniform_delay(1, 8)),
        det(sim, 120),
        harness(sim, graph, opt) {
    colors = ekbd::graph::welsh_powell_coloring(graph);
    for (std::size_t v = 0; v < graph.size(); ++v) {
      const auto p = static_cast<ProcessId>(v);
      std::vector<ProcessId> neighbors = graph.neighbors(p);
      std::vector<int> ncolors;
      for (ProcessId j : neighbors) ncolors.push_back(colors[static_cast<std::size_t>(j)]);
      drinkers.push_back(
          sim.make_actor<DrinkingDiner>(std::move(neighbors), colors[v], std::move(ncolors),
                                        det));
      harness.manage(drinkers.back());
    }
  }
  ekbd::graph::ConflictGraph graph;
  Simulator sim;
  ScriptedDetector det;
  DrinkingHarness harness;
  ekbd::graph::Coloring colors;
  std::vector<DrinkingDiner*> drinkers;
};

TEST(Drinking, EveryoneDrinksRepeatedly) {
  World w(ekbd::graph::ring(6), 1);
  w.harness.run_until(40'000);
  for (std::size_t p = 0; p < 6; ++p) {
    EXPECT_GT(w.harness.drink_trace().count(TraceEventKind::kStartEating,
                                            static_cast<int>(p)),
              10u)
        << p;
  }
  EXPECT_EQ(w.harness.shared_bottle_violations(), 0u);
  for (auto* d : w.drinkers) EXPECT_EQ(d->bottle_conservation_violations(), 0u);
}

TEST(Drinking, DiningSessionsAreBriefCatalysts) {
  // The construction holds the dining CS only until the drink can start:
  // dining meals must be much shorter than drinks on average.
  DrinkingOptions opt;
  opt.drink_lo = 80;
  opt.drink_hi = 120;
  World w(ekbd::graph::ring(6), 2, opt);
  w.harness.run_until(40'000);
  double meal_total = 0, drink_total = 0;
  for (const auto& s : hungry_sessions(w.harness.dining_trace())) {
    if (s.completed()) {
      // meal length = stop - start; reconstruct from the trace horizon via
      // the drink trace instead: use session response as proxy not needed.
      (void)s;
    }
  }
  // Direct measurement: time-weighted eating vs drinking occupancy.
  auto occupancy = [](const ekbd::dining::Trace& trace) {
    double total = 0;
    std::vector<Time> start(64, -1);
    for (const auto& e : trace.events()) {
      auto p = static_cast<std::size_t>(e.process);
      if (e.kind == TraceEventKind::kStartEating) start[p] = e.at;
      if (e.kind == TraceEventKind::kStopEating && start[p] >= 0) {
        total += static_cast<double>(e.at - start[p]);
        start[p] = -1;
      }
    }
    return total;
  };
  meal_total = occupancy(w.harness.dining_trace());
  drink_total = occupancy(w.harness.drink_trace());
  ASSERT_GT(drink_total, 0.0);
  EXPECT_LT(meal_total, drink_total / 4.0)
      << "dining sessions should be brief (meals " << meal_total << " vs drinks "
      << drink_total << ")";
}

TEST(Drinking, ConcurrencyExceedsDiningOnSparseNeeds) {
  // With sparse needs, adjacent processes drink simultaneously (disjoint
  // bottles) — something the dining layer alone forbids. Expect the
  // number of adjacent-overlap drink pairs to be substantial, with zero
  // shared-bottle violations.
  DrinkingOptions opt;
  opt.need_prob = 0.3;
  opt.dry_lo = 5;
  opt.dry_hi = 30;
  opt.drink_lo = 50;
  opt.drink_hi = 100;
  World w(ekbd::graph::ring(8), 3, opt);
  w.harness.run_until(60'000);
  // Adjacent overlaps in the DRINK trace (violations of dining-style
  // exclusion — which is precisely drinking's concurrency win):
  auto ex = ekbd::dining::check_exclusion(w.harness.drink_trace(), w.graph);
  EXPECT_GT(ex.violations.size(), 50u)
      << "neighbors should routinely drink simultaneously on disjoint bottles";
  EXPECT_EQ(w.harness.shared_bottle_violations(), 0u)
      << "but never while both need the shared bottle";
  EXPECT_GT(w.harness.mean_concurrent_drinkers(), 2.0);
}

TEST(Drinking, FullNeedsReducesToDiningExclusion) {
  // With need_prob = 1 every session needs every incident bottle: adjacent
  // drinks must then never overlap at all (post-convergence; detector here
  // never lies), recovering dining semantics.
  DrinkingOptions opt;
  opt.need_prob = 1.0;
  World w(ekbd::graph::ring(6), 4, opt);
  w.harness.run_until(40'000);
  auto ex = ekbd::dining::check_exclusion(w.harness.drink_trace(), w.graph);
  EXPECT_TRUE(ex.violations.empty());
  EXPECT_EQ(w.harness.shared_bottle_violations(), 0u);
}

TEST(Drinking, WaitFreePastACrashedBottleHolder) {
  // p2 crashes (holding whatever bottles it holds); its neighbors keep
  // drinking via suspicion. Uses full needs so the dead bottle matters.
  DrinkingOptions opt;
  opt.need_prob = 1.0;
  World w(ekbd::graph::ring(6), 5, opt);
  w.harness.schedule_crash(2, 8'000);
  w.harness.run_until(80'000);
  for (ProcessId p : {1, 3}) {  // the victim's neighbors
    std::size_t late_drinks = 0;
    for (const auto& e : w.harness.drink_trace().events()) {
      if (e.kind == TraceEventKind::kStartEating && e.process == p && e.at > 12'000) {
        ++late_drinks;
      }
    }
    EXPECT_GT(late_drinks, 10u) << "p" << p << " starved next to the corpse";
  }
  auto wf = ekbd::dining::check_wait_freedom(w.harness.drink_trace(),
                                             w.harness.crash_times(), 20'000);
  EXPECT_TRUE(wf.wait_free());
}

TEST(Drinking, PreConvergenceMistakesAreFiniteAndEarly) {
  // Scripted mutual false positives let neighbors drink sharing a bottle
  // before convergence; afterwards, never again (the drinking analogue of
  // Theorem 1).
  DrinkingOptions opt;
  opt.need_prob = 1.0;
  opt.dry_lo = 5;
  opt.dry_hi = 40;
  ekbd::graph::ConflictGraph g = ekbd::graph::ring(6);
  Simulator sim(7, ekbd::sim::make_uniform_delay(1, 8));
  ScriptedDetector det(sim, 120);
  for (const auto& [a, b] : g.edges()) det.add_mutual_false_positive(a, b, 500, 4'000);
  DrinkingHarness harness(sim, g, opt);
  auto colors = ekbd::graph::welsh_powell_coloring(g);
  for (std::size_t v = 0; v < g.size(); ++v) {
    const auto p = static_cast<ProcessId>(v);
    std::vector<ProcessId> neighbors = g.neighbors(p);
    std::vector<int> ncolors;
    for (ProcessId j : neighbors) ncolors.push_back(colors[static_cast<std::size_t>(j)]);
    harness.manage(sim.make_actor<DrinkingDiner>(std::move(neighbors), colors[v],
                                                 std::move(ncolors), det));
  }
  harness.run_until(80'000);
  EXPECT_GT(harness.shared_bottle_violations(), 0u) << "scenario failed to cause mistakes";
  EXPECT_LT(harness.last_violation(), 8'000) << "violations persisted past convergence";
  // And the system is still live for everyone afterwards.
  for (std::size_t p = 0; p < 6; ++p) {
    std::size_t late = 0;
    for (const auto& e : harness.drink_trace().events()) {
      if (e.kind == TraceEventKind::kStartEating && e.process == static_cast<int>(p) &&
          e.at > 40'000) {
        ++late;
      }
    }
    EXPECT_GT(late, 5u) << p;
  }
}

// ------------------------- parameterized sweep ---------------------------

struct DrinkSweep {
  const char* topology;
  std::size_t n;
  std::uint64_t seed;
  double need_prob;
  std::size_t crashes;

  // Without this gtest prints the raw bytes, pointer included, so the
  // listed test names would change from one run to the next.
  friend std::ostream& operator<<(std::ostream& os, const DrinkSweep& s) {
    return os << s.topology << "_n" << s.n << "_s" << s.seed << "_p" << s.need_prob << "_f"
              << s.crashes;
  }
};

class DrinkingSweep : public ::testing::TestWithParam<DrinkSweep> {};

TEST_P(DrinkingSweep, SafeLiveAndConservative) {
  const DrinkSweep& sw = GetParam();
  ekbd::sim::Rng trng(sw.seed ^ 0xD21);
  DrinkingOptions opt;
  opt.need_prob = sw.need_prob;
  opt.dry_lo = 5;
  opt.dry_hi = 60;
  World w(ekbd::graph::by_name(sw.topology, sw.n, trng), sw.seed, opt);
  for (std::size_t i = 0; i < sw.crashes; ++i) {
    w.harness.schedule_crash(static_cast<ProcessId>((i * 3 + 1) % sw.n),
                             10'000 + static_cast<Time>(i) * 8'000);
  }
  w.harness.run_until(90'000);

  // Safety: never two live neighbors drinking while both need the bottle
  // (detector here is truthful, so zero tolerance).
  EXPECT_EQ(w.harness.shared_bottle_violations(), 0u);
  // Conservation (Lemma 1.1 analogue for bottles).
  for (auto* d : w.drinkers) EXPECT_EQ(d->bottle_conservation_violations(), 0u);
  // Liveness: every correct process keeps completing drinks.
  auto wf = ekbd::dining::check_wait_freedom(w.harness.drink_trace(),
                                             w.harness.crash_times(), 25'000);
  EXPECT_TRUE(wf.wait_free());
  EXPECT_GT(w.harness.drinks_completed(), sw.n * 5);
  // The dining substrate stayed clean too (truthful oracle, and crashed
  // diners leave the table).
  EXPECT_TRUE(
      ekbd::dining::check_exclusion(w.harness.dining_trace(), w.graph).violations.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DrinkingSweep,
    ::testing::Values(DrinkSweep{"ring", 6, 1, 1.0, 0}, DrinkSweep{"ring", 10, 2, 0.5, 1},
                      DrinkSweep{"ring", 8, 3, 0.3, 2}, DrinkSweep{"path", 7, 4, 0.7, 1},
                      DrinkSweep{"clique", 5, 5, 0.5, 1}, DrinkSweep{"clique", 6, 6, 1.0, 2},
                      DrinkSweep{"star", 8, 7, 0.6, 1}, DrinkSweep{"grid", 9, 8, 0.4, 1},
                      DrinkSweep{"tree", 9, 9, 0.6, 2}, DrinkSweep{"random", 10, 10, 0.5, 2},
                      DrinkSweep{"torus", 9, 11, 0.4, 1},
                      DrinkSweep{"hypercube", 8, 12, 0.5, 1}),
    [](const ::testing::TestParamInfo<DrinkSweep>& info) {
      return std::string(info.param.topology) + "_n" + std::to_string(info.param.n) + "_s" +
             std::to_string(info.param.seed) + "_f" + std::to_string(info.param.crashes);
    });

TEST(Drinking, EmptyNeedsDrinkImmediately) {
  DrinkingOptions opt;
  opt.need_prob = 0.0;  // every session needs nothing
  World w(ekbd::graph::ring(4), 8, opt);
  w.harness.run_until(10'000);
  EXPECT_GT(w.harness.drinks_completed(), 40u);
  EXPECT_EQ(w.harness.shared_bottle_violations(), 0u);
}

}  // namespace
