// mc-k3: certifying P3 (every correct hungry process eventually eats) on
// the full K3 dining universe — the same check as E23's certify/p3-k3 row:
// max_depth 120, max_nodes 80M, timers off, weak-event fairness, two
// threads. The search is exhaustive, so the work is fixed by the model
// and not by the seed: every run must certify exactly 48,899 states in
// one non-trivial SCC.
#include <string>

#include "bench.hpp"
#include "graph/topology.hpp"
#include "mc/liveness.hpp"
#include "obs/telemetry.hpp"
#include "scenario/liveness.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kStates = 48'899;
constexpr std::uint64_t kSccs = 1;
constexpr std::size_t kThreads = 2;

ekbd::scenario::LivenessConfig make_config() {
  ekbd::scenario::LivenessConfig cfg;
  cfg.topology = "clique";
  cfg.n = 3;
  return cfg;
}

ekbd::mc::Options make_options() {
  ekbd::mc::Options opt;
  opt.max_depth = 120;
  opt.max_nodes = 80'000'000;
  opt.include_timers = false;
  opt.threads = kThreads;
  opt.fairness = ekbd::mc::Fairness::kWeakEvent;
  return opt;
}

/// Config → ready to run: the world factory plus one initial world (the
/// checker rebuilds every state from this factory).
ekbd::mc::LivenessWorldFactory build_factory() {
  ekbd::mc::LivenessWorldFactory factory =
      ekbd::scenario::make_dinner_liveness_factory(make_config());
  factory();  // the initial world, built and dropped as every replay does
  return factory;
}

Trial run_trial(const RunArgs& /*args*/, Tracer* tr) {
  Trial t;
  const Tracer::Scope root(tr, "bench.trial");
  if (tr != nullptr) {
    const Tracer::Scope s(tr, "graph.build");
    const double t0 = now_s();
    ekbd::sim::Rng rng(1);
    const auto g = ekbd::graph::by_name("clique", 3, rng);
    t.layer["graph.build_s"] = now_s() - t0;
    tr->counter("graph.edges", static_cast<double>(g.num_edges()));
  }

  double t0 = now_s();
  ekbd::mc::LivenessWorldFactory factory;
  {
    const Tracer::Scope s(tr, "scenario.build");
    factory = build_factory();
  }
  t.setup_s = now_s() - t0;
  t.layer["scenario.build_s"] = t.setup_s;

  t0 = now_s();
  const double c0 = cpu_now_s();
  ekbd::mc::Result r;
  {
    const Tracer::Scope s(tr, "mc.check_liveness");
    r = ekbd::mc::check_liveness(factory, make_options());
  }
  t.window_s = now_s() - t0;
  t.window_cpu_s = cpu_now_s() - c0;

  t0 = now_s();
  const bool certified = r.ok() && r.paths_truncated == 0 && !r.budget_exhausted &&
                         r.fair_cycles == 0;
  t.verify_s = now_s() - t0;

  const double states = static_cast<double>(r.unique_states);
  t.work = states;
  t.attempted = 1;
  t.failed = certified ? 0 : 1;
  if (!certified) {
    t.errors.push_back("not certified: " + r.violation + r.config_error +
                       " truncated=" + std::to_string(r.paths_truncated) +
                       " budget_exhausted=" + std::to_string(r.budget_exhausted) +
                       " fair_cycles=" + std::to_string(r.fair_cycles));
  }
  if (r.unique_states != kStates) {
    t.errors.push_back("unique_states " + std::to_string(r.unique_states) + " != " +
                       std::to_string(kStates));
  }
  if (r.scc_count != kSccs) {
    t.errors.push_back("scc_count " + std::to_string(r.scc_count) + " != " +
                       std::to_string(kSccs));
  }

  const double nodes = static_cast<double>(r.nodes_executed);
  t.report["states_per_s"] = {states / t.window_s, "1/s"};

  t.layer["mc.unique_states"] = states;
  t.layer["mc.scc_count"] = static_cast<double>(r.scc_count);
  t.layer["mc.nodes_executed"] = nodes;
  t.layer["mc.replayed_events"] = static_cast<double>(r.replayed_events);
  t.layer["mc.replay_per_node"] = nodes == 0 ? 0.0 : static_cast<double>(r.replayed_events) / nodes;
  t.layer["mc.ns_per_node"] = nodes == 0 ? 0.0 : t.window_s * 1e9 / nodes;

  t.exact["mc.unique_states"] = states;
  t.exact["mc.scc_count"] = static_cast<double>(r.scc_count);
  t.exact["mc.nodes_executed"] = nodes;
  t.exact["mc.replayed_events"] = static_cast<double>(r.replayed_events);

  if (tr != nullptr) {
    // Module counters through the public collector.
    const Tracer::Scope s(tr, "obs.collect");
    ekbd::obs::MetricsRegistry reg;
    ekbd::obs::collect_mc_metrics(r.nodes_executed, r.sleep_pruned, r.wall_seconds, reg);
    if (const auto* c = reg.find_counter("mc.nodes_executed")) {
      tr->counter("mc.nodes_executed", static_cast<double>(c->get()));
    }
    if (const auto* g = reg.find_gauge("mc.states_per_sec")) {
      tr->counter("mc.states_per_sec", static_cast<double>(g->get()));
    }
    tr->counter("mc.replayed_events", static_cast<double>(r.replayed_events));
    tr->counter("mc.unique_states", states);
  }
  return t;
}

double setup_probe(const RunArgs& /*args*/) {
  const double t0 = now_s();
  const ekbd::mc::LivenessWorldFactory factory = build_factory();
  return now_s() - t0;
}

}  // namespace

Workload make_mc_workload() {
  return Workload{.name = "mc-k3",
                  .unit_of_work = "states",
                  .setup_probe = setup_probe,
                  .trial = run_trial,
                  .shards_threads = "engine=mc threads=" + std::to_string(kThreads)};
}

}  // namespace perfbench
