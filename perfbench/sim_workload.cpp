// sim-crash-hb: the paper's full model on the discrete-event simulator.
//
// A sparse random conflict graph (n = 512, average degree 4), Algorithm 1,
// partial synchrony, the real heartbeat ◇P₁ with default parameters, and
// eight scheduled crashes, run to a fixed virtual horizon. The seed fixes
// the graph, the crash plan and every random stream, so it fixes the work
// exactly: every trial of one seed must reproduce the same event, meal and
// message counts.
#include <string>
#include <utility>

#include "bench.hpp"
#include "dining/checkers.hpp"
#include "obs/telemetry.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {
namespace {

using ekbd::scenario::Config;
using ekbd::scenario::Scenario;
using ekbd::sim::MsgLayer;
using ekbd::sim::Time;

constexpr std::size_t kN = 512;
constexpr Time kHorizon = 20'000;
constexpr std::size_t kCrashes = 8;

Config make_config(std::uint64_t seed, bool observability) {
  Config cfg;
  cfg.seed = seed;
  cfg.topology = "sparse";
  cfg.n = kN;
  cfg.algorithm = ekbd::scenario::Algorithm::kWaitFree;
  cfg.partial_synchrony = true;
  cfg.detector = ekbd::scenario::DetectorKind::kHeartbeat;
  cfg.run_for = kHorizon;
  cfg.observability = observability;
  // Crash plan from the seed: distinct victims, crash times spread over
  // the first half of the run so the detector converges well before the
  // horizon.
  ekbd::sim::Rng rng(seed ^ 0xC4A5E5ULL);
  std::vector<bool> taken(kN, false);
  while (cfg.crashes.size() < kCrashes) {
    const std::size_t p = rng.index(kN);
    if (taken[p]) continue;
    taken[p] = true;
    cfg.crashes.emplace_back(static_cast<ekbd::sim::ProcessId>(p),
                             rng.uniform_int(kHorizon / 10, kHorizon / 2));
  }
  return cfg;
}

Trial run_trial(const RunArgs& args, Tracer* tr) {
  Trial t;
  const Tracer::Scope root(tr, "bench.trial");
  const Config cfg = make_config(args.seed, /*observability=*/tr != nullptr);
  if (tr != nullptr) {
    // The scenario constructor builds the same graph internally; this
    // separate call with the same config times that step on its own.
    const Tracer::Scope s(tr, "graph.build");
    const double t0 = now_s();
    const auto g = ekbd::scenario::build_conflict_graph(cfg);
    t.layer["graph.build_s"] = now_s() - t0;
    tr->counter("graph.edges", static_cast<double>(g.num_edges()));
  }

  double t0 = now_s();
  std::unique_ptr<Scenario> sc;
  {
    const Tracer::Scope s(tr, "scenario.build");
    sc = std::make_unique<Scenario>(cfg);
  }
  t.setup_s = now_s() - t0;
  t.layer["scenario.build_s"] = t.setup_s;

  t0 = now_s();
  const double c0 = cpu_now_s();
  {
    const Tracer::Scope s(tr, "sim.run");
    sc->run();
  }
  t.window_s = now_s() - t0;
  t.window_cpu_s = cpu_now_s() - c0;

  const ekbd::sim::Simulator& sim = sc->sim();
  const ekbd::sim::Network& net = sim.network();
  const double events = static_cast<double>(sim.events_processed());
  const double dining_msgs = static_cast<double>(net.total_sent(MsgLayer::kDining));
  const double fd_msgs = static_cast<double>(net.total_sent(MsgLayer::kDetector));

  // -- post-run checks (the verify window) --------------------------------
  t0 = now_s();
  ekbd::dining::ExclusionReport excl;
  ekbd::dining::WaitFreedomReport wf;
  std::vector<ekbd::dining::OvertakeObservation> census;
  std::vector<ekbd::dining::HungrySession> sessions;
  Time convergence = 0;
  {
    const Tracer::Scope s(tr, "dining.check");
    excl = sc->exclusion();
    wf = sc->wait_freedom(/*starvation_horizon=*/kHorizon / 5);
    census = sc->census();
    sessions = ekbd::dining::hungry_sessions(sc->trace());
    convergence = sc->fd_convergence_estimate();
  }
  t.verify_s = now_s() - t0;
  t.layer["dining.check_s"] = t.verify_s;

  const double meals =
      static_cast<double>(sc->trace().count(ekbd::dining::TraceEventKind::kStartEating));
  t.work = meals;

  // Hungry→eat waits of never-crashed processes.
  const std::vector<Time> crash_times = sc->harness().crash_times();
  std::vector<double> waits;
  for (const auto& s : sessions) {
    if (s.completed() && crash_times[static_cast<std::size_t>(s.process)] < 0) {
      waits.push_back(static_cast<double>(s.response_time()));
    }
  }

  const std::size_t late_violations = excl.violations_after(convergence);
  t.attempted = sessions.size();
  t.failed = wf.starving.size() + late_violations;
  if (!wf.wait_free()) {
    t.errors.push_back("wait-freedom: " + std::to_string(wf.starving.size()) +
                       " correct processes starving");
  }
  if (late_violations != 0) {
    t.errors.push_back("exclusion: " + std::to_string(late_violations) +
                       " violations after detector convergence at t=" +
                       std::to_string(convergence));
  }
  if (meals <= 0) t.errors.push_back("no meals");

  t.report["meals_per_s"] = {meals / t.window_s, "1/s"};
  t.report["wait_p50_ticks"] = {percentile(waits, 0.50), "ticks"};
  t.report["wait_p99_ticks"] = {percentile(waits, 0.99), "ticks"};
  t.report["wait_samples"] = {static_cast<double>(waits.size()), "count"};
  t.report["msgs_per_meal"] = {(dining_msgs + fd_msgs) / meals, "msgs"};
  t.report["max_overtakes_after_convergence"] = {
      static_cast<double>(ekbd::dining::max_overtakes(census, convergence)), "count"};

  t.layer["sim.events"] = events;
  t.layer["sim.events_per_meal"] = events / meals;
  t.layer["sim.ns_per_event"] = t.window_s * 1e9 / events;
  t.layer["sim.run_s"] = t.window_s;
  t.layer["fd.msgs_per_meal"] = fd_msgs / meals;
  t.layer["core.msgs_per_meal"] = dining_msgs / meals;
  t.layer["dining.meals"] = meals;
  t.layer["dining.trace_events"] = static_cast<double>(sc->trace().size());

  t.exact["sim.events"] = events;
  t.exact["dining.meals"] = meals;
  t.exact["net.sent.dining"] = dining_msgs;
  t.exact["net.sent.detector"] = fd_msgs;
  t.exact["net.sent.other"] = static_cast<double>(net.total_sent(MsgLayer::kOther));
  t.exact["net.sent.transport"] = static_cast<double>(net.total_sent(MsgLayer::kTransport));
  t.exact["dining.hungry_sessions"] = static_cast<double>(sessions.size());

  if (tr != nullptr) {
    // Module counters at the run boundary, through the public switches:
    // Config::observability (registry + monitors) and the obs collectors.
    const Tracer::Scope s(tr, "obs.agreement");
    const double a0 = now_s();
    ekbd::obs::collect_network_metrics(net, *sc->metrics());
    const std::string disagreement =
        sc->monitors()->agreement_failures(sc->trace(), sc->graph(), net);
    t.layer["obs.agreement_s"] = now_s() - a0;
    t.layer["obs.disagreements"] = disagreement.empty() ? 0.0 : 1.0;
    if (!disagreement.empty()) t.errors.push_back("monitor agreement: " + disagreement);
    if (const auto* c = sc->metrics()->find_counter("sim.events")) {
      tr->counter("sim.events", static_cast<double>(c->get()));
    }
    if (const auto* c = sc->metrics()->find_counter("dining.meals")) {
      tr->counter("dining.meals", static_cast<double>(c->get()));
    }
    tr->counter("net.sent.dining", dining_msgs);
    tr->counter("net.sent.detector", fd_msgs);
  }
  {
    const Tracer::Scope s(tr, "scenario.destroy");
    sc.reset();
  }
  return t;
}

double setup_probe(const RunArgs& args) {
  const double t0 = now_s();
  Scenario sc(make_config(args.seed, /*observability=*/false));
  return now_s() - t0;
}

}  // namespace

Workload make_sim_workload() {
  return Workload{.name = "sim-crash-hb",
                  .unit_of_work = "meals",
                  .setup_probe = setup_probe,
                  .trial = run_trial,
                  .shards_threads = "engine=sim threads=1"};
}

}  // namespace perfbench
