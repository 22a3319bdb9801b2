// rt-saturate: the daemon used as a service, at capacity.
//
// The real-threads engine with one worker shard, so the shard and the
// recorder's collector thread are the only busy threads (on a shared host
// more shards make the CPU cost of a meal depend on how the scheduler
// interleaves them, through steals and parks); a sparse graph of 256
// diners, the perfect detector, and observability on (live monitors + the
// streaming recorder), as an operator would run it.
// Think and eat times are a few ticks of 2 µs, which keeps the executor
// CPU-bound. The window is fixed work, not a horizon: start, poll the
// driver's meal count until kMeals, then stop and join — the join is
// inside the window, so the collector's drain backlog counts.
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "dining/checkers.hpp"
#include "obs/telemetry.hpp"
#include "scenario/rt_scenario.hpp"

namespace perfbench {
namespace {

using ekbd::scenario::Config;
using ekbd::scenario::RtScenario;
using ekbd::sim::MsgLayer;
using ekbd::sim::Time;

constexpr std::size_t kN = 256;
constexpr std::uint64_t kMeals = 100'000;
constexpr std::uint64_t kTickNs = 2'000;
constexpr std::size_t kShards = 1;
/// Live telemetry sample period of the traced trials, in poll rounds.
constexpr int kSnapshotEvery = 5;

Config make_config(std::uint64_t seed) {
  Config cfg;
  cfg.engine = ekbd::scenario::Engine::kRt;
  cfg.seed = seed;
  cfg.topology = "sparse";
  cfg.n = kN;
  cfg.algorithm = ekbd::scenario::Algorithm::kWaitFree;
  cfg.detector = ekbd::scenario::DetectorKind::kPerfect;
  cfg.observability = true;
  cfg.rt_shards = kShards;
  cfg.rt_tick_ns = kTickNs;
  cfg.harness.think_lo = 1;
  cfg.harness.think_hi = 4;
  cfg.harness.eat_lo = 1;
  cfg.harness.eat_hi = 3;
  cfg.harness.first_hunger_hi = 4;
  return cfg;
}

Trial run_trial(const RunArgs& args, Tracer* tr) {
  Trial t;
  const Tracer::Scope root(tr, "bench.trial");
  const Config cfg = make_config(args.seed);
  if (tr != nullptr) {
    const Tracer::Scope s(tr, "graph.build");
    const double t0 = now_s();
    const auto g = ekbd::scenario::build_conflict_graph(cfg);
    t.layer["graph.build_s"] = now_s() - t0;
    tr->counter("graph.edges", static_cast<double>(g.num_edges()));
  }

  double t0 = now_s();
  std::unique_ptr<RtScenario> sc;
  {
    const Tracer::Scope s(tr, "scenario.build");
    sc = std::make_unique<RtScenario>(cfg);
  }
  t.setup_s = now_s() - t0;
  t.layer["scenario.build_s"] = t.setup_s;

  ekbd::rt::Runtime& rt = sc->runtime();
  const double w0 = now_s();
  const double c0 = cpu_now_s();
  {
    const Tracer::Scope s(tr, "rt.start");
    rt.start();
  }
  t.layer["rt.start_s"] = now_s() - w0;
  {
    const Tracer::Scope s(tr, "rt.run");
    int round = 0;
    while (sc->driver().latency_histogram().count() < kMeals) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (tr != nullptr && ++round % kSnapshotEvery == 0) {
        // Live telemetry snapshot, the same reads RtScenario's
        // rt_telemetry_interval loop makes: per-shard executor counters
        // and the recorder's stream stats.
        const auto shards = rt.stats_per_shard();
        for (std::size_t i = 0; i < shards.size(); ++i) {
          tr->counter("shard" + std::to_string(i) + ".dispatches",
                      static_cast<double>(shards[i].dispatches));
          tr->counter("shard" + std::to_string(i) + ".parks",
                      static_cast<double>(shards[i].parks));
        }
        const ekbd::rt::StreamStats ss = sc->recorder().stream_stats();
        tr->counter("stream.merged_events", static_cast<double>(ss.merged_events));
        tr->counter("stream.max_pending", static_cast<double>(ss.max_pending));
      }
    }
  }
  const double j0 = now_s();
  {
    const Tracer::Scope s(tr, "rt.join");
    rt.stop_and_join();
    sc->recorder().set_end_time(rt.now());
  }
  const double w1 = now_s();
  t.window_s = w1 - w0;
  t.window_cpu_s = cpu_now_s() - c0;
  t.layer["rt.join_s"] = w1 - j0;

  const ekbd::dining::Trace& trace = sc->trace();
  const ekbd::sim::Network& net = sc->recorder().network();
  const double meals = static_cast<double>(trace.count(ekbd::dining::TraceEventKind::kStartEating));
  t.work = meals;

  // -- post-run checks (the verify window) --------------------------------
  t0 = now_s();
  ekbd::dining::ExclusionReport excl;
  std::vector<ekbd::dining::OvertakeObservation> census;
  std::vector<ekbd::dining::HungrySession> sessions;
  std::string disagreement;
  {
    const Tracer::Scope s(tr, "dining.check");
    excl = sc->exclusion();
    census = sc->census();
    sessions = ekbd::dining::hungry_sessions(trace);
  }
  t.layer["dining.check_s"] = now_s() - t0;
  {
    const Tracer::Scope s(tr, "obs.agreement");
    const double a0 = now_s();
    disagreement = sc->monitor_agreement();
    t.layer["obs.agreement_s"] = now_s() - a0;
  }
  t.verify_s = now_s() - t0;

  const ekbd::rt::StreamStats ss = sc->recorder().stream_stats();
  const ekbd::rt::ExecutorStats ex = rt.stats();

  // Hungry→eat waits from the recorder's trace (no crashes in this
  // workload, so every process is correct), in µs via the tick length.
  std::vector<double> waits;
  std::vector<bool> ate(kN, false);
  for (const auto& s : sessions) {
    if (!s.completed()) continue;
    waits.push_back(static_cast<double>(s.response_time()) * kTickNs / 1000.0);
    ate[static_cast<std::size_t>(s.process)] = true;
  }
  std::size_t never_ate = 0;
  for (std::size_t p = 0; p < kN; ++p) {
    if (!ate[p] && !rt.crashed(static_cast<ekbd::sim::ProcessId>(p))) ++never_ate;
  }

  const std::size_t disagreements = disagreement.empty() ? 0 : 1;
  t.attempted = sessions.size();
  t.failed = disagreements + excl.violations.size() + ss.dropped_records;
  if (!disagreement.empty()) t.errors.push_back("monitor agreement: " + disagreement);
  if (!excl.violations.empty()) {
    t.errors.push_back("exclusion: " + std::to_string(excl.violations.size()) +
                       " violations under the perfect detector");
  }
  if (never_ate != 0) {
    t.errors.push_back("liveness: " + std::to_string(never_ate) + " live actors never ate");
  }
  if (ss.dropped_records != 0) {
    t.errors.push_back("stream: " + std::to_string(ss.dropped_records) + " records shed");
  }
  if (meals < static_cast<double>(kMeals)) t.errors.push_back("fewer meals than the fixed work");

  const double dining_msgs = static_cast<double>(net.total_sent(MsgLayer::kDining));
  const double fd_msgs = static_cast<double>(net.total_sent(MsgLayer::kDetector));
  t.report["meals_per_s"] = {meals / t.window_s, "1/s"};
  t.report["wait_p50_us"] = {percentile(waits, 0.50), "us"};
  t.report["wait_p99_us"] = {percentile(waits, 0.99), "us"};
  t.report["wait_samples"] = {static_cast<double>(waits.size()), "count"};
  t.report["msgs_per_meal"] = {(dining_msgs + fd_msgs) / meals, "msgs"};
  t.report["max_overtakes"] = {static_cast<double>(ekbd::dining::max_overtakes(census)),
                               "count"};

  t.layer["fd.msgs_per_meal"] = fd_msgs / meals;
  t.layer["core.msgs_per_meal"] = dining_msgs / meals;
  t.layer["dining.meals"] = meals;
  t.layer["dining.trace_events"] = static_cast<double>(trace.size());
  t.layer["rt.dispatches_per_meal"] = static_cast<double>(ex.dispatches) / meals;
  t.layer["rt.dispatches_per_run"] =
      ex.runs == 0 ? 0.0 : static_cast<double>(ex.dispatches) / static_cast<double>(ex.runs);
  t.layer["rt.steals"] = static_cast<double>(ex.steals);
  t.layer["rt.helps"] = static_cast<double>(ex.helps);
  t.layer["rt.timer_helps"] = static_cast<double>(ex.timer_helps);
  t.layer["rt.parks"] = static_cast<double>(ex.parks);
  t.layer["rt.stream.merged_per_meal"] = static_cast<double>(ss.merged_events) / meals;
  t.layer["rt.stream.max_pending"] = static_cast<double>(ss.max_pending);
  t.layer["rt.stream.dropped_records"] = static_cast<double>(ss.dropped_records);
  t.layer["obs.disagreements"] = static_cast<double>(disagreements);

  if (tr != nullptr) {
    const Tracer::Scope s(tr, "obs.collect");
    ekbd::obs::collect_network_metrics(net, *sc->metrics());
    tr->counter("rt.dispatches", static_cast<double>(ex.dispatches));
    tr->counter("rt.runs", static_cast<double>(ex.runs));
    tr->counter("stream.collect_passes", static_cast<double>(ss.collect_passes));
    tr->counter("stream.merged_events", static_cast<double>(ss.merged_events));
    tr->counter("net.sent.dining", dining_msgs);
  }
  {
    const Tracer::Scope s(tr, "scenario.destroy");
    sc.reset();
  }
  return t;
}

double setup_probe(const RunArgs& args) {
  const double t0 = now_s();
  RtScenario sc(make_config(args.seed));
  return now_s() - t0;
}

}  // namespace

Workload make_rt_workload() {
  return Workload{.name = "rt-saturate",
                  .unit_of_work = "meals",
                  .setup_probe = setup_probe,
                  .trial = run_trial,
                  .shards_threads = "engine=rt shards=" + std::to_string(kShards)};
}

}  // namespace perfbench
