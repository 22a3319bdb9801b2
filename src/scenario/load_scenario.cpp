#include "scenario/load_scenario.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"

namespace ekbd::scenario {

using ekbd::dining::Diner;
using ekbd::load::ChurnOp;

LoadScenario::LoadScenario(LoadConfig cfg) : cfg_(std::move(cfg)), overload_(cfg_.overload) {
  // Checked in every build type: a baseline would run without the edge
  // handshake churn and rejoin rely on, kProc without a churn transport.
  if (cfg_.base.algorithm != Algorithm::kWaitFree) {
    throw std::invalid_argument(
        "LoadScenario: churn/rejoin are Algorithm-1 extensions; baselines have no edge "
        "handshake");
  }
  if (cfg_.base.engine == Engine::kProc) {
    throw std::invalid_argument(
        "LoadScenario: kProc needs the multi-process churn transport (not built yet)");
  }
  cfg_.base.observability = true;  // latency percentiles ride the obs histograms
  for (const RecoverySpec& r : cfg_.recoveries) {
    cfg_.base.crashes.emplace_back(r.p, r.crash_at);
  }

  // Plan churn against the engine-shared initial graph + coloring (both
  // engines derive exactly these from the Config, so the plan's private
  // copy starts in lockstep with the run).
  const ekbd::graph::ConflictGraph g = build_conflict_graph(cfg_.base);
  const ekbd::graph::Coloring colors = ekbd::graph::welsh_powell_coloring(g);
  std::vector<load::CrashWindow> windows;
  windows.reserve(cfg_.recoveries.size());
  for (const RecoverySpec& r : cfg_.recoveries) {
    windows.push_back({r.p, r.crash_at, r.recover_at, cfg_.churn_margin});
  }
  load::ChurnParams churn = cfg_.churn;
  if (churn.mutations > 0 && churn.end <= churn.start) {
    // Default window: the middle of the run, clear of startup and of the
    // drainless tail.
    churn.start = cfg_.base.run_for / 10;
    churn.end = cfg_.base.run_for - cfg_.base.run_for / 10;
  }
  plan_ = load::plan_churn(g, colors, churn, windows, cfg_.base.seed);
  churn_by_actor_.resize(g.size());
  for (const ChurnOp& op : plan_.ops) {
    churn_by_actor_[static_cast<std::size_t>(op.a)].push_back(op);
  }

  book_ = std::make_unique<load::LoadBook>(g.size());

  // Arrival streams: per-actor = one stream per vertex; global = one
  // stream dealt to random targets. The rt engine cannot inject across
  // dispatch claims, so a global spec is realized there as n per-actor
  // streams at rate/n (exact for Poisson by superposition).
  load::ArrivalSpec spec = cfg_.arrivals;
  const bool rt_engine = cfg_.base.engine == Engine::kRt;
  if (!spec.per_actor && rt_engine) spec = spec.split(g.size());
  const std::size_t streams = spec.per_actor ? g.size() : 1;
  ekbd::sim::Rng master(cfg_.base.seed ^ 0x10adc4a1ULL);
  arrivals_.reserve(streams);
  arrival_rngs_.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    arrivals_.emplace_back(spec);
    arrival_rngs_.push_back(master.fork(static_cast<std::uint64_t>(s) + 1));
  }

  if (rt_engine) {
    rt_ = std::make_unique<RtScenario>(cfg_.base);
    wire_rt();
  } else {
    sim_ = std::make_unique<Scenario>(cfg_.base);
    wire_sim();
  }
}

LoadScenario::~LoadScenario() = default;

ekbd::core::WaitFreeDiner* LoadScenario::wfd(ProcessId p) {
  if (sim_ != nullptr) return sim_->wait_free_diner(p);
  return dynamic_cast<ekbd::core::WaitFreeDiner*>(rt_->diner(p));
}

const ekbd::graph::ConflictGraph& LoadScenario::graph() const {
  return sim_ != nullptr ? sim_->graph() : rt_->graph();
}

const ekbd::dining::Trace& LoadScenario::trace() const {
  return sim_ != nullptr ? sim_->trace() : rt_->trace();
}

void LoadScenario::on_arrival(ProcessId p) {
  if (sim_ != nullptr && sim_->sim().crashed(p)) {
    book_->on_arrival_dropped();  // rt arrivals never run on a corpse
    return;
  }
  Diner* d = sim_ != nullptr ? sim_->diner(p) : rt_->diner(p);
  if (book_->on_arrival(static_cast<std::size_t>(p), d->thinking())) {
    d->become_hungry();
  }
}

void LoadScenario::issue_churn_op(const ChurnOp& op) {
  ekbd::core::WaitFreeDiner* d = wfd(op.a);
  switch (op.kind) {
    case ChurnOp::Kind::kAddEdge:
      d->request_add_edge(op.b);
      break;
    case ChurnOp::Kind::kRemoveEdge:
      d->request_remove_edge(op.b);
      break;
    case ChurnOp::Kind::kRecolor:
      d->request_recolor(op.color);
      break;
  }
  churn_issued_.fetch_add(1, std::memory_order_relaxed);
}

// -- sim wiring -------------------------------------------------------------

void LoadScenario::wire_sim() {
  ekbd::dining::Harness& h = sim_->harness();
  ekbd::sim::Simulator& sim = sim_->sim();
  // Open loop: the harness keeps driving eat durations and recording the
  // trace, but all hunger comes from the arrival streams.
  h.stop_hunger_after(0);
  h.set_exit_hook([this](ProcessId p) {
    book_->on_complete();
    // Drain deferred one tick: the hook fires mid-handler (before the
    // diner applies its pending churn ops), and become_hungry from inside
    // finish_eating would interleave with them.
    sim_->sim().schedule(sim_->sim().now() + 1, [this, p] {
      if (sim_->sim().crashed(p)) return;
      Diner* d = sim_->diner(p);
      if (d->thinking() && book_->try_drain(static_cast<std::size_t>(p))) {
        d->become_hungry();
      }
    });
  });

  for (const RecoverySpec& r : cfg_.recoveries) {
    sim.schedule(r.crash_at + 1, [this, p = r.p] {
      book_->on_crash(static_cast<std::size_t>(p));  // the queue dies with it
    });
    if (r.recover_at >= 0) sim.schedule_recovery(r.p, r.recover_at);
  }

  for (const ChurnOp& op : plan_.ops) {
    sim.schedule(op.at, [this, op] {
      if (sim_->sim().crashed(op.a)) {
        churn_skipped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      issue_churn_op(op);
    });
  }

  for (std::size_t s = 0; s < arrivals_.size(); ++s) schedule_sim_arrival(s);
}

void LoadScenario::schedule_sim_arrival(std::size_t stream) {
  ekbd::sim::Simulator& sim = sim_->sim();
  const Time t = arrivals_[stream].next_after(sim.now(), arrival_rngs_[stream]);
  if (t >= cfg_.base.run_for) return;
  sim.schedule(t, [this, stream] {
    const ProcessId p =
        arrivals_[stream].spec().per_actor
            ? static_cast<ProcessId>(stream)
            : static_cast<ProcessId>(arrival_rngs_[stream].index(graph().size()));
    on_arrival(p);
    schedule_sim_arrival(stream);
  });
}

void LoadScenario::schedule_sim_sample(Time at) {
  if (at >= cfg_.base.run_for) return;
  sim_->sim().schedule(at, [this, at] {
    overload_.observe({at, book_->offered(), book_->completed(), book_->total_backlog()});
    schedule_sim_sample(at + cfg_.sample_period);
  });
}

// -- rt wiring --------------------------------------------------------------

void LoadScenario::wire_rt() {
  ekbd::rt::DiningDriver& drv = rt_->driver();
  ekbd::rt::Runtime& rt = rt_->runtime();
  drv.stop_hunger_after(0);
  drv.set_exit_hook([this](ProcessId p) {
    book_->on_complete();
    // Same one-tick deferral as the sim hook: the claim is p's own, but
    // the diner is still inside finish_eating.
    rt_->runtime().call_after(p, 1, [this, p] {
      Diner* d = rt_->diner(p);
      if (d->thinking() && book_->try_drain(static_cast<std::size_t>(p))) {
        d->become_hungry();
      }
    });
  });
  drv.set_recover_hook([this](ProcessId p) {
    // Everything in the old incarnation's timer heap died with it: shed
    // the queue, restart the arrival chain, re-register the churn ops
    // still ahead of us.
    book_->on_crash(static_cast<std::size_t>(p));
    const Time now = rt_->runtime().now();
    for (const ChurnOp& op : churn_by_actor_[static_cast<std::size_t>(p)]) {
      if (op.at <= now) continue;
      rt_->runtime().call_after(p, op.at - now, [this, op] { issue_churn_op(op); });
    }
    start_rt_chain(p, now);
  });

  for (const RecoverySpec& r : cfg_.recoveries) {
    if (r.recover_at >= 0) rt.schedule_recovery(r.p, r.recover_at);
  }
  for (const auto& ops : churn_by_actor_) {
    for (const ChurnOp& op : ops) {
      rt.call_after(op.a, op.at, [this, op] { issue_churn_op(op); });
    }
  }
  for (std::size_t p = 0; p < graph().size(); ++p) {
    start_rt_chain(static_cast<ProcessId>(p), 0);
  }
}

void LoadScenario::start_rt_chain(ProcessId p, Time from) {
  const auto s = static_cast<std::size_t>(p);
  const Time t = arrivals_[s].next_after(from, arrival_rngs_[s]);
  if (t >= cfg_.base.run_for) return;
  rt_->runtime().call_after(p, t - from, [this, p] {
    on_arrival(p);
    start_rt_chain(p, rt_->runtime().now());
  });
}

// -- run + reports ----------------------------------------------------------

void LoadScenario::run() {
  assert(!ran_);
  ran_ = true;
  if (sim_ != nullptr) {
    schedule_sim_sample(cfg_.sample_period);
    sim_->run();
    overload_.observe({cfg_.base.run_for, book_->offered(), book_->completed(),
                       book_->total_backlog()});
    return;
  }
  // rt: sample from a side thread while run() blocks to the horizon. The
  // book's counters are relaxed atomics; the detector is only touched by
  // this thread until the join below publishes it back.
  std::atomic<bool> done{false};
  std::thread sampler([this, &done] {
    const auto period = std::chrono::nanoseconds(
        static_cast<std::uint64_t>(cfg_.sample_period) * cfg_.base.rt_tick_ns);
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(period);
      if (done.load(std::memory_order_acquire)) break;
      overload_.observe({rt_->runtime().now(), book_->offered(), book_->completed(),
                         book_->total_backlog()});
    }
  });
  rt_->run();
  done.store(true, std::memory_order_release);
  sampler.join();
  overload_.observe({rt_->runtime().now(), book_->offered(), book_->completed(),
                     book_->total_backlog()});
}

ekbd::dining::ExclusionReport LoadScenario::exclusion() const {
  return sim_ != nullptr ? sim_->exclusion() : rt_->exclusion();
}

ekbd::dining::WaitFreedomReport LoadScenario::wait_freedom(Time starvation_horizon) const {
  return sim_ != nullptr ? sim_->wait_freedom(starvation_horizon)
                         : rt_->wait_freedom(starvation_horizon);
}

std::string LoadScenario::monitor_agreement() const {
  if (sim_ != nullptr) {
    return sim_->monitors()->agreement_failures(sim_->trace(), sim_->graph(),
                                                sim_->sim().network());
  }
  return rt_->monitor_agreement();
}

ekbd::obs::Histogram LoadScenario::latency() const {
  if (sim_ != nullptr) {
    const ekbd::obs::Histogram* h =
        sim_->metrics()->find_histogram("dining.hungry_latency");
    return h != nullptr ? *h : ekbd::obs::Histogram(0.0, 1.0, 1);
  }
  return rt_->driver().latency_histogram();
}

std::string LoadScenario::telemetry_json() const {
  std::string out = sim_ != nullptr ? sim_->telemetry_json() : rt_->telemetry_json();
  const ekbd::obs::Histogram lat = latency();
  std::string lj = "{\"offered\":" + std::to_string(book_->offered());
  lj += ",\"completed\":" + std::to_string(book_->completed());
  lj += ",\"dropped\":" + std::to_string(book_->dropped());
  lj += ",\"max_actor_backlog\":" + std::to_string(book_->max_backlog());
  lj += ",\"overload\":" + overload_.to_json();
  lj += ",\"churn\":{\"planned\":" + std::to_string(plan_.ops.size());
  lj += ",\"adds\":" + std::to_string(plan_.adds);
  lj += ",\"removes\":" + std::to_string(plan_.removes);
  lj += ",\"recolors\":" + std::to_string(plan_.recolors);
  lj += ",\"issued\":" + std::to_string(churn_issued());
  lj += ",\"skipped\":" + std::to_string(churn_skipped()) + "}";
  lj += ",\"recoveries\":" + std::to_string(cfg_.recoveries.size());
  lj += ",\"latency\":{\"count\":" + std::to_string(lat.count());
  lj += ",\"p50\":" + ekbd::obs::json::format_double(lat.quantile(0.50));
  lj += ",\"p99\":" + ekbd::obs::json::format_double(lat.quantile(0.99));
  lj += ",\"p999\":" + ekbd::obs::json::format_double(lat.quantile(0.999)) + "}";
  lj += "}";
  assert(!out.empty() && out.back() == '}');
  out.pop_back();
  out += ",\"load\":" + lj + "}";
  return out;
}

}  // namespace ekbd::scenario
