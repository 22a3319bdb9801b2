/// \file load_scenario.hpp
/// Daemon-as-a-service workload harness: one declarative config wiring
/// open-loop load, dynamic conflict graphs and crash-recovery onto either
/// engine.
///
/// `Scenario` / `RtScenario` reproduce the paper's *closed-loop*
/// environment: hunger follows thinking follows eating, so offered load
/// tracks capacity by construction. `LoadScenario` replaces the hunger
/// side of that loop with the `load::` subsystem:
///
///  * **Open-loop arrivals** — seed-deterministic `load::ArrivalProcess`
///    streams inject hungry sessions on their own clock; arrivals landing
///    on a busy actor queue in its `load::LoadBook` backlog and drain one
///    per completed session. Offered / completed / dropped counters and
///    an overload verdict come out the other end.
///  * **Dynamic conflict graphs** — a `load::ChurnPlan` (edge adds /
///    removals plus the local recolorings that keep the coloring proper,
///    planned against a private graph copy) is applied to the live run
///    through `core::WaitFreeDiner::request_add_edge` / `_remove_edge` /
///    `_recolor`, which defer to session boundaries. No global recolor
///    ever happens — repairs touch only the affected neighborhood.
///  * **Crash-recovery** — `RecoverySpec` entries crash a process and
///    bring it back: the engine fences the dead incarnation's channels,
///    and the diner's rejoin protocol re-acquires fork/token state from
///    the surviving neighbors without violating P1/P2 (see
///    docs/LOADGEN.md for the case analysis).
///
/// Engines: kSim and kRt (kProc pending the multi-process churn
/// transport — see ROADMAP). The algorithm must be kWaitFree: churn and
/// rejoin are Algorithm-1 extensions; the baselines have no edge
/// handshake. Either violation throws std::invalid_argument.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "load/arrivals.hpp"
#include "load/churn.hpp"
#include "load/controller.hpp"
#include "scenario/rt_scenario.hpp"
#include "scenario/scenario.hpp"

namespace ekbd::scenario {

/// One crash-recovery cycle. `recover_at` < 0 = crash without recovery.
struct RecoverySpec {
  ProcessId p = 0;
  Time crash_at = 0;
  Time recover_at = -1;
};

struct LoadConfig {
  /// Engine, topology, detector, harness timing, horizon. `base.crashes`
  /// should be empty — crash cycles go through `recoveries` so the churn
  /// planner can see the windows. Observability is forced on (the
  /// latency percentiles ride the obs histograms).
  ///
  /// Detector note: the heartbeat/pingpong/accrual modules monitor the
  /// *initial* neighbor set, so an edge added by churn is invisible to
  /// them; with churn + crashes prefer kPerfect (default) or accept
  /// rejoin-bounded blocking on churned edges (docs/LOADGEN.md).
  Config base;

  load::ArrivalSpec arrivals;

  /// Edge churn (mutations == 0 disables). The planner avoids endpoints
  /// inside any recovery window padded by `churn_margin` ticks.
  load::ChurnParams churn;
  Time churn_margin = 500;

  std::vector<RecoverySpec> recoveries;

  /// Overload sampling cadence (ticks) and detector thresholds.
  Time sample_period = 500;
  load::OverloadParams overload;
};

class LoadScenario {
 public:
  explicit LoadScenario(LoadConfig cfg);
  ~LoadScenario();

  /// Run to the configured horizon (may be called once).
  void run();

  // -- access --------------------------------------------------------------

  [[nodiscard]] const LoadConfig& config() const { return cfg_; }
  [[nodiscard]] const load::LoadBook& book() const { return *book_; }
  [[nodiscard]] const load::OverloadDetector& overload() const { return overload_; }
  [[nodiscard]] const load::ChurnPlan& churn_plan() const { return plan_; }
  /// Churn ops actually issued to diners (ops whose initiator was dead at
  /// the op's time are skipped and counted separately).
  [[nodiscard]] std::size_t churn_issued() const {
    return churn_issued_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t churn_skipped() const {
    return churn_skipped_.load(std::memory_order_relaxed);
  }

  /// The initial conflict graph (churn mutates live copies, not this).
  [[nodiscard]] const ekbd::graph::ConflictGraph& graph() const;
  [[nodiscard]] const ekbd::dining::Trace& trace() const;

  /// Underlying engine scenario (exactly one is non-null).
  [[nodiscard]] Scenario* sim_scenario() { return sim_.get(); }
  [[nodiscard]] RtScenario* rt_scenario() { return rt_.get(); }

  // -- canned reports -------------------------------------------------------

  [[nodiscard]] ekbd::dining::ExclusionReport exclusion() const;
  [[nodiscard]] ekbd::dining::WaitFreedomReport wait_freedom(Time starvation_horizon) const;

  /// Monitor ↔ checker cross-check ("" on full agreement), engine-routed.
  [[nodiscard]] std::string monitor_agreement() const;

  /// Hungry→eat latency histogram (sim: harness obs histogram; rt: the
  /// driver's striped histogram).
  [[nodiscard]] ekbd::obs::Histogram latency() const;

  /// Engine telemetry with a `"load":{...}` object spliced in: offered /
  /// completed / dropped / backlog high-water, overload verdict, churn
  /// counts, recovery count.
  [[nodiscard]] std::string telemetry_json() const;

 private:
  void wire_sim();
  void wire_rt();
  void schedule_sim_arrival(std::size_t stream);
  void schedule_sim_sample(Time at);
  void start_rt_chain(ProcessId p, Time from);
  /// Handle one arrival for `p`: count it, then either start the hungry
  /// session (p was thinking) or backlog it.
  void on_arrival(ProcessId p);
  void issue_churn_op(const load::ChurnOp& op);
  [[nodiscard]] ekbd::core::WaitFreeDiner* wfd(ProcessId p);

  LoadConfig cfg_;
  load::ChurnPlan plan_;
  std::unique_ptr<load::LoadBook> book_;
  load::OverloadDetector overload_;
  std::unique_ptr<Scenario> sim_;
  std::unique_ptr<RtScenario> rt_;
  /// Per-actor arrival streams (index = ProcessId; global spec → one
  /// stream at index 0 with dealt targets on sim, split streams on rt).
  std::vector<load::ArrivalProcess> arrivals_;
  std::vector<sim::Rng> arrival_rngs_;
  /// Churn ops grouped per initiating actor (rt re-seeds after recovery).
  std::vector<std::vector<load::ChurnOp>> churn_by_actor_;
  /// Atomics: rt churn ops issue inside dispatch claims on any shard.
  std::atomic<std::size_t> churn_issued_{0};
  std::atomic<std::size_t> churn_skipped_{0};
  bool ran_ = false;
};

}  // namespace ekbd::scenario
