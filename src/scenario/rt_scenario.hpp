/// \file rt_scenario.hpp
/// One-stop experiment builder for the real-threads engine.
///
/// The rt counterpart of `Scenario`: the same declarative `Config` (with
/// `engine = Engine::kRt`), wired onto `rt::Runtime` — one OS thread per
/// process, wall-clock timers, lock-free mailboxes — with the Recorder
/// feeding the same online monitors and post-hoc checkers.
///
/// Config mapping (vs. the sim engine):
///  * topology / algorithm / detector / harness / crashes / run_for —
///    shared verbatim; `run_for` ticks map to wall time via `rt_tick_ns`;
///  * delay model — none: real scheduling IS the delay model;
///  * detector kinds — kNever, kPerfect (an oracle over the runtime's
///    crash flags), kHeartbeat / kPingPong / kAccrual (real modules over
///    real timers). kScripted is sim-only (it is written against virtual
///    time): std::invalid_argument, as for engine kSim and net_mode
///    kLossyPartition;
///  * net_mode kLossy — seed-deterministic drop/dup coins on the
///    *detector* layer (`link_faults.drop_prob` / `dup_prob`); the dining
///    layer keeps the reliable in-process channels, matching the paper's
///    model. Partitions and the ARQ transport are sim-only for now (see
///    ROADMAP: multi-process transport);
///  * observability — the MonitorHub rides the Recorder's streams; an
///    EventLog is attached so runs can be replayed (rt/replay.hpp) and
///    exported to Perfetto.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/perfetto.hpp"
#include "rt/dining_driver.hpp"
#include "rt/recorder.hpp"
#include "rt/runtime.hpp"
#include "scenario/scenario.hpp"

namespace ekbd::scenario {

class RtScenario {
 public:
  explicit RtScenario(Config cfg);

  /// Run to the configured horizon. A scenario runs once: a second call
  /// throws std::logic_error. Blocks for
  /// run_for × rt_tick_ns wall nanoseconds. With `rt_telemetry_interval`
  /// set, the blocked wait becomes a snapshot loop: every interval ticks
  /// one JSONL line goes to `rt_telemetry_path` (if non-empty) and the
  /// same samples accumulate as Perfetto counter tracks
  /// (`counter_samples()`), all read live off the running executor.
  void run();

  // -- access ------------------------------------------------------------

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] ekbd::rt::Runtime& runtime() { return *rt_; }
  [[nodiscard]] ekbd::rt::Recorder& recorder() { return recorder_; }
  [[nodiscard]] ekbd::rt::DiningDriver& driver() { return *driver_; }
  [[nodiscard]] const ekbd::graph::ConflictGraph& graph() const { return graph_; }
  [[nodiscard]] const ekbd::graph::Coloring& colors() const { return colors_; }
  [[nodiscard]] const ekbd::dining::Trace& trace() const { return recorder_.trace(); }
  [[nodiscard]] ekbd::dining::Diner* diner(ProcessId p) {
    return diners_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const ekbd::fd::FailureDetector& detector() const { return *detector_; }
  /// Recorded event log (nullptr unless cfg.observability).
  [[nodiscard]] const ekbd::sim::EventLog* event_log() const { return event_log_.get(); }
  /// Metrics registry (nullptr unless cfg.observability).
  [[nodiscard]] ekbd::obs::MetricsRegistry* metrics() { return metrics_.get(); }
  /// Online invariant monitors (nullptr unless cfg.observability).
  [[nodiscard]] ekbd::obs::MonitorHub* monitors() { return monitors_.get(); }

  // -- canned reports ----------------------------------------------------

  [[nodiscard]] ekbd::dining::ExclusionReport exclusion() const;
  [[nodiscard]] ekbd::dining::WaitFreedomReport wait_freedom(Time starvation_horizon) const;
  [[nodiscard]] std::vector<ekbd::dining::OvertakeObservation> census() const;

  /// Cross-check the online monitors against the post-hoc checkers and
  /// the recorder's network books ("" on full agreement — the rt fuzz
  /// suite asserts exactly this on every run). Requires observability.
  [[nodiscard]] std::string monitor_agreement() const;

  /// One-line JSON telemetry snapshot (requires cfg.observability) —
  /// same shape as Scenario::telemetry_json, with "engine":"rt" plus
  /// "latency" (hungry→eat quantiles) and "stream" (recorder StreamStats)
  /// objects.
  [[nodiscard]] std::string telemetry_json() const;

  /// Counter-track samples collected by the live snapshot loop (empty
  /// unless rt_telemetry_interval was set). Feed to the CounterSample
  /// overload of obs::chrome_trace_json.
  [[nodiscard]] const std::vector<ekbd::obs::CounterSample>& counter_samples() const {
    return counter_samples_;
  }

 private:
  /// One live snapshot at tick `at`: JSONL line to `out` (may be null)
  /// plus counter samples. Safe while the executor runs — everything it
  /// reads is atomic or mutexed; the EventLog (plain, collector-owned
  /// while streaming) is only summarized when `final_snapshot` is true.
  void snapshot_telemetry(Time at, std::FILE* out, bool final_snapshot);

  Config cfg_;
  ekbd::graph::ConflictGraph graph_;
  ekbd::graph::Coloring colors_;
  // Observability first: the recorder points at the log/hub, the runtime
  // at the recorder — destruction must run in reverse.
  std::unique_ptr<ekbd::sim::EventLog> event_log_;
  std::unique_ptr<ekbd::obs::MetricsRegistry> metrics_;
  std::unique_ptr<ekbd::obs::MonitorHub> monitors_;
  ekbd::rt::Recorder recorder_;
  std::unique_ptr<ekbd::rt::Runtime> rt_;
  std::unique_ptr<ekbd::fd::FailureDetector> owned_detector_;
  ekbd::fd::FailureDetector* detector_ = nullptr;
  ekbd::fd::HeartbeatDetector* heartbeat_ = nullptr;
  ekbd::fd::PingPongDetector* pingpong_ = nullptr;
  ekbd::fd::AccrualDetector* accrual_ = nullptr;
  std::unique_ptr<ekbd::rt::DiningDriver> driver_;
  std::vector<ekbd::dining::Diner*> diners_;
  std::vector<ekbd::obs::CounterSample> counter_samples_;
  bool ran_ = false;
};

}  // namespace ekbd::scenario
