#include "scenario/rt_scenario.hpp"

#include <stdexcept>
#include <thread>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace ekbd::scenario {

namespace {

/// Checked in every build type, before anything is built: each of these
/// would otherwise run a different experiment than the Config describes.
Config validated(Config cfg) {
  if (cfg.engine != Engine::kRt) {
    throw std::invalid_argument("RtScenario: engine must be kRt (kSim: use Scenario)");
  }
  if (cfg.net_mode == NetMode::kLossyPartition) {
    throw std::invalid_argument(
        "RtScenario: partitions need the multi-process transport (kProc)");
  }
  if (cfg.detector == DetectorKind::kScripted) {
    throw std::invalid_argument(
        "RtScenario: the scripted detector is sim-only (virtual time); use heartbeat");
  }
  return cfg;
}

}  // namespace

RtScenario::RtScenario(Config cfg)
    : cfg_(validated(std::move(cfg))),
      graph_(build_conflict_graph(cfg_)),
      colors_(ekbd::graph::welsh_powell_coloring(graph_)) {

  // -- observability ------------------------------------------------------
  if (cfg_.observability) {
    // Capped log = bounded resident memory at 10⁵⁺ actors; the log counts
    // what it sheds, the Trace and network books stay exact.
    event_log_ = std::make_unique<ekbd::sim::EventLog>(cfg_.rt_event_log_cap);
    metrics_ = std::make_unique<ekbd::obs::MetricsRegistry>();
    monitors_ = std::make_unique<ekbd::obs::MonitorHub>(graph_);
    recorder_.set_event_log(event_log_.get());
    recorder_.set_event_sink(monitors_.get());
    recorder_.set_watch(monitors_.get());
    recorder_.set_trace_observer(monitors_.get());
  }

  // -- runtime ------------------------------------------------------------
  ekbd::rt::Options opt;
  opt.seed = cfg_.seed;
  opt.tick_ns = cfg_.rt_tick_ns;
  opt.mailbox_capacity = cfg_.rt_mailbox_capacity;
  opt.mailbox = cfg_.rt_mutex_mailbox ? ekbd::rt::MailboxKind::kMutex
                                      : ekbd::rt::MailboxKind::kLockFree;
  opt.shards = cfg_.rt_shards;
  opt.segmented_recorder = cfg_.rt_segmented_recorder;
  if (cfg_.rt_stream_window > 0) opt.stream_window_ticks = cfg_.rt_stream_window;
  opt.stream_pending_cap = cfg_.rt_stream_pending_cap;
  if (cfg_.net_mode != NetMode::kIdeal) {
    // Lossy channels, rt style: seed-deterministic drop/dup coins on the
    // detector layer. The dining layer keeps the reliable in-process
    // channels (the paper's model assumes reliable dining channels; a ◇P₁
    // implementation must survive a lossy wire).
    opt.faults.drop_prob = cfg_.link_faults.drop_prob;
    opt.faults.dup_prob = cfg_.link_faults.dup_prob;
  }
  rt_ = std::make_unique<ekbd::rt::Runtime>(opt, recorder_);

  // -- detector -----------------------------------------------------------
  switch (cfg_.detector) {
    case DetectorKind::kNever:
      owned_detector_ = std::make_unique<ekbd::fd::NeverSuspect>();
      break;
    case DetectorKind::kPerfect:
      owned_detector_ = std::make_unique<ekbd::rt::RtPerfectDetector>(*rt_);
      break;
    case DetectorKind::kHeartbeat: {
      auto det = std::make_unique<ekbd::fd::HeartbeatDetector>();
      heartbeat_ = det.get();
      owned_detector_ = std::move(det);
      break;
    }
    case DetectorKind::kPingPong: {
      auto det = std::make_unique<ekbd::fd::PingPongDetector>();
      pingpong_ = det.get();
      owned_detector_ = std::move(det);
      break;
    }
    case DetectorKind::kAccrual: {
      auto det = std::make_unique<ekbd::fd::AccrualDetector>();
      accrual_ = det.get();
      owned_detector_ = std::move(det);
      break;
    }
    case DetectorKind::kScripted:
      break;  // rejected by validated()
  }
  detector_ = owned_detector_.get();

  // -- driver + diners ----------------------------------------------------
  driver_ = std::make_unique<ekbd::rt::DiningDriver>(*rt_, graph_, cfg_.harness);
  if (cfg_.observability) {
    // Same shape as the sim harness's dining.hungry_latency histogram.
    driver_->enable_latency_histogram(0.0, 5000.0, 50);
  }
  diners_.reserve(graph_.size());
  for (std::size_t v = 0; v < graph_.size(); ++v) {
    const auto p = static_cast<ProcessId>(v);
    std::vector<ProcessId> neighbors = graph_.neighbors(p);
    std::vector<int> ncolors;
    ncolors.reserve(neighbors.size());
    for (ProcessId j : neighbors) ncolors.push_back(colors_[static_cast<std::size_t>(j)]);
    const int color = colors_[v];

    ekbd::dining::Diner* d = nullptr;
    switch (cfg_.algorithm) {
      case Algorithm::kWaitFree:
        d = rt_->make_actor<ekbd::core::WaitFreeDiner>(
            std::move(neighbors), color, std::move(ncolors), *detector_,
            ekbd::core::WaitFreeDiner::Options{.acks_per_session = cfg_.acks_per_session});
        break;
      case Algorithm::kChoySingh:
        d = rt_->make_actor<ekbd::baseline::DoorwayDiner>(
            std::move(neighbors), color, std::move(ncolors), *detector_,
            ekbd::baseline::DoorwayDiner::Options{.single_ack_per_session = false});
        break;
      case Algorithm::kChoySinghSingleAck:
        d = rt_->make_actor<ekbd::baseline::DoorwayDiner>(
            std::move(neighbors), color, std::move(ncolors), *detector_,
            ekbd::baseline::DoorwayDiner::Options{.single_ack_per_session = true});
        break;
      case Algorithm::kHierarchical:
        d = rt_->make_actor<ekbd::baseline::HierarchicalDiner>(std::move(neighbors), color,
                                                               std::move(ncolors), *detector_);
        break;
      case Algorithm::kChandyMisra:
        d = rt_->make_actor<ekbd::baseline::ChandyMisraDiner>(std::move(neighbors), color,
                                                              std::move(ncolors), *detector_);
        break;
    }
    diners_.push_back(d);
    driver_->manage(d);
  }

  if (heartbeat_ != nullptr) driver_->install_heartbeats(*heartbeat_, cfg_.heartbeat);
  if (pingpong_ != nullptr) driver_->install_pingpongs(*pingpong_, cfg_.pingpong);
  if (accrual_ != nullptr) driver_->install_accruals(*accrual_, cfg_.accrual);

  for (const auto& [p, at] : cfg_.crashes) {
    rt_->schedule_crash(p, at);
  }
}

void RtScenario::run() {
  if (ran_) throw std::logic_error("RtScenario::run: a scenario runs once");
  ran_ = true;
  if (cfg_.rt_telemetry_interval <= 0) {
    rt_->run_for(cfg_.run_for);
    return;
  }
  // Live-telemetry mode: same start / sleep-to-horizon / join sequence as
  // Runtime::run_for, but the sleep is chopped into snapshot intervals.
  std::FILE* out = nullptr;
  if (!cfg_.rt_telemetry_path.empty()) {
    out = std::fopen(cfg_.rt_telemetry_path.c_str(), "w");
  }
  rt_->start();
  for (Time t = cfg_.rt_telemetry_interval; t < cfg_.run_for;
       t += cfg_.rt_telemetry_interval) {
    std::this_thread::sleep_until(rt_->clock().deadline(t));
    snapshot_telemetry(t, out, /*final_snapshot=*/false);
  }
  std::this_thread::sleep_until(rt_->clock().deadline(cfg_.run_for));
  rt_->stop_and_join();
  recorder_.set_end_time(rt_->now());
  // Final snapshot after the join: exact totals, closing the staircase.
  snapshot_telemetry(rt_->now(), out, /*final_snapshot=*/true);
  if (out != nullptr) std::fclose(out);
}

void RtScenario::snapshot_telemetry(Time at, std::FILE* out, bool final_snapshot) {
  const std::vector<ekbd::rt::ExecutorStats> shards = rt_->stats_per_shard();
  const ekbd::rt::StreamStats ss = recorder_.stream_stats();
  const ekbd::obs::Histogram lat =
      driver_->latency_enabled() ? driver_->latency_histogram()
                                 : ekbd::obs::Histogram(0.0, 1.0, 1);
  const double p50 = lat.quantile(0.50);
  const double p99 = lat.quantile(0.99);
  const double p999 = lat.quantile(0.999);

  auto track = [&](const std::string& name, double v) {
    counter_samples_.push_back({at, name, v});
  };
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string pre = "shard" + std::to_string(i) + "/";
    track(pre + "dispatches", static_cast<double>(shards[i].dispatches));
    track(pre + "runs", static_cast<double>(shards[i].runs));
    track(pre + "parks", static_cast<double>(shards[i].parks));
  }
  track("latency/p50", p50);
  track("latency/p99", p99);
  track("latency/p999", p999);
  track("stream/merged_events", static_cast<double>(ss.merged_events));
  track("stream/max_pending", static_cast<double>(ss.max_pending));

  if (out == nullptr) return;
  std::string line = "{\"at\":" + std::to_string(at) + ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i != 0) line += ',';
    line += "{\"dispatches\":" + std::to_string(shards[i].dispatches) +
            ",\"runs\":" + std::to_string(shards[i].runs) +
            ",\"steals\":" + std::to_string(shards[i].steals) +
            ",\"helps\":" + std::to_string(shards[i].helps) +
            ",\"timer_helps\":" + std::to_string(shards[i].timer_helps) +
            ",\"parks\":" + std::to_string(shards[i].parks) + "}";
  }
  line += "],\"latency\":{\"count\":" + std::to_string(lat.count()) +
          ",\"p50\":" + ekbd::obs::json::format_double(p50) +
          ",\"p99\":" + ekbd::obs::json::format_double(p99) +
          ",\"p999\":" + ekbd::obs::json::format_double(p999) + "}";
  line += ",\"stream\":{\"collect_passes\":" + std::to_string(ss.collect_passes) +
          ",\"merged_events\":" + std::to_string(ss.merged_events) +
          ",\"merged_trace_events\":" + std::to_string(ss.merged_trace_events) +
          ",\"max_pending\":" + std::to_string(ss.max_pending) +
          ",\"dropped_records\":" + std::to_string(ss.dropped_records) +
          ",\"dropped_windows\":" + std::to_string(ss.dropped_windows) + "}";
  if (final_snapshot && event_log_ != nullptr) {
    line += ",\"event_log\":{\"size\":" + std::to_string(event_log_->size()) +
            ",\"dropped\":" + std::to_string(event_log_->dropped()) +
            ",\"bytes\":" + std::to_string(event_log_->bytes()) + "}";
  }
  line += "}\n";
  std::fputs(line.c_str(), out);
  std::fflush(out);
}

ekbd::dining::ExclusionReport RtScenario::exclusion() const {
  return ekbd::dining::check_exclusion(recorder_.trace(), graph_);
}

ekbd::dining::WaitFreedomReport RtScenario::wait_freedom(Time starvation_horizon) const {
  return ekbd::dining::check_wait_freedom(recorder_.trace(), rt_->crash_times(),
                                          starvation_horizon);
}

std::vector<ekbd::dining::OvertakeObservation> RtScenario::census() const {
  return ekbd::dining::overtake_census(recorder_.trace(), graph_);
}

std::string RtScenario::monitor_agreement() const {
  if (monitors_ == nullptr) return "monitors not attached (cfg.observability is false)";
  return monitors_->agreement_failures(recorder_.trace(), graph_, recorder_.network());
}

std::string RtScenario::telemetry_json() const {
  if (metrics_ == nullptr) return "{}";
  ekbd::obs::MetricsRegistry& reg = *metrics_;
  ekbd::obs::collect_network_metrics(recorder_.network(), reg);
  if (event_log_ != nullptr) {
    ekbd::obs::collect_event_log_metrics(*event_log_, reg);
  }
  std::string out = "{\"config\":{";
  out += "\"seed\":" + std::to_string(cfg_.seed);
  out += ",\"engine\":" + ekbd::obs::json::quote(to_string(cfg_.engine));
  out += ",\"topology\":" + ekbd::obs::json::quote(cfg_.topology);
  out += ",\"n\":" + std::to_string(cfg_.n);
  out += ",\"algorithm\":" + ekbd::obs::json::quote(to_string(cfg_.algorithm));
  out += ",\"detector\":" + ekbd::obs::json::quote(to_string(cfg_.detector));
  out += ",\"net_mode\":" + ekbd::obs::json::quote(to_string(cfg_.net_mode));
  out += ",\"run_for\":" + std::to_string(cfg_.run_for);
  out += ",\"tick_ns\":" + std::to_string(cfg_.rt_tick_ns);
  out += ",\"shards\":" + std::to_string(rt_->shard_count());
  const ekbd::rt::ExecutorStats st = rt_->stats();
  out += "},\"executor\":{";
  out += "\"dispatches\":" + std::to_string(st.dispatches);
  out += ",\"runs\":" + std::to_string(st.runs);
  out += ",\"steals\":" + std::to_string(st.steals);
  out += ",\"helps\":" + std::to_string(st.helps);
  out += ",\"timer_helps\":" + std::to_string(st.timer_helps);
  out += ",\"parks\":" + std::to_string(st.parks);
  if (driver_->latency_enabled()) {
    const ekbd::obs::Histogram lat = driver_->latency_histogram();
    out += "},\"latency\":{";
    out += "\"count\":" + std::to_string(lat.count());
    out += ",\"p50\":" + ekbd::obs::json::format_double(lat.quantile(0.50));
    out += ",\"p99\":" + ekbd::obs::json::format_double(lat.quantile(0.99));
    out += ",\"p999\":" + ekbd::obs::json::format_double(lat.quantile(0.999));
    out += ",\"hist\":" + lat.to_json();
  }
  const ekbd::rt::StreamStats ss = recorder_.stream_stats();
  out += "},\"stream\":{";
  out += "\"collect_passes\":" + std::to_string(ss.collect_passes);
  out += ",\"merged_events\":" + std::to_string(ss.merged_events);
  out += ",\"merged_trace_events\":" + std::to_string(ss.merged_trace_events);
  out += ",\"max_pending\":" + std::to_string(ss.max_pending);
  out += ",\"dropped_records\":" + std::to_string(ss.dropped_records);
  out += ",\"dropped_windows\":" + std::to_string(ss.dropped_windows);
  out += "},\"metrics\":" + reg.to_json();
  out += ",\"monitors\":" + monitors_->to_json();
  out += "}";
  return out;
}

}  // namespace ekbd::scenario
