#include "obs/telemetry.hpp"

#include <string>

#include "net/reliable_transport.hpp"

namespace ekbd::obs {

const char* layer_name(sim::MsgLayer layer) {
  switch (layer) {
    case sim::MsgLayer::kDining: return "dining";
    case sim::MsgLayer::kDetector: return "detector";
    case sim::MsgLayer::kOther: return "other";
    case sim::MsgLayer::kTransport: return "transport";
  }
  return "?";
}

void attach_simulator_metrics(sim::Simulator& sim, MetricsRegistry& reg) {
  sim::SimMetrics m;
  m.events = &reg.counter("sim.events");
  m.sends = &reg.counter("sim.sends");
  m.queue_depth = &reg.gauge("sim.queue_depth");
  m.slab_live = &reg.gauge("sim.slab_live");
  sim.set_metrics(m);
}

void collect_event_log_metrics(const sim::EventLog& log, MetricsRegistry& reg) {
  reg.counter("log.events").value = log.size();
  reg.counter("log.dropped").value = log.dropped();
  reg.counter("log.bytes").value = log.bytes();
}

void collect_network_metrics(const sim::Network& net, MetricsRegistry& reg) {
  for (int li = 0; li < sim::kNumMsgLayers; ++li) {
    const auto layer = static_cast<sim::MsgLayer>(li);
    reg.counter("net.sent", layer_name(layer)).value = net.total_sent(layer);
    net.for_each_pair(layer, [&](sim::ProcessId a, sim::ProcessId b,
                                 const sim::ChannelStats& cs) {
      const std::string label = std::string(layer_name(layer)) + "/p" + std::to_string(a) +
                                "-p" + std::to_string(b);
      Gauge& g = reg.gauge("net.in_transit", label);
      g.value = cs.in_transit;
      g.high_water = cs.max_in_transit;
      reg.counter("net.pair_sent", label).value = cs.total;
    });
  }
}

void collect_transport_metrics(const net::ReliableTransport& transport,
                               MetricsRegistry& reg) {
  reg.counter("arq.logical_sends").value = transport.logical_sends();
  reg.counter("arq.logical_deliveries").value = transport.logical_deliveries();
  reg.counter("arq.physical_data_sends").value = transport.physical_data_sends();
  reg.counter("arq.physical_ack_sends").value = transport.physical_ack_sends();
  reg.counter("arq.retransmissions").value = transport.retransmissions();
  reg.counter("arq.dup_suppressed").value = transport.duplicates_suppressed();
  reg.counter("arq.abandoned").value = transport.abandoned_to_dead();
  reg.gauge("arq.in_flight").set(static_cast<std::int64_t>(transport.logical_in_flight()));
  reg.gauge("arq.backoff_peak").set(static_cast<std::int64_t>(transport.max_rto_reached()));
}

void collect_mc_metrics(std::uint64_t nodes_executed, std::uint64_t sleep_pruned,
                        double wall_seconds, MetricsRegistry& reg) {
  reg.counter("mc.nodes_executed").value = nodes_executed;
  reg.counter("mc.sleep_pruned").value = sleep_pruned;
  const double rate = wall_seconds > 0.0 ? static_cast<double>(nodes_executed) / wall_seconds
                                         : 0.0;
  reg.gauge("mc.states_per_sec").set(static_cast<std::int64_t>(rate));
  const std::uint64_t offered = nodes_executed + sleep_pruned;
  const std::int64_t pct =
      offered == 0 ? 0 : static_cast<std::int64_t>(100 * sleep_pruned / offered);
  reg.gauge("mc.sleep_hit_rate_pct").set(pct);
}

}  // namespace ekbd::obs
