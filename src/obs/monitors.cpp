#include "obs/monitors.hpp"

#include <cstdarg>
#include <cstdio>

namespace ekbd::obs {

// ------------------------------------------------------------- EdgeTable --

void detail::EdgeTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
  mask_ = slots_.size() - 1;
  size_ = 0;
  for (const Slot& s : old) {
    if (s.used) (*this)[s.key] = s.value;
  }
}

// -------------------------------------------------- ForkUniquenessMonitor --

void ForkUniquenessMonitor::on_event(const sim::LoggedEvent& ev) {
  if (ev.payload != sim::kPayloadTagOf<core::Fork>) return;
  switch (ev.kind) {
    case sim::LoggedEvent::Kind::kSend:
    case sim::LoggedEvent::Kind::kDuplicate: {
      ++fork_sends_;
      int& n = in_transit_[detail::edge_key(ev.from, ev.to)];
      ++n;
      if (n > 1) violations_.push_back(Violation{ev.at, ev.from, ev.to, n});
      break;
    }
    case sim::LoggedEvent::Kind::kDeliver:
    case sim::LoggedEvent::Kind::kDrop:
    case sim::LoggedEvent::Kind::kLoss:
    case sim::LoggedEvent::Kind::kPartitionLoss:
      --in_transit_[detail::edge_key(ev.from, ev.to)];
      break;
    case sim::LoggedEvent::Kind::kTimer:
    case sim::LoggedEvent::Kind::kCrash:
    case sim::LoggedEvent::Kind::kRecover:
      break;  // no payload travels
  }
}

int ForkUniquenessMonitor::in_transit(sim::ProcessId a, sim::ProcessId b) const {
  const int* n = in_transit_.find(detail::edge_key(a, b));
  return n == nullptr ? 0 : *n;
}

// ------------------------------------------------------- ExclusionMonitor --

void ExclusionMonitor::on_trace_event(const dining::TraceEvent& ev) {
  // The exact state machine of dining::check_exclusion, one event at a
  // time — elementwise agreement with the post-hoc checker depends on the
  // two staying transcriptions of each other.
  switch (ev.kind) {
    case dining::TraceEventKind::kStartEating: {
      adj_.for_each_neighbor(ev.process, [&](const sim::ProcessId q) {
        if (eating(q)) {
          violations_.push_back(dining::ExclusionViolation{ev.at, ev.process, q});
        }
      });
      set_eating(ev.process, true);
      break;
    }
    case dining::TraceEventKind::kStopEating:
    case dining::TraceEventKind::kCrashed:
      set_eating(ev.process, false);
      break;
    default:
      adj_.apply(ev);  // edge churn moves the adjacency overlay
      break;
  }
}

void ExclusionMonitor::set_eating(sim::ProcessId p, bool on) {
  if (p < 0) return;
  const auto i = static_cast<std::size_t>(p);
  if (i >= eating_.size()) {
    if (!on) return;
    eating_.resize(i + 1, 0);
  }
  if ((eating_[i] != 0) == on) return;
  eating_[i] = on ? 1 : 0;
  if (on) {
    ++eating_count_;
  } else {
    --eating_count_;
  }
}

// ---------------------------------------------------- ChannelBoundMonitor --

void ChannelBoundMonitor::on_high_water(sim::MsgLayer layer, sim::ProcessId from,
                                        sim::ProcessId to, int in_transit, sim::Time at) {
  maxima_[static_cast<int>(layer)][detail::edge_key(from, to)] = in_transit;
  if (layer == sim::MsgLayer::kDining && in_transit > kDiningBound) {
    violations_.push_back(Violation{layer, from, to, in_transit, at});
  }
}

int ChannelBoundMonitor::max_in_transit(sim::MsgLayer layer, sim::ProcessId a,
                                        sim::ProcessId b) const {
  const int* m = maxima_[static_cast<int>(layer)].find(detail::edge_key(a, b));
  return m == nullptr ? 0 : *m;
}

int ChannelBoundMonitor::max_in_transit_any(sim::MsgLayer layer) const {
  return maxima_[static_cast<int>(layer)].max_value();
}

// ------------------------------------------------------ QuiescenceMonitor --

void QuiescenceMonitor::on_send(sim::MsgLayer layer, sim::ProcessId to, sim::Time at,
                                bool target_crashed) {
  if (to < 0) return;  // no such process: nothing to book
  auto& books = per_target_[static_cast<int>(layer)];
  const auto i = static_cast<std::size_t>(to);
  if (i >= books.size()) books.resize(i + 1);
  PerTarget& pt = books[i];
  pt.last_send = at;
  if (target_crashed) ++pt.after_crash;
}

const QuiescenceMonitor::PerTarget* QuiescenceMonitor::find(sim::ProcessId target,
                                                            sim::MsgLayer layer) const {
  const auto& books = per_target_[static_cast<int>(layer)];
  if (target < 0 || static_cast<std::size_t>(target) >= books.size()) return nullptr;
  return &books[static_cast<std::size_t>(target)];
}

sim::Time QuiescenceMonitor::last_send_to(sim::ProcessId target, sim::MsgLayer layer) const {
  const PerTarget* pt = find(target, layer);
  return pt == nullptr ? -1 : pt->last_send;
}

std::uint64_t QuiescenceMonitor::sends_to_crashed(sim::ProcessId target,
                                                  sim::MsgLayer layer) const {
  const PerTarget* pt = find(target, layer);
  return pt == nullptr ? 0 : pt->after_crash;
}

// ------------------------------------------------------------- MonitorHub --

namespace {

void fail(std::string& out, const char* fmt, ...) {
  char buf[192];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (!out.empty()) out += '\n';
  out += buf;
}

const char* layer_name(sim::MsgLayer layer) {
  switch (layer) {
    case sim::MsgLayer::kDining: return "dining";
    case sim::MsgLayer::kDetector: return "detector";
    case sim::MsgLayer::kOther: return "other";
    case sim::MsgLayer::kTransport: return "transport";
  }
  return "?";
}

}  // namespace

std::string MonitorHub::agreement_failures(const dining::Trace& trace,
                                           const graph::ConflictGraph& g,
                                           const sim::Network& net) const {
  std::string out;

  // P2: elementwise against the post-hoc checker.
  const dining::ExclusionReport post = dining::check_exclusion(trace, g);
  if (post.violations.size() != exclusion_.violations().size()) {
    fail(out, "P2: monitor saw %zu exclusion violations, checker %zu",
         exclusion_.violations().size(), post.violations.size());
  } else {
    for (std::size_t i = 0; i < post.violations.size(); ++i) {
      const auto& m = exclusion_.violations()[i];
      const auto& c = post.violations[i];
      if (m.at != c.at || m.a != c.a || m.b != c.b) {
        fail(out, "P2: violation %zu differs (monitor t=%lld p%d/p%d, checker t=%lld p%d/p%d)",
             i, static_cast<long long>(m.at), m.a, m.b, static_cast<long long>(c.at), c.a,
             c.b);
      }
    }
  }

  // P6: per-pair high-water marks against the network books, both ways.
  for (int li = 0; li < sim::kNumMsgLayers; ++li) {
    const auto layer = static_cast<sim::MsgLayer>(li);
    net.for_each_pair(layer, [&](sim::ProcessId a, sim::ProcessId b,
                                 const sim::ChannelStats& cs) {
      const int seen = channels_.max_in_transit(layer, a, b);
      if (seen != cs.max_in_transit) {
        fail(out, "P6: %s p%d-p%d max in transit: monitor %d, network %d", layer_name(layer),
             a, b, seen, cs.max_in_transit);
      }
    });
    if (channels_.max_in_transit_any(layer) != net.max_in_transit_any(layer)) {
      fail(out, "P6: %s global max in transit: monitor %d, network %d", layer_name(layer),
           channels_.max_in_transit_any(layer), net.max_in_transit_any(layer));
    }
  }

  // P7: quiescence books per (target, layer).
  for (std::size_t p = 0; p < g.size(); ++p) {
    const auto target = static_cast<sim::ProcessId>(p);
    for (int li = 0; li < sim::kNumMsgLayers; ++li) {
      const auto layer = static_cast<sim::MsgLayer>(li);
      if (quiescence_.last_send_to(target, layer) != net.last_send_to(target, layer)) {
        fail(out, "P7: %s last send to p%d: monitor %lld, network %lld", layer_name(layer),
             target, static_cast<long long>(quiescence_.last_send_to(target, layer)),
             static_cast<long long>(net.last_send_to(target, layer)));
      }
      if (quiescence_.sends_to_crashed(target, layer) != net.sends_to_crashed(target, layer)) {
        fail(out, "P7: %s sends to crashed p%d: monitor %llu, network %llu",
             layer_name(layer), target,
             static_cast<unsigned long long>(quiescence_.sends_to_crashed(target, layer)),
             static_cast<unsigned long long>(net.sends_to_crashed(target, layer)));
      }
    }
  }

  // P1 has no post-hoc counterpart to diff against — the invariant itself
  // is the oracle: under the paper's model (FIFO reliable channels, or the
  // ARQ shim recreating them) no edge ever carries two forks.
  for (const auto& v : forks_.violations()) {
    fail(out, "P1: %d forks in transit on p%d-p%d at t=%lld", v.in_transit, v.a, v.b,
         static_cast<long long>(v.at));
  }

  return out;
}

std::string MonitorHub::to_json() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"p1_violations\":%zu,\"p2_violations\":%zu,\"p6_violations\":%zu,"
                "\"p6_max_dining\":%d,\"fork_sends\":%llu,\"clean\":%s}",
                forks_.violations().size(), exclusion_.violations().size(),
                channels_.violations().size(),
                channels_.max_in_transit_any(sim::MsgLayer::kDining),
                static_cast<unsigned long long>(forks_.fork_sends()),
                clean() ? "true" : "false");
  return buf;
}

}  // namespace ekbd::obs
