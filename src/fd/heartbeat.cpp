#include "fd/heartbeat.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace ekbd::fd {

using ekbd::sim::Message;
using ekbd::sim::MsgLayer;
using ekbd::sim::TimerId;

HeartbeatModule::HeartbeatModule(std::vector<ProcessId> neighbors, Params params)
    : neighbors_(std::move(neighbors)), params_(params) {
  if (std::adjacent_find(neighbors_.begin(), neighbors_.end(), std::greater_equal<>()) !=
      neighbors_.end()) {
    throw std::invalid_argument("HeartbeatModule: neighbors must be strictly increasing");
  }
  NeighborState st;
  st.timeout = params_.initial_timeout;
  state_.assign(neighbors_.size(), st);
}

std::size_t HeartbeatModule::index_of(ProcessId target) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), target);
  return it != neighbors_.end() && *it == target
             ? static_cast<std::size_t>(it - neighbors_.begin())
             : neighbors_.size();
}

void HeartbeatModule::start(ModuleHost& host) {
  // The first call arms the module; a later call is a post-recovery
  // restart — the old tick timer died with the crashed incarnation, so
  // re-arm it and forget pre-crash silence and suspicions (the rejoiner
  // rebuilds its view from fresh heartbeats; clearing a suspicion here is
  // not a retraction, so it does not count as a detector mistake).
  started_ = true;
  const Time now = host.module_now();
  for (NeighborState& st : state_) {
    st.last_heard = now;
    st.suspected = false;
  }
  tick(host);
}

void HeartbeatModule::tick(ModuleHost& host) {
  const Time now = host.module_now();
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    host.module_send(neighbors_[i], Heartbeat{}, MsgLayer::kDetector);
    NeighborState& st = state_[i];
    if (!st.suspected && now - st.last_heard > st.timeout) {
      st.suspected = true;
    }
  }
  tick_timer_ = host.module_set_timer(params_.period);
}

bool HeartbeatModule::handle_message(ModuleHost& host, const Message& m) {
  if (m.as<Heartbeat>() == nullptr) return false;
  const std::size_t i = index_of(m.from);
  if (i == state_.size()) return true;  // heartbeat from a non-neighbor: ignore
  NeighborState& st = state_[i];
  st.last_heard = host.module_now();
  if (st.suspected) {
    // The suspicion was a mistake (the "dead" neighbor spoke): retract and
    // become more conservative about this neighbor.
    st.suspected = false;
    st.timeout += params_.timeout_increment;
    ++false_suspicions_;
    last_retraction_ = host.module_now();
  }
  return true;
}

bool HeartbeatModule::handle_timer(ModuleHost& host, TimerId id) {
  if (id != tick_timer_) return false;
  tick(host);
  return true;
}

bool HeartbeatModule::suspects(ProcessId target) const {
  const std::size_t i = index_of(target);
  return i != state_.size() && state_[i].suspected;
}

Time HeartbeatModule::timeout_of(ProcessId target) const {
  const std::size_t i = index_of(target);
  return i == state_.size() ? 0 : state_[i].timeout;
}

void HeartbeatDetector::attach(ProcessId owner, const HeartbeatModule* module) {
  const auto idx = static_cast<std::size_t>(owner);
  if (idx >= modules_.size()) modules_.resize(idx + 1, nullptr);
  modules_[idx] = module;
}

bool HeartbeatDetector::suspects(ProcessId owner, ProcessId target) const {
  const auto idx = static_cast<std::size_t>(owner);
  return idx < modules_.size() && modules_[idx] != nullptr && modules_[idx]->suspects(target);
}

std::uint64_t HeartbeatDetector::total_false_suspicions() const {
  std::uint64_t total = 0;
  for (const HeartbeatModule* m : modules_) {
    if (m != nullptr) total += m->false_suspicions();
  }
  return total;
}

Time HeartbeatDetector::last_retraction() const {
  Time latest = 0;
  for (const HeartbeatModule* m : modules_) {
    if (m != nullptr) latest = std::max(latest, m->last_retraction());
  }
  return latest;
}

}  // namespace ekbd::fd
