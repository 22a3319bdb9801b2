#include "sim/network.hpp"

#include <algorithm>

namespace ekbd::sim {

namespace {
int layer_index(MsgLayer layer) { return static_cast<int>(layer); }
}  // namespace

void Network::grow_dense(int need) {
  int stride = dense_stride_ == 0 ? 16 : dense_stride_;
  while (stride <= need) stride *= 2;
  std::vector<DirState> grown(static_cast<std::size_t>(stride) *
                              static_cast<std::size_t>(stride));
  for (int f = 0; f < dense_stride_; ++f) {
    for (int t = 0; t < dense_stride_; ++t) {
      grown[static_cast<std::size_t>(f) * static_cast<std::size_t>(stride) +
            static_cast<std::size_t>(t)] =
          dense_dir_[static_cast<std::size_t>(f) * static_cast<std::size_t>(dense_stride_) +
                     static_cast<std::size_t>(t)];
    }
  }
  dense_dir_ = std::move(grown);
  dense_stride_ = stride;
}

std::uint64_t Network::logical_sent(ProcessId from, ProcessId to, MsgLayer layer, Time now,
                                    bool target_crashed) {
  const int li = layer_index(layer);
  ++totals_[li];
  // The same cached book pointers stamp() uses: one indexed load for dense
  // ids, one spill-map lookup past kDenseLimit.
  DirState& d = dir_state(from, to);
  if (d.stats[li] == nullptr) {
    d.stats[li] = &pair_stats_[li][pair_key(from, to)];
    d.target[li] = &per_target_[li][to];
  }
  ChannelStats& cs = *d.stats[li];
  ++cs.total;
  ++cs.in_transit;
  const bool high = cs.in_transit > cs.max_in_transit;
  if (high) cs.max_in_transit = cs.in_transit;

  PerTarget& pt = *d.target[li];
  pt.last_send = now;
  if (target_crashed) ++pt.after_crash;

  if (watch_ != nullptr) {
    watch_->on_send(layer, from, to, now, target_crashed);
    if (high) watch_->on_high_water(layer, from, to, cs.in_transit, now);
  }
  return next_seq_++;
}

void Network::logical_delivered(ProcessId from, ProcessId to, MsgLayer layer) {
  const int li = layer_index(layer);
  const DirState* d = find_dir_state(from, to);
  if (d != nullptr && d->stats[li] != nullptr) {
    --d->stats[li]->in_transit;
    return;
  }
  // Nothing was ever sent this way on `layer`: the pair's books exist only
  // if the reverse direction sent (a settle with no matching send).
  auto it = pair_stats_[li].find(pair_key(from, to));
  if (it != pair_stats_[li].end()) --it->second.in_transit;
}

ChannelStats Network::channel(ProcessId a, ProcessId b, MsgLayer layer) const {
  const auto& map = pair_stats_[layer_index(layer)];
  auto it = map.find(pair_key(a, b));
  return it == map.end() ? ChannelStats{} : it->second;
}

int Network::max_in_transit_any(MsgLayer layer) const {
  int best = 0;
  for (const auto& [k, cs] : pair_stats_[layer_index(layer)]) {
    best = std::max(best, cs.max_in_transit);
  }
  return best;
}

std::uint64_t Network::total_sent(MsgLayer layer) const {
  return totals_[layer_index(layer)];
}

Time Network::last_send_to(ProcessId target, MsgLayer layer) const {
  const auto& map = per_target_[layer_index(layer)];
  auto it = map.find(target);
  return it == map.end() ? -1 : it->second.last_send;
}

std::uint64_t Network::sends_to_crashed(ProcessId target, MsgLayer layer) const {
  const auto& map = per_target_[layer_index(layer)];
  auto it = map.find(target);
  return it == map.end() ? 0 : it->second.after_crash;
}

void Network::for_each_pair(
    MsgLayer layer,
    const std::function<void(ProcessId, ProcessId, const ChannelStats&)>& fn) const {
  const auto& map = pair_stats_[layer_index(layer)];
  std::vector<std::uint64_t> keys;
  keys.reserve(map.size());
  for (const auto& [k, cs] : map) keys.push_back(k.key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    const auto a = static_cast<ProcessId>(key >> 32);
    const auto b = static_cast<ProcessId>(key & 0xFFFFFFFFu);
    fn(a, b, map.at(PairKey{key}));
  }
}

}  // namespace ekbd::sim
