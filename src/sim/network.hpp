/// \file network.hpp
/// Channel bookkeeping: FIFO order, per-edge occupancy, per-layer traffic
/// accounting.
///
/// The Network does not schedule anything itself — the Simulator samples a
/// delay, asks the Network to stamp the message (which enforces per-channel
/// FIFO by never letting a later send undercut an earlier delivery), and
/// schedules the delivery event. Keeping the books here lets the property
/// checkers read off exactly the quantities the paper bounds in §7:
///
///  * at most 4 dining messages in transit per undirected neighbor pair;
///  * quiescence — dining traffic towards a crashed process stops.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/message.hpp"
#include "sim/time.hpp"

namespace ekbd::sim {

/// Running statistics for one undirected process pair and one layer.
struct ChannelStats {
  int in_transit = 0;       ///< messages currently in flight (both directions)
  int max_in_transit = 0;   ///< high-water mark over the whole run
  std::uint64_t total = 0;  ///< messages ever sent on this pair
};

/// Streaming observer of channel bookkeeping (the §7 monitors ride on
/// this). Notified from stamp()/logical_sent(), i.e. *exactly* when the
/// books change — an observer that mirrors the callbacks agrees with the
/// Network's own books by construction. Implementations must not touch
/// the network or the simulator from inside a callback.
class NetworkWatch {
 public:
  virtual ~NetworkWatch() = default;
  /// Every accounted send (physical in raw mode, logical per
  /// logical_sent in transport mode, plus the transport's own physical
  /// segments on MsgLayer::kTransport).
  virtual void on_send(MsgLayer layer, ProcessId from, ProcessId to, Time at,
                       bool target_crashed) = 0;
  /// The undirected pair's in-transit count just set a new high-water
  /// mark (`in_transit` is the new maximum).
  virtual void on_high_water(MsgLayer layer, ProcessId from, ProcessId to, int in_transit,
                             Time at) = 0;
};

class Network {
 public:
  /// Stamp an outgoing message: assigns `deliver_at` respecting FIFO order
  /// on the (from, to) channel given the sampled `latency`, assigns the
  /// global sequence number, and updates occupancy/traffic books.
  /// `target_crashed` marks sends addressed to an already-crashed process
  /// (they still occupy the channel until their delivery time, when the
  /// simulator drops them). With `fifo` false (model-violation
  /// experiments only) the delivery time ignores the channel's FIFO
  /// horizon and may undercut earlier messages.
  void stamp(Message& m, Time now, Time latency, bool target_crashed, bool fifo = true);

  /// Record that a message reached its delivery time. This MUST be called
  /// for every stamped message exactly once — on normal delivery, on
  /// drop-at-delivery at a crashed target, and on adversarial loss — so
  /// channel occupancy always returns to 0 once the air clears.
  void delivered(const Message& m);

  // -- logical accounting (net::ReliableTransport) ----------------------
  //
  // When an ARQ transport is interposed, physical segments travel on
  // MsgLayer::kTransport while the *logical* messages the paper's §7
  // bounds are about (≤4 dining messages per edge, quiescence toward
  // crashed processes) are tracked here: `logical_sent` when the sender
  // hands a message to the transport, `logical_delivered` when the
  // receiving endpoint releases it to the actor, `logical_dropped` when
  // the sender abandons it (peer crashed and suspected). The same books
  // back both paths, so checkers read `channel()` / `max_in_transit_any`
  // / `sends_to_crashed` identically in raw and transport modes.

  /// Account a logical send on `layer`; returns its global sequence number.
  std::uint64_t logical_sent(ProcessId from, ProcessId to, MsgLayer layer, Time now,
                             bool target_crashed);

  /// A logical message was released to the receiving actor.
  void logical_delivered(ProcessId from, ProcessId to, MsgLayer layer);

  /// A logical message was abandoned by the transport (settles occupancy
  /// exactly like a drop-at-delivery).
  void logical_dropped(ProcessId from, ProcessId to, MsgLayer layer) {
    logical_delivered(from, to, layer);
  }

  /// Stats for the undirected pair {a, b} on `layer` (zeroes if no traffic).
  [[nodiscard]] ChannelStats channel(ProcessId a, ProcessId b, MsgLayer layer) const;

  /// Largest `max_in_transit` over all pairs for `layer`.
  /// For MsgLayer::kDining the paper proves this is at most 4.
  [[nodiscard]] int max_in_transit_any(MsgLayer layer) const;

  /// Total messages ever sent on `layer`.
  [[nodiscard]] std::uint64_t total_sent(MsgLayer layer) const;

  /// Time of the most recent send addressed to `target` on `layer`
  /// (-1 if none).
  [[nodiscard]] Time last_send_to(ProcessId target, MsgLayer layer) const;

  /// Number of messages addressed to `target` on `layer` *after* the
  /// target had crashed. Bounded for the dining layer (quiescence, §7);
  /// unbounded for heartbeats (◇P must monitor forever).
  [[nodiscard]] std::uint64_t sends_to_crashed(ProcessId target, MsgLayer layer) const;

  /// How many distinct undirected pairs ever communicated on `layer`.
  [[nodiscard]] std::size_t active_pairs(MsgLayer layer) const {
    return pair_stats_[static_cast<int>(layer)].size();
  }

  /// Visit every undirected pair that communicated on `layer`, in
  /// ascending (a, b) order (deterministic — snapshot/agreement code
  /// iterates this). a < b in every callback.
  void for_each_pair(MsgLayer layer,
                     const std::function<void(ProcessId a, ProcessId b,
                                              const ChannelStats&)>& fn) const;

  /// Attach (or detach with nullptr) a streaming watch. Not owned. When
  /// detached the books cost exactly what they did before the watch
  /// existed (one null check per stamp).
  void set_watch(NetworkWatch* watch) { watch_ = watch; }

 private:
  static constexpr int kLayers = kNumMsgLayers;

  struct PairKey {
    std::uint64_t key;
    bool operator==(const PairKey& o) const { return key == o.key; }
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const {
      return std::hash<std::uint64_t>{}(k.key);
    }
  };
  static PairKey pair_key(ProcessId a, ProcessId b) {
    auto lo = static_cast<std::uint64_t>(a < b ? a : b);
    auto hi = static_cast<std::uint64_t>(a < b ? b : a);
    return PairKey{(lo << 32) | hi};
  }
  static PairKey dir_key(ProcessId from, ProcessId to) {
    return PairKey{(static_cast<std::uint64_t>(from) << 32) |
                   static_cast<std::uint64_t>(to)};
  }

  struct PerTarget {
    Time last_send = -1;
    std::uint64_t after_crash = 0;
  };

  /// Hot-path state of one *directed* channel: the FIFO horizon (latest
  /// deliver_at handed out) plus cached pointers into the undirected
  /// occupancy and per-target quiescence books. unordered_map nodes are
  /// reference-stable, so after the first send on a (direction, layer)
  /// pair, stamp() and delivered() each cost a single hash lookup instead
  /// of three.
  struct DirState {
    Time horizon = 0;
    ChannelStats* stats[kLayers] = {};
    PerTarget* target[kLayers] = {};
  };

  /// Hot-path lookup of the directed-channel state. The simulator numbers
  /// processes densely (0, 1, 2, ...), so for every realistic run the
  /// state lives in a flat stride×stride array — one indexed load, no
  /// hashing, no node chase. Ids beyond kDenseLimit (the 10⁵-actor rt
  /// runs) fall back to the hash map so correctness never depends on the
  /// cap. The logical_* books share the same cache.
  DirState& dir_state(ProcessId from, ProcessId to);
  [[nodiscard]] const DirState* find_dir_state(ProcessId from, ProcessId to) const;
  void grow_dense(int need);

  static constexpr int kDenseLimit = 512;

  std::uint64_t next_seq_ = 0;
  std::uint64_t totals_[kLayers] = {};
  // Dense directed-channel state: row stride (power of two) and the
  // stride×stride cell array. Grows geometrically with the largest id
  // seen; cells are re-indexed on growth (their cached pointers are
  // node-stable, so a plain copy is safe).
  int dense_stride_ = 0;
  std::vector<DirState> dense_dir_;
  // Spill map for ids past kDenseLimit.
  std::unordered_map<PairKey, DirState, PairKeyHash> dir_state_;
  // Occupancy per undirected pair and layer.
  std::unordered_map<PairKey, ChannelStats, PairKeyHash> pair_stats_[kLayers];
  // Quiescence books per target process and layer.
  std::unordered_map<ProcessId, PerTarget> per_target_[kLayers];
  NetworkWatch* watch_ = nullptr;
};

// -- hot-path definitions (inline: once per message event, the calls
// must vanish into the simulator's send/deliver paths) -----------------

inline Network::DirState& Network::dir_state(ProcessId from, ProcessId to) {
  const ProcessId hi = from > to ? from : to;
  if (from >= 0 && to >= 0 && hi < kDenseLimit) {
    if (hi >= dense_stride_) grow_dense(hi);
    return dense_dir_[static_cast<std::size_t>(from) * static_cast<std::size_t>(dense_stride_) +
                      static_cast<std::size_t>(to)];
  }
  return dir_state_[dir_key(from, to)];
}

inline const Network::DirState* Network::find_dir_state(ProcessId from, ProcessId to) const {
  const ProcessId hi = from > to ? from : to;
  if (from >= 0 && to >= 0 && hi < kDenseLimit) {
    if (hi >= dense_stride_) return nullptr;
    return &dense_dir_[static_cast<std::size_t>(from) *
                           static_cast<std::size_t>(dense_stride_) +
                       static_cast<std::size_t>(to)];
  }
  const auto it = dir_state_.find(dir_key(from, to));
  return it == dir_state_.end() ? nullptr : &it->second;
}

inline void Network::stamp(Message& m, Time now, Time latency, bool target_crashed,
                           bool fifo) {
  latency = latency < 1 ? 1 : latency;
  Time deliver_at = now + latency;
  DirState& d = dir_state(m.from, m.to);
  if (fifo) {
    if (deliver_at < d.horizon) deliver_at = d.horizon;  // FIFO: never undercut
    d.horizon = deliver_at;
  }

  m.sent_at = now;
  m.deliver_at = deliver_at;
  m.seq = next_seq_++;

  const int li = static_cast<int>(m.layer);
  if (d.stats[li] == nullptr) {
    // First send on this (direction, layer): resolve and cache the book
    // entries (node-based maps — the pointers stay valid forever).
    d.stats[li] = &pair_stats_[li][pair_key(m.from, m.to)];
    d.target[li] = &per_target_[li][m.to];
  }
  ++totals_[li];
  ChannelStats& cs = *d.stats[li];
  ++cs.total;
  ++cs.in_transit;
  const bool high = cs.in_transit > cs.max_in_transit;
  if (high) cs.max_in_transit = cs.in_transit;

  PerTarget& pt = *d.target[li];
  pt.last_send = now;
  if (target_crashed) ++pt.after_crash;

  if (watch_ != nullptr) {
    watch_->on_send(m.layer, m.from, m.to, now, target_crashed);
    if (high) watch_->on_high_water(m.layer, m.from, m.to, cs.in_transit, now);
  }
}

inline void Network::delivered(const Message& m) {
  const int li = static_cast<int>(m.layer);
  // Every delivered message was stamped on the same (direction, layer),
  // so the cached pointer exists.
  const DirState* d = find_dir_state(m.from, m.to);
  if (d != nullptr && d->stats[li] != nullptr) --d->stats[li]->in_transit;
}

}  // namespace ekbd::sim
