/// \file monitors.hpp
/// Online invariant monitors: streaming observers for the paper's safety
/// and resource properties, running *during* the simulation.
///
/// Each monitor mirrors one post-hoc verdict incrementally:
///
///  * ForkUniquenessMonitor (P1) — at most one fork per undirected edge
///    in transit, from the simulator's event stream (EventSink);
///  * ExclusionMonitor (P2/◇WX) — the exact streaming transcription of
///    dining::check_exclusion, from the scheduling trace (TraceObserver);
///  * ChannelBoundMonitor (P6) — per-edge in-flight occupancy vs. the
///    paper's ≤4 bound, from the network books (NetworkWatch);
///  * QuiescenceMonitor (P7) — last-send times and post-crash sends per
///    target, from the same watch.
///
/// The intended deployment is a MonitorHub wired to a Scenario
/// (Config::observability); `MonitorHub::agreement_failures` then
/// cross-checks every monitor against the post-hoc checkers/books — the
/// fuzz suite runs that comparison on every run, which is what makes the
/// online verdicts trustworthy.
///
/// Monitors observe and never mutate: none of them re-enters the
/// simulator, the network or the trace.
///
/// Their books are flat: per-edge counts live in an open-addressing
/// table, per-process state in vectors indexed by process id (grown on
/// demand). The streaming rt collector calls every hook once per merged
/// record, so no tree or node-based map sits on that path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dining/checkers.hpp"
#include "dining/trace.hpp"
#include "graph/graph.hpp"
#include "sim/event_log.hpp"
#include "sim/network.hpp"

namespace ekbd::obs {

namespace detail {

/// Undirected-edge key: (min id) << 32 | (max id).
inline std::uint64_t edge_key(sim::ProcessId a, sim::ProcessId b) {
  const auto lo = static_cast<std::uint64_t>(static_cast<std::uint32_t>(a < b ? a : b));
  const auto hi = static_cast<std::uint64_t>(static_cast<std::uint32_t>(a < b ? b : a));
  return (lo << 32) | hi;
}

/// Open-addressing map from an edge key to an int (linear probing over a
/// power-of-two table, load factor <= 1/2). Entries are never erased —
/// edge books only grow — and iteration order is unspecified, so callers
/// only look up or fold (max) over it.
class EdgeTable {
 public:
  /// The value for `key`, inserted as 0 if absent.
  int& operator[](std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = hash(key) & mask_;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask_;
    if (!slots_[i].used) {
      slots_[i].used = true;
      slots_[i].key = key;
      ++size_;
    }
    return slots_[i].value;
  }

  /// The value for `key`, or nullptr if absent.
  [[nodiscard]] const int* find(std::uint64_t key) const {
    if (size_ == 0) return nullptr;
    std::size_t i = hash(key) & mask_;
    while (slots_[i].used) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  /// Largest value held (0 when empty).
  [[nodiscard]] int max_value() const {
    int best = 0;
    for (const Slot& s : slots_) {
      if (s.used && s.value > best) best = s.value;
    }
    return best;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    int value = 0;
    bool used = false;
  };
  static std::size_t hash(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }
  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

/// P1: per undirected edge, at most one core::Fork in transit. Counts
/// fork sends/deliveries from the logged event stream; a second fork
/// entering a channel that already holds one is a violation.
class ForkUniquenessMonitor final : public sim::EventSink {
 public:
  struct Violation {
    sim::Time at = 0;
    sim::ProcessId a = sim::kNoProcess;
    sim::ProcessId b = sim::kNoProcess;
    int in_transit = 0;  ///< forks in flight on the edge after the send
  };

  void on_event(const sim::LoggedEvent& ev) override;

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  /// Forks currently in transit on the undirected edge {a, b}.
  [[nodiscard]] int in_transit(sim::ProcessId a, sim::ProcessId b) const;
  [[nodiscard]] std::uint64_t fork_sends() const { return fork_sends_; }

 private:
  detail::EdgeTable in_transit_;
  std::vector<Violation> violations_;
  std::uint64_t fork_sends_ = 0;
};

/// P2 (◇WX): streaming transcription of dining::check_exclusion — same
/// state machine, same violation records, fed one trace event at a time.
/// `report()` must equal check_exclusion's output elementwise on the
/// finished trace (the agreement check asserts exactly that).
class ExclusionMonitor final : public dining::TraceObserver {
 public:
  /// `g` is the *initial* graph; edge churn arrives as kEdgeAdded /
  /// kEdgeRemoved trace events and moves the same DynamicAdjacency
  /// overlay check_exclusion uses, so the two stay transcriptions.
  explicit ExclusionMonitor(const graph::ConflictGraph& g) : adj_(g) {}

  void on_trace_event(const dining::TraceEvent& ev) override;

  [[nodiscard]] const std::vector<dining::ExclusionViolation>& violations() const {
    return violations_;
  }
  /// Processes currently eating (monitor's live view).
  [[nodiscard]] std::size_t eating_now() const { return eating_count_; }

 private:
  [[nodiscard]] bool eating(sim::ProcessId p) const {
    return p >= 0 && static_cast<std::size_t>(p) < eating_.size() &&
           eating_[static_cast<std::size_t>(p)] != 0;
  }
  void set_eating(sim::ProcessId p, bool on);

  dining::DynamicAdjacency adj_;
  std::vector<std::uint8_t> eating_;  ///< per-process flag
  std::size_t eating_count_ = 0;
  std::vector<dining::ExclusionViolation> violations_;
};

/// P6: per-(layer, undirected pair) in-flight high-water marks, streamed
/// from the network books. Dining-layer pairs exceeding the paper's bound
/// of 4 are recorded as violations with the time the excess first
/// happened — something the post-hoc books cannot reconstruct.
class ChannelBoundMonitor final {
 public:
  struct Violation {
    sim::MsgLayer layer = sim::MsgLayer::kDining;
    sim::ProcessId a = sim::kNoProcess;
    sim::ProcessId b = sim::kNoProcess;
    int in_transit = 0;
    sim::Time at = 0;
  };

  /// The §7 bound for the dining layer.
  static constexpr int kDiningBound = 4;

  void on_high_water(sim::MsgLayer layer, sim::ProcessId from, sim::ProcessId to,
                     int in_transit, sim::Time at);

  /// High-water mark seen for the pair on `layer` (0 if no traffic).
  [[nodiscard]] int max_in_transit(sim::MsgLayer layer, sim::ProcessId a,
                                   sim::ProcessId b) const;
  /// Largest high-water mark over all pairs of `layer`.
  [[nodiscard]] int max_in_transit_any(sim::MsgLayer layer) const;
  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }

 private:
  detail::EdgeTable maxima_[sim::kNumMsgLayers];
  std::vector<Violation> violations_;
};

/// P7: streaming mirror of the network's quiescence books — last send
/// time and number of post-crash sends per (layer, target), indexed by
/// target id.
class QuiescenceMonitor final {
 public:
  void on_send(sim::MsgLayer layer, sim::ProcessId to, sim::Time at, bool target_crashed);

  [[nodiscard]] sim::Time last_send_to(sim::ProcessId target, sim::MsgLayer layer) const;
  [[nodiscard]] std::uint64_t sends_to_crashed(sim::ProcessId target,
                                               sim::MsgLayer layer) const;

 private:
  struct PerTarget {
    sim::Time last_send = -1;
    std::uint64_t after_crash = 0;
  };
  [[nodiscard]] const PerTarget* find(sim::ProcessId target, sim::MsgLayer layer) const;

  std::vector<PerTarget> per_target_[sim::kNumMsgLayers];
};

/// One object wearing all three observer hats, fanning out to the four
/// monitors. Wire it with:
///
///     sim.set_event_sink(&hub);
///     sim.network().set_watch(&hub);
///     harness.trace().set_observer(&hub);
///
/// (Scenario does exactly this when Config::observability is set.)
class MonitorHub final : public sim::EventSink,
                         public sim::NetworkWatch,
                         public dining::TraceObserver {
 public:
  explicit MonitorHub(const graph::ConflictGraph& g) : exclusion_(g) {}

  // EventSink
  void on_event(const sim::LoggedEvent& ev) override { forks_.on_event(ev); }
  // NetworkWatch
  void on_send(sim::MsgLayer layer, sim::ProcessId from, sim::ProcessId to, sim::Time at,
               bool target_crashed) override {
    (void)from;
    quiescence_.on_send(layer, to, at, target_crashed);
  }
  void on_high_water(sim::MsgLayer layer, sim::ProcessId from, sim::ProcessId to,
                     int in_transit, sim::Time at) override {
    channels_.on_high_water(layer, from, to, in_transit, at);
  }
  // TraceObserver
  void on_trace_event(const dining::TraceEvent& ev) override {
    exclusion_.on_trace_event(ev);
  }

  [[nodiscard]] const ForkUniquenessMonitor& forks() const { return forks_; }
  [[nodiscard]] const ExclusionMonitor& exclusion() const { return exclusion_; }
  [[nodiscard]] const ChannelBoundMonitor& channels() const { return channels_; }
  [[nodiscard]] const QuiescenceMonitor& quiescence() const { return quiescence_; }

  /// True when no monitor holds a violation.
  [[nodiscard]] bool clean() const {
    return forks_.violations().empty() && exclusion_.violations().empty() &&
           channels_.violations().empty();
  }

  /// Cross-check every monitor against the post-hoc sources of truth:
  /// the exclusion monitor against dining::check_exclusion (elementwise),
  /// the channel monitor against the network's per-pair high-water books,
  /// the quiescence monitor against last_send_to / sends_to_crashed, and
  /// fork uniqueness against P1 itself. Returns "" on full agreement,
  /// otherwise a newline-separated description of every mismatch. The
  /// fuzz suite calls this after every run.
  [[nodiscard]] std::string agreement_failures(const dining::Trace& trace,
                                               const graph::ConflictGraph& g,
                                               const sim::Network& net) const;

  /// Compact JSON summary of monitor verdicts for telemetry lines.
  [[nodiscard]] std::string to_json() const;

 private:
  ForkUniquenessMonitor forks_;
  ExclusionMonitor exclusion_;
  ChannelBoundMonitor channels_;
  QuiescenceMonitor quiescence_;
};

}  // namespace ekbd::obs
