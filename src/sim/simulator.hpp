/// \file simulator.hpp
/// Deterministic discrete-event simulator.
///
/// Executes a set of Actors over virtual time: one event queue (message
/// deliveries, timers, externally scheduled callbacks) drained in strict
/// (time, sequence number) order. Given the same seed and the same
/// sequence of API calls, two runs are bit-identical — every experiment in
/// this repository is replayable from its parameters.
///
/// Crash faults follow the paper's model (Cristian-style crash): a crashed
/// process ceases execution without warning. Concretely, once `crash(p)`
/// takes effect no handler of `p` runs again; messages in flight *to* p
/// are silently dropped at delivery time; messages already sent *by* p are
/// still delivered (they left the process before the crash). As an
/// extension beyond the paper, `recover(p)` brings the process back at a
/// later instant (timed mode only): the dead incarnation's timers are
/// cancelled, inbound traffic sent before the recovery is dropped, and the
/// actor's `on_recover` runs a protocol-level rejoin.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/actor.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_log.hpp"
#include "sim/message.hpp"
#include "sim/net_hooks.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/transport_iface.hpp"

namespace ekbd::sim {

/// Metric handles the simulator updates when instrumented (see
/// obs::attach_simulator_metrics). All null by default: a handle that is
/// not attached costs one branch at its update site and nothing else —
/// the same discipline as the event log, enforced by the E21 perf gate
/// and the hot-path allocation test.
struct SimMetrics {
  obs::Counter* events = nullptr;      ///< events dispatched
  obs::Counter* sends = nullptr;       ///< physical sends (raw_send)
  obs::Gauge* queue_depth = nullptr;   ///< pending timed events (wheel + heap)
  obs::Gauge* slab_live = nullptr;     ///< live slab records (occupancy)
};

/// How the simulator orders events.
///
///  * kTimed: the normal mode — events fire in virtual-time order given by
///    the delay model; used by every experiment.
///  * kControlled: model-checking mode — pending events are exposed as an
///    explicit choice set and an external driver (mc::Explorer) picks which
///    fires next, subject only to per-channel FIFO. This is the literal
///    asynchronous model of the paper: any in-flight message may be the
///    next to arrive. Virtual time advances one tick per executed event.
enum class ExecMode { kTimed, kControlled };

/// Descriptor of one pending event in controlled mode.
struct PendingEvent {
  enum class Kind { kMessage, kTimer, kScheduled };
  std::uint64_t id = 0;
  Kind kind = Kind::kScheduled;
  ProcessId from = kNoProcess;  ///< messages: sender
  ProcessId to = kNoProcess;    ///< messages: recipient
  ProcessId owner = kNoProcess; ///< timers: owning process
  /// Messages: send order on the directed channel (from,to). Per-channel
  /// FIFO eligibility and the mc commutativity oracle both key off this.
  std::uint64_t channel_rank = 0;

  /// Packed key of a directed channel; the only ordering domain the
  /// asynchronous model constrains (reliable per-channel FIFO).
  [[nodiscard]] static std::uint64_t channel_key(ProcessId from, ProcessId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(to));
  }

  /// This event's channel key (messages only; meaningless otherwise).
  [[nodiscard]] std::uint64_t channel() const { return channel_key(from, to); }

  [[nodiscard]] std::string describe() const;
};

class Simulator final : public TransportIface {
 public:
  /// \param seed   master seed for every random stream in the run
  /// \param delays model for message latencies (timed mode; defaults to
  ///               Uniform[1,10]; controlled mode never samples one)
  /// \param mode   kTimed for experiments, kControlled for model checking
  explicit Simulator(std::uint64_t seed,
                     std::unique_ptr<DelayModel> delays = nullptr,
                     ExecMode mode = ExecMode::kTimed);

  // -- topology -------------------------------------------------------

  /// Register an actor; returns its ProcessId (0, 1, 2, ... in order).
  /// All actors must be registered before `start()`.
  ProcessId add_actor(std::unique_ptr<Actor> actor);

  /// Construct and register an actor in place; returns a non-owning typed
  /// pointer (valid for the simulator's lifetime).
  template <typename T, typename... Args>
  T* make_actor(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    add_actor(std::move(owned));
    return raw;
  }

  [[nodiscard]] std::size_t num_processes() const { return actors_.size(); }
  [[nodiscard]] Actor* actor(ProcessId p) { return actors_[static_cast<std::size_t>(p)].get(); }
  [[nodiscard]] const Actor* actor(ProcessId p) const {
    return actors_[static_cast<std::size_t>(p)].get();
  }

  // -- lifecycle ------------------------------------------------------

  /// Deliver `on_start` to every (non-crashed) actor. Idempotent.
  void start();

  /// Run all events with timestamp <= t; afterwards now() == t.
  /// (kTimed mode only: std::logic_error in controlled mode.)
  void run_until(Time t);

  /// Run for `d` more ticks of virtual time.
  void run_for(Time d) { run_until(now_ + d); }

  /// Execute the single earliest pending event. Returns false if idle.
  /// (kTimed mode only: std::logic_error in controlled mode.)
  bool step();

  /// True if no events are pending.
  [[nodiscard]] bool idle() const {
    return mode_ == ExecMode::kTimed ? wheel_count_ == 0 && heap_.empty()
                                     : pending_head_ == kNoSlot;
  }

  // -- controlled (model-checking) mode ---------------------------------

  [[nodiscard]] ExecMode mode() const { return mode_; }

  /// Pending events that may legally fire next: every timer and scheduled
  /// callback, plus — per directed channel — only the oldest in-flight
  /// message (reliable FIFO channels). Stable order (by event id).
  /// (kControlled mode only: std::logic_error in timed mode.)
  [[nodiscard]] std::vector<PendingEvent> eligible_events() const;

  /// Fire the pending event with this id (must be eligible). Advances
  /// virtual time by one tick. Returns false if the id is unknown or not
  /// currently eligible. (kControlled mode only: std::logic_error in timed
  /// mode.)
  bool execute_event(std::uint64_t id);

  /// Append the simulator's contribution to a *semantic* state
  /// fingerprint (mc::check_liveness): the crash mask, every directed
  /// channel's in-flight payload sequence (FIFO order, packed via
  /// pack_payload), and per-owner pending timer counts (live and
  /// cancelled-but-unfired separately — a cancelled timer is still a
  /// no-op choice). Deliberately excludes now(), event ids and channel
  /// ranks: two states that differ only in how many ticks it took to
  /// reach them fingerprint identically, which is what lets lasso
  /// detection close cycles. (kControlled only.)
  void controlled_state_key(std::vector<std::uint64_t>& out) const;

  /// The id the next controlled-mode event will receive. Lets a harness
  /// that calls schedule() learn the id of the choice it just created
  /// (read before the call): mc::LivenessWorld uses this to give
  /// scheduled closures stable semantic fingerprints.
  [[nodiscard]] std::uint64_t next_event_id() const { return next_event_seq_; }

  // -- actor services (the sim::TransportIface implementation) ----------

  void send(ProcessId from, ProcessId to, const Payload& payload, MsgLayer layer) override;
  /// Arm a one-shot timer `delay` ticks from now. Throws
  /// std::invalid_argument if `delay` is negative.
  TimerId set_timer(ProcessId owner, Time delay) override;
  /// Timer ids are unique per simulator (in timed mode they also carry the
  /// timer's slab slot, so cancelling is one indexed store), so the owner
  /// is redundant here — the interface carries it for engines with
  /// per-actor timer state.
  void cancel_timer(ProcessId owner, TimerId id) override { (void)owner; cancel_timer(id); }
  void cancel_timer(TimerId id);

  // -- net hooks (link-fault adversary + reliable transport) -------------

  /// Install (or clear with nullptr) a channel adversary consulted on
  /// every physical send in timed mode. Not owned; must outlive the run.
  void set_adversary(ChannelAdversary* adversary) { adversary_ = adversary; }
  [[nodiscard]] ChannelAdversary* adversary() const { return adversary_; }

  /// Install (or clear with nullptr) a transport shim. Logical sends on
  /// covered layers are diverted to it; its physical segments are handed
  /// back to it at delivery time. Not owned; must outlive the run.
  void set_transport(Transport* transport) { transport_ = transport; }
  [[nodiscard]] Transport* transport() const { return transport_; }

  /// Physical send that bypasses the transport shim (but not the
  /// adversary) — the transport's own segments travel through this.
  void raw_send(ProcessId from, ProcessId to, const Payload& payload, MsgLayer layer);

  /// Hand a transport-released logical message to the recipient actor,
  /// settling the logical channel books and the event log. `logical_seq`
  /// is the sequence number `Network::logical_sent` returned for it;
  /// `sent_at` the original logical send time.
  void deliver_logical(ProcessId from, ProcessId to, const Payload& payload, MsgLayer layer,
                       std::uint64_t logical_seq, Time sent_at);

  /// Record a logged event with the log and/or streaming sink (no-op when
  /// neither is attached) — lets the transport record logical sends
  /// alongside the physical record.
  void append_log(const LoggedEvent& ev) { emit(ev); }

  // -- external scheduling (harness / tests) ---------------------------

  /// Run `fn` at absolute virtual time `at`. Throws std::invalid_argument
  /// if `at` is before now() (in every build type: a past event would pop
  /// first and move the clock backwards).
  void schedule(Time at, std::function<void()> fn);

  /// Run `fn` `delay` ticks from now.
  void schedule_in(Time delay, std::function<void()> fn) { schedule(now_ + delay, std::move(fn)); }

  // -- event tracing ------------------------------------------------------

  /// Attach (or detach with nullptr) a low-level event log: every send,
  /// delivery, drop, timer firing and crash is appended. The log is not
  /// owned and must outlive its attachment.
  void set_event_log(EventLog* log) { event_log_ = log; }
  /// Currently attached log (nullptr when detached).
  [[nodiscard]] EventLog* event_log() const { return event_log_; }

  /// Attach (or detach with nullptr) a streaming event sink: receives
  /// exactly the events the log would, in the same order, as they happen
  /// (the online invariant monitors ride on this). Not owned; must not
  /// re-enter the simulator.
  void set_event_sink(EventSink* sink) { sink_ = sink; }

  /// Attach (or reset with {}) metric handles. Plain pointers into an
  /// obs::MetricsRegistry owned elsewhere; every handle is optional.
  void set_metrics(const SimMetrics& m) { metrics_ = m; }

  // -- channel faults (model-violation experiments) ----------------------

  /// Break the reliable-FIFO channel assumptions on purpose (kTimed only):
  /// with probability `dup_prob` a sent message is delivered twice (the
  /// duplicate takes an independent delay), and with probability
  /// `reorder_prob` a message ignores the per-channel FIFO order (it may
  /// undercut earlier messages). The paper's Lemmas 1.1/1.2 *assume* these
  /// never happen; bench/e17_model_assumptions shows what breaks when they
  /// do. Default: 0/0 — the paper's model.
  void set_channel_faults(double dup_prob, double reorder_prob) {
    dup_prob_ = dup_prob;
    reorder_prob_ = reorder_prob;
  }

  // -- crash faults -----------------------------------------------------

  /// Crash `p` immediately (idempotent).
  void crash(ProcessId p);

  /// Crash `p` at absolute time `at` (>= now(), else
  /// std::invalid_argument).
  void schedule_crash(ProcessId p, Time at);

  /// Bring a crashed `p` back (timed mode only; no-op if live). The new
  /// incarnation keeps the actor object's local state; the dead one's
  /// pending timers are cancelled and every message sent to `p` before
  /// this instant is dropped at delivery (recovery fences the inbound
  /// channels). Fires `Actor::on_recover`. std::logic_error in controlled
  /// mode.
  void recover(ProcessId p);

  /// Recover `p` at absolute time `at` (>= now(), else
  /// std::invalid_argument).
  void schedule_recovery(ProcessId p, Time at);

  [[nodiscard]] bool crashed(ProcessId p) const {
    return crash_times_[static_cast<std::size_t>(p)] >= 0;
  }

  /// Time at which `p` crashed, or -1 if live.
  [[nodiscard]] Time crash_time(ProcessId p) const {
    return crash_times_[static_cast<std::size_t>(p)];
  }

  /// Processes that have not crashed (so far).
  [[nodiscard]] std::vector<ProcessId> live_processes() const;

  // -- introspection ----------------------------------------------------

  [[nodiscard]] Time now() const override { return now_; }
  /// Master stream. Controlled mode never draws from it, so there it is
  /// seeded on first use (same seed, same stream).
  Rng& rng() {
    if (!rng_) rng_.emplace(seed_);
    return *rng_;
  }
  Network& network() { return network_; }
  [[nodiscard]] const Network& network() const { return network_; }
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

  /// Per-actor independent random stream (created lazily, stable per id:
  /// derived as Rng(seed).fork(p + 1), the same derivation every engine
  /// uses).
  Rng& actor_rng(ProcessId p) override;

 private:
  /// "No record" for the slot links below (wheel buckets and the
  /// controlled-mode lists alike).
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One pending timed event. A typed discriminant instead of a
  /// per-event heap-allocated `std::function` closure: the steady-state
  /// kinds (deliveries, timers, drop settlements, crashes) carry their
  /// operands inline, so queueing and popping them never allocates — and
  /// the record is trivially copyable, so slab stores are plain memcpys.
  /// Externally scheduled callbacks (`schedule()`) keep a closure, parked
  /// in `callbacks_` under the event's seq — they are harness-frequency,
  /// not message-frequency.
  struct Event {
    enum class Kind : std::uint8_t {
      kDeliver,     ///< hand `msg` to its recipient (or drop at a corpse)
      kTimer,       ///< fire timer `timer_id` at `owner` unless disarmed
      kDropSettle,  ///< `msg` was lost in flight: settle books, log loss
      kCrash,       ///< crash process `owner`
      kCallback,    ///< run the closure filed under `seq` in `callbacks_`
    };
    Time at = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::kCallback;
    bool partitioned = false;      ///< kDropSettle: partition cut vs. random loss
    bool armed = false;            ///< kTimer: not cancelled yet
    std::uint32_t next = kNoSlot;  ///< next record in the same wheel bucket
    ProcessId owner = kNoProcess;  ///< kTimer / kCrash subject
    TimerId timer_id = 0;          ///< kTimer
    Message msg;                   ///< kDeliver / kDropSettle
  };
  /// Slab slot bits. Heap keys and timed-mode TimerIds pack a slot into
  /// their low bits: 2^21 ≈ 2M *concurrently pending* events, with 43 bits
  /// left above for the seq or timer counter (centuries of simulated
  /// traffic). acquire_slot() hard-fails at the cap rather than silently
  /// mis-ordering.
  static constexpr unsigned kSlotBits = 21;
  static constexpr std::uint64_t kMaxSlots = 1ULL << kSlotBits;
  /// Far-level entry: the firing time plus a packed (seq, slot) word, seq
  /// in the high bits so comparing the word orders by seq. 16 bytes, so
  /// the four children of a 4-ary node share one cache line.
  struct HeapEntry {
    Time at = 0;
    std::uint64_t seq_slot = 0;
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & (kMaxSlots - 1));
    }
  };
  /// Strict "a fires after b" on the (at, seq) key. seq is unique, so
  /// this is a *total* order: the pop sequence is fully determined by the
  /// key and does not depend on the heap's internal shape or arity.
  static bool event_later(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq_slot > b.seq_slot;
  }

  /// Near level of the timed queue: one bucket per tick of
  /// [now, now + kWheelSpan), indexed by `at mod kWheelSpan`. Every event
  /// committed less than a span ahead lands here; time never runs
  /// backwards, so each bucket only ever holds a single tick. Buckets are
  /// intrusive FIFO lists of slab slots (linked through Event::next) and
  /// `occupied` has one bit per non-empty bucket, so finding the earliest
  /// bucket scans at most kWheelSpan / 64 words and never walks empty
  /// ticks. The span covers the longest pre-GST delay spikes (~1,200
  /// ticks), keeping nearly every message and timer out of the heap.
  static constexpr std::size_t kWheelSpan = 2048;
  static constexpr std::size_t kWheelWords = kWheelSpan / 64;
  struct Wheel {
    struct Bucket {
      std::uint32_t head = kNoSlot;
      std::uint32_t tail = kNoSlot;
    };
    std::array<Bucket, kWheelSpan> buckets{};
    std::array<std::uint64_t, kWheelWords> occupied{};
  };

  /// A pending event in controlled mode: descriptor (including the
  /// per-channel FIFO rank for messages) plus inline operands — the same
  /// typed-record scheme as the timed heap; only kScheduled carries a
  /// closure. Records live in the `pending_` slab and are threaded on two
  /// intrusive lists of slots: every pending event in id order
  /// (`prev`/`next`), and each directed channel's in-flight messages in
  /// send order (`fifo_next`).
  struct ControlledEvent {
    PendingEvent info;
    TimerId timer_id = 0;      ///< kTimer
    bool timer_armed = false;  ///< kTimer: not cancelled yet
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
    std::uint32_t fifo_next = kNoSlot;  ///< kMessage: next on its channel
    Message msg;                        ///< kMessage
    std::function<void()> fn;           ///< kScheduled only
  };
  /// One directed channel's in-flight messages in controlled mode: the
  /// ends of its `fifo_next` list, its length, and the next send rank.
  struct ControlledChannel {
    std::uint32_t head = kNoSlot;  ///< oldest in-flight message: the eligible one
    std::uint32_t tail = kNoSlot;
    std::uint64_t len = 0;
    std::uint64_t send_rank = 0;
  };
  /// Controlled-mode pending timers per owner (live and cancelled-but-
  /// unfired), kept current so the state key never has to count them.
  struct TimerCounts {
    std::uint64_t live = 0;
    std::uint64_t cancelled = 0;
  };

  /// Grab a free slab slot (recycled or fresh). The returned reference is
  /// valid only until the next acquire (the slab may reallocate).
  std::uint32_t acquire_slot();
  /// Assign the next event seq to the record in `slot` and queue it: on
  /// the wheel if it fires less than kWheelSpan ticks from now, else on
  /// the heap (always the heap in controlled mode, which has no wheel).
  /// The record's `at` and `kind` must be final. Returns the seq (keys
  /// `callbacks_` for kCallback records). Throws std::invalid_argument,
  /// releasing the slot, if `at` is before now().
  std::uint64_t commit_event(std::uint32_t slot);
  /// Cold-path convenience: copy a ready-made record into a slot and
  /// commit it. The hot send path builds records in place instead.
  std::uint64_t push_event(const Event& ev);
  /// Give the next event id to a fresh pending record and append it to
  /// the id-order list. The reference is valid until the next push.
  ControlledEvent& push_controlled(PendingEvent::Kind kind, ProcessId from, ProcessId to,
                                   ProcessId owner, std::uint64_t channel_rank);
  /// Slot of the pending event with this id, or kNoSlot.
  [[nodiscard]] std::uint32_t pending_slot(std::uint64_t id) const {
    if (pending_index_.empty()) return kNoSlot;
    const std::uint32_t slot = pending_index_[id & (pending_index_.size() - 1)];
    return slot != kNoSlot && pending_[slot].info.id == id ? slot : kNoSlot;
  }
  /// Rebuild the id index at `capacity` (a power of two larger than the
  /// id span of the pending events).
  void reindex_pending(std::size_t capacity);
  /// Directed channel (from, to) of the controlled-mode channel table.
  [[nodiscard]] ControlledChannel& channel(ProcessId from, ProcessId to) {
    return channels_[static_cast<std::size_t>(from) * channel_stride_ +
                     static_cast<std::size_t>(to)];
  }
  [[nodiscard]] const ControlledChannel& channel(ProcessId from, ProcessId to) const {
    return channels_[static_cast<std::size_t>(from) * channel_stride_ +
                     static_cast<std::size_t>(to)];
  }
  /// Size the per-process controlled tables (channels, timer counts) for
  /// the current number of processes, keeping their contents. Writers
  /// call it when a process was added since; readers use the stored
  /// layout, which covers every process that has touched a table.
  void fit_controlled_tables();
  /// 4-ary min-heap primitives over `heap_` (earliest (at, seq) on top).
  /// Quarter the depth of a binary heap and all four children share one
  /// cache line, so pops touch far less memory; because (at, seq) is a
  /// total order the pop sequence is identical to any other heap arity.
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  /// Remove heap_[0], restoring the heap property.
  void heap_pop_front();
  /// Index of the earliest non-empty wheel bucket: the first occupied bit
  /// at or after now's bucket, wrapping once. Precondition: wheel_count_ > 0.
  [[nodiscard]] std::size_t wheel_first_bucket() const;
  /// Slot of the earliest pending timed event, or kNoSlot when none is
  /// pending. Ties on `at` go to the heap: a heap entry for tick t was
  /// committed while t was still a span or more away, i.e. before every
  /// wheel entry for t, so it has the smaller seq.
  [[nodiscard]] std::uint32_t front_slot() const;
  /// Remove `slot`, which front_slot() just returned, from its level.
  void unlink_front(std::uint32_t slot);
  /// Discard disarmed (cancelled) timer records at the queue front and
  /// return the front slot (kNoSlot if the queue ran dry). Disarmed
  /// timers are dead weight, not events: skipping them must not advance
  /// time or the events_processed counter.
  std::uint32_t prune_cancelled();
  /// Unlink and run the front event `slot` (from prune_cancelled()).
  void pop_and_dispatch(std::uint32_t slot);
  void dispatch(Event&& ev);
  /// Run a live (not cancelled) timer's handler, unless its owner crashed.
  void fire_timer(ProcessId owner, TimerId id);
  [[nodiscard]] bool is_eligible(std::uint32_t slot) const {
    // FIFO: only the oldest pending message per directed channel may arrive.
    const PendingEvent& info = pending_[slot].info;
    return info.kind != PendingEvent::Kind::kMessage || channel(info.from, info.to).head == slot;
  }
  void deliver(const Message& m);

  /// True when anyone is listening for logged events. Every event
  /// construction site is guarded by this, so the uninstrumented hot path
  /// never builds a LoggedEvent.
  [[nodiscard]] bool tracing() const { return event_log_ != nullptr || sink_ != nullptr; }
  /// Fan one event out to the log and the sink (same order everywhere).
  void emit(const LoggedEvent& ev) {
    if (event_log_ != nullptr) event_log_->append(ev);
    if (sink_ != nullptr) sink_->on_event(ev);
  }

  std::uint64_t seed_;
  std::optional<Rng> rng_;
  std::unique_ptr<DelayModel> delays_;
  ExecMode mode_;
  Network network_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<std::unique_ptr<Rng>> actor_rngs_;
  std::vector<Time> crash_times_;
  /// Latest recovery instant per process (-1: never recovered). Deliveries
  /// of messages sent before this are dropped — see recover().
  std::vector<Time> last_recover_;
  /// Timed event queue, two levels over one slab of Event records (slots
  /// recycled through `free_slots_`): the wheel holds everything due
  /// within a span of now, the 4-ary heap of compact HeapEntry keys the
  /// rest. Far events stay in the heap until they fire; they are never
  /// migrated. Controlled mode allocates no wheel: its only timed-queue
  /// records are schedule_crash() entries, which go to the heap.
  std::unique_ptr<Wheel> wheel_;
  std::size_t wheel_count_ = 0;  ///< records on the wheel
  std::vector<HeapEntry> heap_;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_slots_;
  /// Closures of pending kCallback events, keyed by event seq.
  std::unordered_map<std::uint64_t, std::function<void()>> callbacks_;
  std::uint64_t next_event_seq_ = 0;
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t events_processed_ = 0;
  double dup_prob_ = 0.0;
  double reorder_prob_ = 0.0;
  ChannelAdversary* adversary_ = nullptr;
  Transport* transport_ = nullptr;
  EventLog* event_log_ = nullptr;
  EventSink* sink_ = nullptr;
  SimMetrics metrics_;
  Time now_ = 0;
  bool started_ = false;

  /// Controlled mode: slab of pending records (slots recycled through
  /// `pending_free_`) and the id index — a ring mapping event id modulo
  /// its (power-of-two) size to a slot. Ids are handed out consecutively,
  /// so while the oldest pending id is within the ring size of the newest
  /// no two pending events share an index entry: lookup and erase are
  /// O(1). `pending_head_`/`pending_tail_` are the ends of the id-order
  /// list; iterating it visits pending events only, in id order.
  std::vector<ControlledEvent> pending_;
  std::vector<std::uint32_t> pending_free_;
  std::vector<std::uint32_t> pending_index_;
  /// First sizes: the index spans a model-checking world's whole event
  /// history, the slab its peak number of pending events.
  static constexpr std::size_t kInitialIndex = 64;
  static constexpr std::size_t kInitialSlots = 32;
  std::uint32_t pending_head_ = kNoSlot;
  std::uint32_t pending_tail_ = kNoSlot;
  std::uint64_t pending_count_ = 0;
  std::uint64_t pending_scheduled_ = 0;  ///< pending kScheduled events
  /// Controlled mode: directed channels, dense [from * stride + to]. An
  /// event is eligible iff it heads its channel — O(1), making
  /// eligible_events() O(pending).
  std::vector<ControlledChannel> channels_;
  std::size_t channel_stride_ = 0;
  /// Controlled mode: (timer id, slot) of every armed pending timer, for
  /// cancel_timer(); a handful per world, so a scan is the lookup.
  std::vector<std::pair<TimerId, std::uint32_t>> armed_timers_;
  std::vector<TimerCounts> timer_counts_;  ///< per owner (controlled mode)
};

}  // namespace ekbd::sim
