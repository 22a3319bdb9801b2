/// \file recorder.hpp
/// Serialization point of the real-threads runtime.
///
/// The simulator gets its observability for free: it executes one event at
/// a time, so the trace, the event log and the network books are totally
/// ordered by construction. The rt engine has no such luxury — handlers
/// run concurrently on many threads — so every observable transition
/// (send, delivery, timer, crash, scheduling event) must be funneled into
/// one total order. The Recorder does that in one of two modes:
///
/// ## Direct mode (default)
///
/// Every hook takes one global mutex, clamps its timestamp monotonic, and
/// applies the transition to the books on the spot. That buys three
/// things at once:
///
///  1. a totally ordered `dining::Trace` + `sim::EventLog` stream — the
///     *linearization* of the concurrent execution that the paper's
///     properties quantify over;
///  2. the unmodified `sim::Network` books (stamp/delivered), so the
///     post-hoc checkers and `MonitorHub::agreement_failures` consume rt
///     runs byte-for-byte like sim runs;
///  3. a safe place to host the PR-4 online monitors: the hub's three
///     observer hats (EventSink, NetworkWatch, TraceObserver) are all
///     invoked with the recorder mutex held, so the monitors need no
///     locking of their own.
///
/// Direct mode is what the netproc node engine and the `LogWriter` need
/// (one synchronous disk frame per record) and what bare Recorder users
/// get without any wiring.
///
/// ## Segmented streaming mode (`begin_stream` / `end_stream`)
///
/// One global mutex per observable event caps the sharded executor: at
/// 10⁵–10⁶ actors every worker serializes on it (ROADMAP item 2). In
/// streaming mode each worker thread appends to its OWN
/// `RecorderSegment` — an uncontended lock, no global serialization on
/// the hot path — and a collector thread periodically merges the
/// segments' key-ordered prefixes (bounded by the min worker watermark;
/// see segment.hpp for the hybrid-timestamp and watermark protocol) into
/// the very same books: EventLog append, EventSink, `log_io::apply_event`
/// network bookkeeping, trace record. The merged stream is a
/// linearization — identical in shape to direct mode's, which the
/// rt_stream tests assert by verdict equality across recorder modes and
/// shard counts — and the monitors still run single-threaded (only the
/// collector touches them), so they still need no locking.
///
/// The merge runs *windowed*: every `window_ns` the collector drains and
/// merges, so monitors see events with bounded lag and bounded buffering.
/// With `pending_cap` set, a backlog past the cap sheds new appends
/// (counted per segment, surfaced in `StreamStats` like `EventLog`
/// drops) instead of growing without bound — shedding forfeits exact
/// replay/agreement for that window, which is why the default cap is 0
/// (unbounded buffering, typically a few windows' worth).
///
/// Mid-run hooks in streaming mode must come from threads bound via
/// `bind_segment` (the runtime binds each worker); unbound threads fall
/// into a shared "external" segment that is safe but contended.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dining/trace.hpp"
#include "rt/segment.hpp"
#include "sim/event_log.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/time.hpp"

namespace ekbd::rt {

struct SegmentPool;  // log_io.hpp

class Recorder {
 public:
  Recorder();
  ~Recorder();  // ends the stream (joins the collector) if still streaming

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // -- wiring (single-threaded, before Runtime::start) -------------------

  /// Attach an event log (not owned; nullptr detaches).
  void set_event_log(sim::EventLog* log) { log_ = log; }
  /// Attach a streaming event sink (the MonitorHub's EventSink hat).
  void set_event_sink(sim::EventSink* sink) { sink_ = sink; }
  /// Attach a network watch (the MonitorHub's NetworkWatch hat).
  void set_watch(sim::NetworkWatch* watch) { net_.set_watch(watch); }
  /// Attach a trace observer (the MonitorHub's TraceObserver hat).
  void set_trace_observer(dining::TraceObserver* obs) { trace_.set_observer(obs); }

  /// Pre-size the trace for an expected event count. E25-scale runs (10⁵
  /// actors, millions of trace events) would otherwise take repeated
  /// geometric regrowth stalls *inside the recorder mutex* — the one lock
  /// every worker contends on in direct mode.
  void reserve_trace(std::size_t events) { trace_.reserve(events); }

  // -- streaming mode ----------------------------------------------------

  struct StreamOptions {
    /// Worker segments (one per shard); a shared external segment for
    /// unbound threads is always added on top.
    std::size_t segments = 1;
    /// Collector pass period (window). Smaller = fresher monitors and less
    /// buffering; larger = fewer merge passes.
    std::uint64_t window_ns = 5'000'000;
    /// Max records buffered ahead of the merge horizon before the stream
    /// sheds new appends (0 = unbounded). Shedding is counted in
    /// StreamStats and forfeits exact replay/monitor agreement.
    std::size_t pending_cap = 0;
  };

  /// Switch to segmented streaming: allocate segments, launch the
  /// collector. Call before the producing threads start (the runtime
  /// calls it just before launching workers); events recorded in direct
  /// mode beforehand stay ahead of the merged stream. Throws
  /// std::logic_error while a stream is already running.
  void begin_stream(const StreamOptions& opts);
  /// Join the collector and drain every segment (no watermark horizon:
  /// all producers must have quiesced — the runtime calls this after
  /// joining its workers). Falls back to direct mode. Idempotent.
  void end_stream();
  /// Bind the calling thread to segment `index` for the current stream.
  /// Throws std::logic_error unless `index` is below the worker-segment
  /// count of the last stream begun (the external catch-all is not a
  /// worker segment).
  void bind_segment(std::size_t index);
  /// Advance the calling thread's segment watermark to "now" without
  /// appending: an idle worker's promise that nothing earlier is coming,
  /// so one quiet shard cannot stall the merge horizon.
  void heartbeat();

  [[nodiscard]] bool streaming() const {
    return streaming_.load(std::memory_order_acquire);
  }
  /// Collector accounting; callable live (approximate) or after
  /// `end_stream` (exact).
  [[nodiscard]] StreamStats stream_stats() const;

  // -- post-run reads (quiescent: after Runtime::stop_and_join) ----------

  [[nodiscard]] const dining::Trace& trace() const { return trace_; }
  [[nodiscard]] const sim::Network& network() const { return net_; }
  void set_end_time(sim::Time t) { trace_.set_end_time(t); }

  // -- runtime hooks (any thread) ----------------------------------------

  /// A handler (or the driver) handed a message to the transport: stamp it
  /// (seq, books, FIFO horizon — latency 1 is nominal; the *actual*
  /// arrival tick is written by on_deliver) and emit kSend. With `lost`
  /// the fault layer dropped it at the wire: the books are settled
  /// immediately and a kLoss (or, when the loss came from a partition /
  /// edge cut, kPartitionLoss) event follows the kSend, mirroring the
  /// simulator's loss accounting (stamped, never handled). In streaming
  /// mode the books are deferred to the merge; the seq comes from the
  /// segment (globally unique via the segment id in the high bits) and
  /// the target-crashed flag is re-derived from merged kCrash order.
  void on_send(sim::Message& m, sim::Time now, bool target_crashed, bool lost,
               bool partitioned = false) {
    if (streaming()) {
      stream_send(m, now, lost, partitioned);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const sim::Time t = clamp(now);
    net_.stamp(m, t, 1, target_crashed);
    emit({t, sim::LoggedEvent::Kind::kSend, m.from, m.to, m.layer, m.seq,
          payload_tag(m.payload)});
    if (lost) {
      net_.delivered(m);
      emit({t,
            partitioned ? sim::LoggedEvent::Kind::kPartitionLoss
                        : sim::LoggedEvent::Kind::kLoss,
            m.from, m.to, m.layer, m.seq, payload_tag(m.payload)});
    }
  }

  /// A stamped message could not be enqueued (full mailbox under an ARQ
  /// engine's lock, where blocking would deadlock): written off as a wire
  /// loss. The ARQ retransmits it; detector traffic is loss-tolerant by
  /// design — either way a dropped-at-the-door message is semantically a
  /// lost datagram.
  void on_congestion_loss(const sim::Message& m, sim::Time now) {
    if (streaming()) {
      stream_event({now, sim::LoggedEvent::Kind::kLoss, m.from, m.to, m.layer, m.seq,
                    payload_tag(m.payload)});
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const sim::Time t = clamp(now);
    net_.delivered(m);
    emit({t, sim::LoggedEvent::Kind::kLoss, m.from, m.to, m.layer, m.seq,
          payload_tag(m.payload)});
  }

  /// The fault layer injected a duplicate copy: stamp it as its own
  /// in-flight message and emit kDuplicate (the fork-uniqueness monitor
  /// counts duplicates as sends, exactly as under the simulator).
  void on_duplicate(sim::Message& m, sim::Time now, bool target_crashed) {
    if (streaming()) {
      stream_duplicate(m, now);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const sim::Time t = clamp(now);
    net_.stamp(m, t, 1, target_crashed);
    emit({t, sim::LoggedEvent::Kind::kDuplicate, m.from, m.to, m.layer, m.seq,
          payload_tag(m.payload)});
  }

  /// The holder of the target's dispatch claim popped `m` from its
  /// mailbox. Settles the books and
  /// rewrites `m.deliver_at` to the actual arrival tick (the stamp-time
  /// value was a placeholder) so handlers reading it see the truth. With
  /// `target_crashed` the message lands on a corpse: kDrop, never handled.
  void on_deliver(sim::Message& m, sim::Time now, bool target_crashed) {
    if (streaming()) {
      m.deliver_at = now;
      stream_event({now,
                    target_crashed ? sim::LoggedEvent::Kind::kDrop
                                   : sim::LoggedEvent::Kind::kDeliver,
                    m.from, m.to, m.layer, m.seq, payload_tag(m.payload)});
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const sim::Time t = clamp(now);
    m.deliver_at = t;
    net_.delivered(m);
    emit({t,
          target_crashed ? sim::LoggedEvent::Kind::kDrop : sim::LoggedEvent::Kind::kDeliver,
          m.from, m.to, m.layer, m.seq, payload_tag(m.payload)});
  }

  // -- logical-layer hooks (ARQ engines: rt::RtArq, netproc) --------------
  //
  // When an ARQ shim carries a layer, its *logical* messages are booked
  // through Network::logical_* — the same split the simulator's transport
  // mode uses — while the physical kTransport segments go through
  // on_send/on_deliver above. The §7 channel-bound and quiescence
  // monitors read the logical books; retransmit overhead shows up as the
  // gap between the kTransport and logical streams.

  /// The ARQ accepted one logical message. Books it (pair books, watch,
  /// high-water) and emits kSend on its own layer; returns the logical
  /// sequence number the books assigned (in streaming mode: the
  /// segment-assigned globally unique seq).
  std::uint64_t on_logical_send(sim::ProcessId from, sim::ProcessId to,
                                sim::PayloadTag tag, sim::MsgLayer layer, sim::Time now,
                                bool target_crashed) {
    if (streaming()) return stream_logical_send(from, to, tag, layer, now);
    std::lock_guard<std::mutex> lock(mu_);
    const sim::Time t = clamp(now);
    const std::uint64_t seq = net_.logical_sent(from, to, layer, t, target_crashed);
    emit({t, sim::LoggedEvent::Kind::kSend, from, to, layer, seq, tag});
    return seq;
  }

  /// The ARQ released one logical message, in order, to the receiving
  /// actor. Returns the delivery tick for the dispatched message's
  /// `deliver_at`.
  sim::Time on_logical_deliver(sim::ProcessId from, sim::ProcessId to,
                               sim::PayloadTag tag, sim::MsgLayer layer,
                               std::uint64_t logical_seq, sim::Time now) {
    if (streaming()) {
      stream_event({now, sim::LoggedEvent::Kind::kDeliver, from, to, layer, logical_seq, tag});
      return now;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const sim::Time t = clamp(now);
    net_.logical_delivered(from, to, layer);
    emit({t, sim::LoggedEvent::Kind::kDeliver, from, to, layer, logical_seq, tag});
    return t;
  }

  /// The ARQ wrote off one logical message to a dead/unreachable peer.
  void on_logical_drop(sim::ProcessId from, sim::ProcessId to, sim::PayloadTag tag,
                       sim::MsgLayer layer, std::uint64_t logical_seq, sim::Time now) {
    if (streaming()) {
      stream_event({now, sim::LoggedEvent::Kind::kDrop, from, to, layer, logical_seq, tag});
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const sim::Time t = clamp(now);
    net_.logical_dropped(from, to, layer);
    emit({t, sim::LoggedEvent::Kind::kDrop, from, to, layer, logical_seq, tag});
  }

  /// A live actor's timer fired.
  void on_timer(sim::ProcessId owner, sim::Time now) {
    if (streaming()) {
      stream_event({now, sim::LoggedEvent::Kind::kTimer, owner, sim::kNoProcess,
                    sim::MsgLayer::kOther, 0, sim::kNoPayloadTag});
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    emit({clamp(now), sim::LoggedEvent::Kind::kTimer, owner, sim::kNoProcess,
          sim::MsgLayer::kOther, 0, sim::kNoPayloadTag});
  }

  /// Process `p` crashed (its worker is about to stop dispatching).
  void on_crash(sim::ProcessId p, sim::Time now) {
    if (streaming()) {
      stream_event({now, sim::LoggedEvent::Kind::kCrash, p, sim::kNoProcess,
                    sim::MsgLayer::kOther, 0, sim::kNoPayloadTag});
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    emit({clamp(now), sim::LoggedEvent::Kind::kCrash, p, sim::kNoProcess,
          sim::MsgLayer::kOther, 0, sim::kNoPayloadTag});
  }

  /// Process `p` rejoined after a crash (dispatching resumes).
  void on_recover(sim::ProcessId p, sim::Time now) {
    if (streaming()) {
      stream_event({now, sim::LoggedEvent::Kind::kRecover, p, sim::kNoProcess,
                    sim::MsgLayer::kOther, 0, sim::kNoPayloadTag});
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    emit({clamp(now), sim::LoggedEvent::Kind::kRecover, p, sim::kNoProcess,
          sim::MsgLayer::kOther, 0, sim::kNoPayloadTag});
  }

  /// A scheduling event (hungry / eating / forks / crash / churn) from a
  /// diner or the driver. Appends to the trace, which fans out to the
  /// observer. `peer` is the other endpoint for edge-churn events.
  void on_trace(sim::ProcessId p, sim::Time now, dining::TraceEventKind kind,
                sim::ProcessId peer = sim::kNoProcess) {
    if (streaming()) {
      stream_trace(p, now, kind, peer);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    trace_.record(clamp(now), p, kind, peer);
  }

 private:
  /// Monotonic clamp: the recorder's time never goes backwards even when
  /// threads reach the mutex out of clock order (direct mode).
  sim::Time clamp(sim::Time now) {
    if (now > last_) last_ = now;
    return last_;
  }

  void emit(const sim::LoggedEvent& ev) {
    if (log_ != nullptr) log_->append(ev);
    if (sink_ != nullptr) sink_->on_event(ev);
  }

  // Streaming producers (recorder.cpp).
  RecorderSegment& segment_for_thread();
  void stream_send(sim::Message& m, sim::Time now, bool lost, bool partitioned);
  void stream_duplicate(sim::Message& m, sim::Time now);
  std::uint64_t stream_logical_send(sim::ProcessId from, sim::ProcessId to,
                                    sim::PayloadTag tag, sim::MsgLayer layer,
                                    sim::Time now);
  void stream_event(const sim::LoggedEvent& ev);
  void stream_trace(sim::ProcessId p, sim::Time now, dining::TraceEventKind kind,
                    sim::ProcessId peer);
  /// Clamp a key (the thread's steady_clock reading) monotonic within
  /// `seg` (and up to the collector's floor) under `seg.mu`; advances
  /// `seg.last_key`.
  std::int64_t clamp_key_locked(RecorderSegment& seg, std::int64_t raw);
  /// Push under `seg.mu`: stamps the key, respects shedding, counts drops.
  void push_locked(RecorderSegment& seg, SegmentRecord& rec, std::int64_t key);

  // Collector (recorder.cpp).
  void collector_loop();
  void collect_pass(bool final_drain);
  void apply_record(const SegmentRecord& r, std::uint64_t& events, std::uint64_t& traces);

  // -- direct mode -------------------------------------------------------
  std::mutex mu_;
  sim::Time last_ = 0;
  sim::Network net_;
  dining::Trace trace_;
  sim::EventLog* log_ = nullptr;
  sim::EventSink* sink_ = nullptr;

  // -- streaming mode ----------------------------------------------------
  std::atomic<bool> streaming_{false};
  StreamOptions sopt_{};
  std::uint64_t stream_gen_ = 0;  ///< invalidates stale thread bindings
  std::vector<std::unique_ptr<RecorderSegment>> segments_;  ///< workers + external (last)
  /// Merge horizon already consumed: external-segment appends clamp their
  /// keys up to this so they can never undercut merged history.
  std::atomic<std::int64_t> floor_{0};
  std::atomic<bool> shedding_{false};
  std::thread collector_;
  std::mutex collector_mu_;
  std::condition_variable collector_cv_;
  bool collector_stop_ = false;

  // Collector-owned (only the collector thread — or end_stream's final
  // drain, after the join — touches these).
  std::vector<SegmentPool> pools_;
  std::vector<std::uint8_t> crashed_seen_;  ///< per-process flags (log_io apply_event)
  sim::Time merged_tick_ = 0;  ///< monotonic clamp on merged tick stamps

  mutable std::mutex stats_mu_;
  StreamStats stats_;
};

}  // namespace ekbd::rt
