#include "rt/recorder.hpp"

#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "rt/clock.hpp"
#include "rt/log_io.hpp"

namespace ekbd::rt {

namespace {

/// Nanosecond merge key: the calling thread's steady_clock reading —
/// cached on a worker, fresh elsewhere (clock.hpp). segment.hpp argues why
/// a causally ordered pair (a send and the delivery it enables) still
/// reads nondecreasing keys on any pair of threads; exact ties are broken
/// by SegmentRecord::merge_class.
std::int64_t now_key() { return TickClock::thread_now_ns(); }

/// Per-thread segment binding, validated against (recorder, stream
/// generation) so a binding never leaks across recorders or across
/// sequential streams of the same recorder.
struct TlsBinding {
  const void* owner = nullptr;
  std::uint64_t gen = 0;
  std::size_t index = 0;
};
thread_local TlsBinding tls_binding;

/// Segment-id bits in a streaming seq. Per-segment counters stay unique
/// across segments; with segments bounded by core counts the combined
/// value also stays well under 2^53 (exact in the JSON exports).
constexpr unsigned kSeqSegmentShift = 40;

}  // namespace

Recorder::Recorder() = default;

Recorder::~Recorder() { end_stream(); }

// -- stream lifecycle -------------------------------------------------------

void Recorder::begin_stream(const StreamOptions& opts) {
  if (streaming_.load(std::memory_order_relaxed)) {
    throw std::logic_error("Recorder::begin_stream: stream already running");
  }
  sopt_ = opts;
  ++stream_gen_;
  const std::size_t nseg = std::max<std::size_t>(1, opts.segments) + 1;  // + external
  segments_.clear();
  segments_.reserve(nseg);
  for (std::size_t i = 0; i < nseg; ++i) {
    segments_.push_back(std::make_unique<RecorderSegment>());
  }
  pools_.assign(nseg, SegmentPool{});
  crashed_seen_.clear();
  // Continue the direct-mode clamp: anything recorded before the stream
  // started keeps its place ahead of the merged tail.
  merged_tick_ = last_;
  floor_.store(0, std::memory_order_relaxed);
  shedding_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = StreamStats{};
  }
  collector_stop_ = false;
  streaming_.store(true, std::memory_order_release);
  collector_ = std::thread([this] { collector_loop(); });
}

void Recorder::end_stream() {
  if (!streaming_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(collector_mu_);
    collector_stop_ = true;
  }
  collector_cv_.notify_all();
  if (collector_.joinable()) collector_.join();
  // Final drain, no watermark horizon: every producer has quiesced (the
  // runtime joins its workers first), so everything buffered is merged.
  collect_pass(/*final_drain=*/true);
  // Hand the monotonic clamp back to direct mode.
  if (merged_tick_ > last_) last_ = merged_tick_;
  streaming_.store(false, std::memory_order_release);
}

void Recorder::bind_segment(std::size_t index) {
  if (index + 1 >= segments_.size()) {
    throw std::logic_error("Recorder::bind_segment: " + std::to_string(index) +
                           " is not a worker segment");
  }
  tls_binding = TlsBinding{this, stream_gen_, index};
}

void Recorder::heartbeat() {
  RecorderSegment& seg = segment_for_thread();
  const std::int64_t raw = now_key();
  std::lock_guard<std::mutex> lock(seg.mu);
  if (raw > seg.last_key) seg.last_key = raw;
  seg.watermark.store(seg.last_key, std::memory_order_release);
}

StreamStats Recorder::stream_stats() const {
  StreamStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  for (const auto& seg : segments_) {
    std::lock_guard<std::mutex> lock(seg->mu);
    out.dropped_records += seg->dropped;
  }
  return out;
}

// -- streaming producers ----------------------------------------------------

RecorderSegment& Recorder::segment_for_thread() {
  if (tls_binding.owner == this && tls_binding.gen == stream_gen_) {
    return *segments_[tls_binding.index];
  }
  return *segments_.back();  // the external catch-all
}

std::int64_t Recorder::clamp_key_locked(RecorderSegment& seg, std::int64_t raw) {
  std::int64_t key = raw;
  const std::int64_t floor = floor_.load(std::memory_order_acquire);
  if (key < seg.last_key) key = seg.last_key;
  if (key < floor) key = floor;
  seg.last_key = key;
  return key;
}

void Recorder::push_locked(RecorderSegment& seg, SegmentRecord& rec, std::int64_t key) {
  rec.key = key;
  if (shedding_.load(std::memory_order_relaxed)) {
    ++seg.dropped;
    return;
  }
  seg.buf.push_back(rec);
}

void Recorder::stream_send(sim::Message& m, sim::Time now, bool lost, bool partitioned) {
  RecorderSegment& seg = segment_for_thread();
  const std::int64_t raw = now_key();
  std::lock_guard<std::mutex> lock(seg.mu);
  const std::int64_t key = clamp_key_locked(seg, raw);
  // The stamp the direct mode's net_.stamp would have written; the actual
  // arrival tick is rewritten by on_deliver, books are rebuilt at merge.
  m.sent_at = now;
  m.deliver_at = now + 1;
  const std::uint64_t segment_id = tls_binding.owner == this ? tls_binding.index + 1
                                                             : segments_.size();
  m.seq = (segment_id << kSeqSegmentShift) | seg.next_seq++;
  SegmentRecord r;
  r.type = SegmentRecord::Type::kEvent;
  r.event = {now, sim::LoggedEvent::Kind::kSend, m.from, m.to, m.layer, m.seq,
             payload_tag(m.payload)};
  push_locked(seg, r, key);
  if (lost) {
    r.event.kind = partitioned ? sim::LoggedEvent::Kind::kPartitionLoss
                               : sim::LoggedEvent::Kind::kLoss;
    push_locked(seg, r, key);
  }
  seg.watermark.store(key, std::memory_order_release);
}

void Recorder::stream_duplicate(sim::Message& m, sim::Time now) {
  RecorderSegment& seg = segment_for_thread();
  const std::int64_t raw = now_key();
  std::lock_guard<std::mutex> lock(seg.mu);
  const std::int64_t key = clamp_key_locked(seg, raw);
  m.sent_at = now;
  m.deliver_at = now + 1;
  const std::uint64_t segment_id = tls_binding.owner == this ? tls_binding.index + 1
                                                             : segments_.size();
  m.seq = (segment_id << kSeqSegmentShift) | seg.next_seq++;
  SegmentRecord r;
  r.type = SegmentRecord::Type::kEvent;
  r.event = {now, sim::LoggedEvent::Kind::kDuplicate, m.from, m.to, m.layer, m.seq,
             payload_tag(m.payload)};
  push_locked(seg, r, key);
  seg.watermark.store(key, std::memory_order_release);
}

std::uint64_t Recorder::stream_logical_send(sim::ProcessId from, sim::ProcessId to,
                                            sim::PayloadTag tag, sim::MsgLayer layer,
                                            sim::Time now) {
  RecorderSegment& seg = segment_for_thread();
  const std::int64_t raw = now_key();
  std::lock_guard<std::mutex> lock(seg.mu);
  const std::int64_t key = clamp_key_locked(seg, raw);
  const std::uint64_t segment_id = tls_binding.owner == this ? tls_binding.index + 1
                                                             : segments_.size();
  const std::uint64_t seq = (segment_id << kSeqSegmentShift) | seg.next_seq++;
  SegmentRecord r;
  r.type = SegmentRecord::Type::kEvent;
  r.event = {now, sim::LoggedEvent::Kind::kSend, from, to, layer, seq, tag};
  push_locked(seg, r, key);
  seg.watermark.store(key, std::memory_order_release);
  return seq;
}

void Recorder::stream_event(const sim::LoggedEvent& ev) {
  RecorderSegment& seg = segment_for_thread();
  const std::int64_t raw = now_key();
  std::lock_guard<std::mutex> lock(seg.mu);
  const std::int64_t key = clamp_key_locked(seg, raw);
  SegmentRecord r;
  r.type = SegmentRecord::Type::kEvent;
  r.event = ev;
  push_locked(seg, r, key);
  seg.watermark.store(key, std::memory_order_release);
}

void Recorder::stream_trace(sim::ProcessId p, sim::Time now, dining::TraceEventKind kind,
                            sim::ProcessId peer) {
  RecorderSegment& seg = segment_for_thread();
  const std::int64_t raw = now_key();
  std::lock_guard<std::mutex> lock(seg.mu);
  const std::int64_t key = clamp_key_locked(seg, raw);
  SegmentRecord r;
  r.type = SegmentRecord::Type::kTrace;
  r.trace = dining::TraceEvent{now, p, kind, peer};
  push_locked(seg, r, key);
  seg.watermark.store(key, std::memory_order_release);
}

// -- collector --------------------------------------------------------------

void Recorder::collector_loop() {
  const auto window = std::chrono::nanoseconds(
      sopt_.window_ns == 0 ? 1'000'000 : sopt_.window_ns);
  std::unique_lock<std::mutex> lock(collector_mu_);
  while (!collector_stop_) {
    collector_cv_.wait_for(lock, window);
    if (collector_stop_) break;  // end_stream runs the final drain itself
    lock.unlock();
    collect_pass(/*final_drain=*/false);
    lock.lock();
  }
}

void Recorder::collect_pass(bool final_drain) {
  const std::size_t nseg = segments_.size();
  const std::size_t workers = nseg - 1;  // the external segment does not vote

  // Horizon: nothing with a smaller key can ever be appended again — each
  // worker segment is single-producer and clamps its keys monotonic, and
  // external appends are clamped up to the published floor.
  std::int64_t horizon = std::numeric_limits<std::int64_t>::max();
  if (!final_drain) {
    for (std::size_t i = 0; i < workers; ++i) {
      horizon = std::min(horizon, segments_[i]->watermark.load(std::memory_order_acquire));
    }
    if (horizon > floor_.load(std::memory_order_relaxed)) {
      // Publish BEFORE draining: an external append that misses this
      // pass's drain observes the new floor through the segment mutex and
      // clamps its key to >= horizon — it can never slot in below history
      // this pass is about to merge.
      floor_.store(horizon, std::memory_order_release);
    }
  }

  // Swap out every segment's buffer. The common case (the pool drained
  // dry last pass) is a pointer swap; a backlogged pool appends and
  // compacts its consumed prefix when it dominates.
  std::size_t pending = 0;
  for (std::size_t i = 0; i < nseg; ++i) {
    RecorderSegment& seg = *segments_[i];
    SegmentPool& pool = pools_[i];
    std::lock_guard<std::mutex> lock(seg.mu);
    if (pool.head >= pool.recs.size()) {
      pool.recs.clear();
      pool.head = 0;
      std::swap(pool.recs, seg.buf);
    } else {
      if (pool.head > 1024 && pool.head * 2 > pool.recs.size()) {
        pool.recs.erase(pool.recs.begin(),
                        pool.recs.begin() + static_cast<std::ptrdiff_t>(pool.head));
        pool.head = 0;
      }
      pool.recs.insert(pool.recs.end(), seg.buf.begin(), seg.buf.end());
      seg.buf.clear();
    }
    pending += pool.recs.size() - pool.head;
  }

  std::uint64_t events = 0;
  std::uint64_t traces = 0;
  const std::size_t merged = merge_segments(
      pools_, horizon,
      [this, &events, &traces](const SegmentRecord& r) { apply_record(r, events, traces); });

  // Shedding hysteresis: arm past the cap, disarm at half. Producers see
  // the flag on their next append; the windows in between are counted.
  const std::size_t left = pending - merged;
  bool shed = shedding_.load(std::memory_order_relaxed);
  if (sopt_.pending_cap != 0) {
    if (!shed && left > sopt_.pending_cap) {
      shed = true;
      shedding_.store(true, std::memory_order_seq_cst);
    } else if (shed && left <= sopt_.pending_cap / 2) {
      shed = false;
      shedding_.store(false, std::memory_order_seq_cst);
    }
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.collect_passes;
  stats_.merged_events += events;
  stats_.merged_trace_events += traces;
  stats_.max_pending = std::max(stats_.max_pending, pending);
  if (shed) ++stats_.dropped_windows;
}

void Recorder::apply_record(const SegmentRecord& r, std::uint64_t& events,
                            std::uint64_t& traces) {
  if (r.type == SegmentRecord::Type::kEvent) {
    sim::LoggedEvent ev = r.event;
    // Hybrid stamp, final clamp: merge order is by nanosecond key; the
    // sub-tick skew between a producer's tick reading and its key reading
    // can leave tick stamps locally out of order, so the merged stream
    // re-applies the same monotonic clamp direct mode used.
    if (ev.at < merged_tick_) {
      ev.at = merged_tick_;
    } else {
      merged_tick_ = ev.at;
    }
    emit(ev);
    apply_event(ev, net_, crashed_seen_);
    ++events;
  } else {
    sim::Time at = r.trace.at;
    if (at < merged_tick_) {
      at = merged_tick_;
    } else {
      merged_tick_ = at;
    }
    trace_.record(at, r.trace.process, r.trace.kind, r.trace.peer);
    ++traces;
  }
}

}  // namespace ekbd::rt
