#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace ekbd::sim {

namespace {

/// Checked in every build type: a past event would pop first and move the
/// clock backwards (and share a wheel bucket with a future tick).
[[noreturn]] void reject_past(Time at, Time now) {
  throw std::invalid_argument("sim: cannot schedule at t=" + std::to_string(at) +
                              ", before now=" + std::to_string(now));
}

/// Checked in every build type: each execution mode has its own entry points,
/// and the other mode's would run events it must never see (a controlled
/// world's timed heap holds `schedule_crash` records that never fire).
[[noreturn]] void reject_mode(const char* what) {
  throw std::logic_error(std::string("sim: ") + what);
}

}  // namespace

// -------------------------------------------------- TransportIface glue --

void TransportIface::bind(Actor& actor, TransportIface* ctx, ProcessId id) {
  actor.ctx_ = ctx;
  actor.id_ = id;
}

// ---------------------------------------------------------------- Actor --

void Actor::send(ProcessId to, const Payload& payload, MsgLayer layer) {
  assert(ctx_ != nullptr && "actor not registered with an engine");
  ctx_->send(id_, to, payload, layer);
}

TimerId Actor::set_timer(Time delay) { return ctx_->set_timer(id_, delay); }

void Actor::cancel_timer(TimerId id) { ctx_->cancel_timer(id_, id); }

Time Actor::now() const { return ctx_->now(); }

Rng& Actor::rng() { return ctx_->actor_rng(id_); }

// ------------------------------------------------------------ Simulator --

std::string PendingEvent::describe() const {
  switch (kind) {
    case Kind::kMessage:
      return "msg p" + std::to_string(from) + "->p" + std::to_string(to);
    case Kind::kTimer:
      return "timer@p" + std::to_string(owner);
    case Kind::kScheduled:
      return "scheduled";
  }
  return "?";
}

Simulator::Simulator(std::uint64_t seed, std::unique_ptr<DelayModel> delays, ExecMode mode)
    : seed_(seed),
      delays_(delays || mode == ExecMode::kControlled ? std::move(delays)
                                                      : make_uniform_delay(1, 10)),
      mode_(mode) {
  if (mode_ == ExecMode::kTimed) {
    rng_.emplace(seed_);
    wheel_ = std::make_unique<Wheel>();
  }
}

ProcessId Simulator::add_actor(std::unique_ptr<Actor> actor) {
  assert(!started_ && "register all actors before start()");
  auto id = static_cast<ProcessId>(actors_.size());
  bind(*actor, this, id);
  actors_.push_back(std::move(actor));
  actor_rngs_.push_back(nullptr);
  crash_times_.push_back(-1);
  last_recover_.push_back(-1);
  return id;
}

void Simulator::start() {
  if (started_) return;
  started_ = true;
  for (auto& a : actors_) {
    if (!crashed(a->id())) a->on_start();
  }
}

Rng& Simulator::actor_rng(ProcessId p) {
  auto idx = static_cast<std::size_t>(p);
  if (!actor_rngs_[idx]) {
    // Stable derivation: depends only on the master seed and the id, not on
    // how many draws other components made before first use (in particular
    // it must NOT consume the master stream — that would make the actor's
    // stream, and everything drawn from the master afterwards, depend on
    // which actor asked first).
    actor_rngs_[idx] =
        std::make_unique<Rng>(Rng(seed_).fork(static_cast<std::uint64_t>(p) + 1));
  }
  return *actor_rngs_[idx];
}

std::uint32_t Simulator::acquire_slot() {
  static_assert(std::is_trivially_copyable_v<Event>,
                "Event must stay a flat record (slab stores are memcpys)");
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slab_.size() >= kMaxSlots) {
    // The packed heap key has 21 slot bits; ~2M *concurrently pending*
    // events means the workload is broken — fail loudly, never mis-order.
    std::fprintf(stderr, "sim: more than %llu concurrently pending events\n",
                 static_cast<unsigned long long>(kMaxSlots));
    std::abort();
  }
  const auto slot = static_cast<std::uint32_t>(slab_.size());
  slab_.emplace_back();
  return slot;
}

std::uint64_t Simulator::commit_event(std::uint32_t slot) {
  Event& ev = slab_[slot];
  if (ev.at < now_) {
    free_slots_.push_back(slot);
    reject_past(ev.at, now_);
  }
  ev.seq = next_event_seq_++;
  if (wheel_ != nullptr && ev.at - now_ < static_cast<Time>(kWheelSpan)) {
    const std::size_t b = static_cast<std::size_t>(ev.at) & (kWheelSpan - 1);
    Wheel::Bucket& bucket = wheel_->buckets[b];
    ev.next = kNoSlot;
    if (bucket.tail != kNoSlot) {
      slab_[bucket.tail].next = slot;
    } else {
      bucket.head = slot;
      wheel_->occupied[b >> 6] |= 1ULL << (b & 63);
    }
    bucket.tail = slot;
    ++wheel_count_;
  } else {
    heap_.push_back(HeapEntry{ev.at, (ev.seq << kSlotBits) | slot});
    heap_sift_up(heap_.size() - 1);
  }
  if (metrics_.queue_depth != nullptr) {
    metrics_.queue_depth->set(static_cast<std::int64_t>(wheel_count_ + heap_.size()));
  }
  if (metrics_.slab_live != nullptr) {
    metrics_.slab_live->set(static_cast<std::int64_t>(slab_.size() - free_slots_.size()));
  }
  return ev.seq;
}

void Simulator::heap_sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!event_later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (event_later(heap_[best], heap_[c])) best = c;
    }
    if (!event_later(e, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_front() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0);
}

std::size_t Simulator::wheel_first_bucket() const {
  // Every wheel record fires in [now, now + span), so the earliest one is
  // the first occupied bucket at or after now's. Scan now's word from its
  // bit on, then the following words, wrapping back to now's word — whose
  // bits at or after now's are known clear by then, so any still set are
  // the last ticks of the span.
  const auto& occ = wheel_->occupied;
  const std::size_t start = static_cast<std::size_t>(now_) & (kWheelSpan - 1);
  std::size_t w = start >> 6;
  std::uint64_t bits = occ[w] & (~0ULL << (start & 63));
  while (bits == 0) {
    w = (w + 1) & (kWheelWords - 1);
    bits = occ[w];
  }
  return (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
}

std::uint32_t Simulator::front_slot() const {
  std::uint32_t slot = kNoSlot;
  if (wheel_count_ != 0) slot = wheel_->buckets[wheel_first_bucket()].head;
  if (!heap_.empty() && (slot == kNoSlot || heap_.front().at <= slab_[slot].at)) {
    slot = heap_.front().slot();  // ties go to the heap: it holds the smaller seq
  }
  return slot;
}

void Simulator::unlink_front(std::uint32_t slot) {
  if (!heap_.empty() && heap_.front().slot() == slot) {
    heap_pop_front();
    return;
  }
  const std::size_t b = static_cast<std::size_t>(slab_[slot].at) & (kWheelSpan - 1);
  Wheel::Bucket& bucket = wheel_->buckets[b];
  assert(bucket.head == slot);
  bucket.head = slab_[slot].next;
  if (bucket.head == kNoSlot) {
    bucket.tail = kNoSlot;
    wheel_->occupied[b >> 6] &= ~(1ULL << (b & 63));
  }
  --wheel_count_;
}

std::uint64_t Simulator::push_event(const Event& ev) {
  const std::uint32_t slot = acquire_slot();
  slab_[slot] = ev;
  return commit_event(slot);
}

Simulator::ControlledEvent& Simulator::push_controlled(PendingEvent::Kind kind,
                                                       ProcessId from, ProcessId to,
                                                       ProcessId owner,
                                                       std::uint64_t channel_rank) {
  const std::uint64_t id = next_event_seq_++;
  if (pending_index_.empty()) {
    pending_index_.assign(kInitialIndex, kNoSlot);
    pending_.reserve(kInitialSlots);
    pending_free_.reserve(kInitialSlots);
  }
  // The index must span every pending id, oldest (the list head) to `id`.
  std::size_t capacity = pending_index_.size();
  while (pending_head_ != kNoSlot && id - pending_[pending_head_].info.id >= capacity) {
    capacity *= 2;
  }
  if (capacity != pending_index_.size()) reindex_pending(capacity);

  std::uint32_t slot = 0;
  if (!pending_free_.empty()) {
    slot = pending_free_.back();
    pending_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  pending_index_[id & (pending_index_.size() - 1)] = slot;
  ControlledEvent& ev = pending_[slot];
  ev.info.id = id;
  ev.info.kind = kind;
  ev.info.from = from;
  ev.info.to = to;
  ev.info.owner = owner;
  ev.info.channel_rank = channel_rank;
  ev.prev = pending_tail_;
  ev.next = kNoSlot;
  ev.fifo_next = kNoSlot;
  if (pending_tail_ != kNoSlot) {
    pending_[pending_tail_].next = slot;
  } else {
    pending_head_ = slot;
  }
  pending_tail_ = slot;
  ++pending_count_;
  if (kind == PendingEvent::Kind::kMessage) {
    ControlledChannel& ch = channel(from, to);
    if (ch.tail != kNoSlot) {
      pending_[ch.tail].fifo_next = slot;
    } else {
      ch.head = slot;
    }
    ch.tail = slot;
    ++ch.len;
  } else if (kind == PendingEvent::Kind::kScheduled) {
    ++pending_scheduled_;
  }
  return ev;
}

void Simulator::reindex_pending(std::size_t capacity) {
  pending_index_.assign(capacity, kNoSlot);
  for (std::uint32_t slot = pending_head_; slot != kNoSlot; slot = pending_[slot].next) {
    pending_index_[pending_[slot].info.id & (capacity - 1)] = slot;
  }
}

void Simulator::fit_controlled_tables() {
  const std::size_t n = actors_.size();
  std::vector<ControlledChannel> chans(n * n);
  for (std::size_t f = 0; f < channel_stride_; ++f) {
    for (std::size_t t = 0; t < channel_stride_; ++t) {
      chans[f * n + t] = channels_[f * channel_stride_ + t];
    }
  }
  channels_ = std::move(chans);
  channel_stride_ = n;
  timer_counts_.resize(n);
  armed_timers_.reserve(n);  // typically one timer per process
}

void Simulator::schedule(Time at, std::function<void()> fn) {
  if (mode_ == ExecMode::kControlled) {
    // `at` orders nothing here, but a past instant is a caller bug in
    // both modes (timed mode rejects it in commit_event).
    if (at < now_) reject_past(at, now_);
    push_controlled(PendingEvent::Kind::kScheduled, kNoProcess, kNoProcess, kNoProcess, 0)
        .fn = std::move(fn);
    return;
  }
  Event ev;
  ev.at = at;
  ev.kind = Event::Kind::kCallback;
  const std::uint64_t seq = push_event(ev);
  callbacks_[seq] = std::move(fn);
}

void Simulator::send(ProcessId from, ProcessId to, const Payload& payload,
                     MsgLayer layer) {
  assert(to >= 0 && static_cast<std::size_t>(to) < actors_.size());
  if (crashed(from)) return;  // a dead process sends nothing
  if (transport_ != nullptr && mode_ == ExecMode::kTimed && transport_->covers(layer)) {
    transport_->logical_send(from, to, payload, layer);
    return;
  }
  raw_send(from, to, payload, layer);
}

void Simulator::raw_send(ProcessId from, ProcessId to, const Payload& payload,
                         MsgLayer layer) {
  assert(to >= 0 && static_cast<std::size_t>(to) < actors_.size());
  if (crashed(from)) return;  // a dead process sends nothing
  if (mode_ == ExecMode::kControlled) {
    if (channel_stride_ != actors_.size()) fit_controlled_tables();
    const std::uint64_t rank = channel(from, to).send_rank++;
    // Built in its pending record; every field is (re)assigned because
    // records are recycled.
    Message& m =
        push_controlled(PendingEvent::Kind::kMessage, from, to, kNoProcess, rank).msg;
    m.from = from;
    m.to = to;
    m.layer = layer;
    m.payload = payload;
    // Delay is nondeterministic — the driver chooses the arrival order.
    network_.stamp(m, now_, 1, crashed(to));
    if (metrics_.sends != nullptr) metrics_.sends->inc();
    if (tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kSend, from, to, layer, m.seq,
                       payload_tag(m.payload)});
    }
    return;
  }
  Rng& rng = *rng_;
  const bool legacy_dup = dup_prob_ > 0.0 && rng.chance(dup_prob_);
  bool reorder = reorder_prob_ > 0.0 && rng.chance(reorder_prob_);
  bool drop = false;
  bool partitioned = false;
  bool adversary_dup = false;
  if (adversary_ != nullptr) {
    const FaultDecision d = adversary_->on_send(from, to, layer, now_);
    drop = d.drop;
    partitioned = d.partitioned;
    adversary_dup = !drop && d.duplicate;
    reorder = reorder || d.reorder;
  }
  const bool duplicate = adversary_dup || (!drop && legacy_dup);
  const Time latency = delays_->sample(from, to, now_, rng);
  // Build the delivery record directly in its slab slot — no stack
  // Message, no stack Event, no copies. Slots are recycled, so every
  // field a later reader touches is (re)assigned here.
  const std::uint32_t slot = acquire_slot();
  {
    Event& ev = slab_[slot];
    ev.msg.from = from;
    ev.msg.to = to;
    ev.msg.layer = layer;
    ev.msg.payload = payload;
  }
  if (duplicate) {
    // Stamped (so it draws the earlier network seq), logged and committed
    // before the original — exactly the order the copy-based code used.
    const std::uint32_t dup_slot = acquire_slot();  // may move the slab
    Event& dup_ev = slab_[dup_slot];
    dup_ev.msg = slab_[slot].msg;  // independent delay for the ghost
    network_.stamp(dup_ev.msg, now_, delays_->sample(from, to, now_, rng), crashed(to),
                   /*fifo=*/false);
    if (adversary_dup && tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kDuplicate, from, to, layer,
                       dup_ev.msg.seq, payload_tag(dup_ev.msg.payload)});
    }
    dup_ev.at = dup_ev.msg.deliver_at;
    dup_ev.kind = Event::Kind::kDeliver;
    dup_ev.partitioned = false;
    commit_event(dup_slot);
  }
  Event& ev = slab_[slot];
  network_.stamp(ev.msg, now_, latency, crashed(to), /*fifo=*/!reorder);
  if (metrics_.sends != nullptr) metrics_.sends->inc(duplicate ? 2 : 1);
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kSend, from, to, layer,
                     ev.msg.seq, payload_tag(ev.msg.payload)});
  }
  ev.at = ev.msg.deliver_at;
  if (drop) {
    // Lost in flight: the message occupies the channel until its delivery
    // time, then the books settle and the loss is logged — never handed to
    // the recipient. Same settlement discipline as drop-at-crashed-target.
    ev.kind = Event::Kind::kDropSettle;
    ev.partitioned = partitioned;
  } else {
    ev.kind = Event::Kind::kDeliver;
    ev.partitioned = false;  // slots are recycled: clear stale state
  }
  commit_event(slot);
}

void Simulator::deliver(const Message& m) {
  network_.delivered(m);
  if (crashed(m.to)) {
    if (tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kDrop, m.from, m.to, m.layer,
                       m.seq, payload_tag(m.payload)});
    }
    return;  // dropped on the floor of a dead process
  }
  if (m.sent_at < last_recover_[static_cast<std::size_t>(m.to)]) {
    // Addressed to a previous incarnation: recovery fences every inbound
    // channel, so traffic from before the recovery instant is lost just
    // like traffic delivered mid-crash.
    if (tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kDrop, m.from, m.to, m.layer,
                       m.seq, payload_tag(m.payload)});
    }
    return;
  }
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kDeliver, m.from, m.to, m.layer,
                     m.seq, payload_tag(m.payload)});
  }
  if (transport_ != nullptr && transport_->on_physical_deliver(m)) return;
  actors_[static_cast<std::size_t>(m.to)]->on_message(m);
}

void Simulator::deliver_logical(ProcessId from, ProcessId to, const Payload& payload,
                                MsgLayer layer, std::uint64_t logical_seq, Time sent_at) {
  network_.logical_delivered(from, to, layer);
  if (crashed(to) || sent_at < last_recover_[static_cast<std::size_t>(to)]) {
    if (tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kDrop, from, to, layer,
                       logical_seq, payload_tag(payload)});
    }
    return;
  }
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kDeliver, from, to, layer,
                     logical_seq, payload_tag(payload)});
  }
  Message m;
  m.from = from;
  m.to = to;
  m.layer = layer;
  m.seq = logical_seq;
  m.sent_at = sent_at;
  m.deliver_at = now_;
  m.payload = payload;
  actors_[static_cast<std::size_t>(m.to)]->on_message(m);
}

void Simulator::fire_timer(ProcessId owner, TimerId id) {
  if (crashed(owner)) return;
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kTimer, owner, kNoProcess,
                     MsgLayer::kOther, 0, kNoPayloadTag});
  }
  actors_[static_cast<std::size_t>(owner)]->on_timer(id);
}

TimerId Simulator::set_timer(ProcessId owner, Time delay) {
  if (delay < 0) {
    throw std::invalid_argument("sim: negative timer delay " + std::to_string(delay));
  }
  if (mode_ == ExecMode::kControlled) {
    const TimerId id = next_timer_id_++;
    if (channel_stride_ != actors_.size()) fit_controlled_tables();
    // Kept as a pending (no-op if cancelled) choice on purpose: pruning
    // cancelled timers here would shrink the explored choice sets.
    ControlledEvent& ev =
        push_controlled(PendingEvent::Kind::kTimer, kNoProcess, kNoProcess, owner, 0);
    ev.timer_id = id;
    ev.timer_armed = true;
    armed_timers_.emplace_back(id, pending_tail_);  // the slot just pushed
    ++timer_counts_[static_cast<std::size_t>(owner)].live;
    return id;
  }
  // The id packs a fresh counter above the record's slot: still strictly
  // increasing per simulator, and cancel_timer() finds the record (and
  // its armed flag) without a lookup table.
  const std::uint32_t slot = acquire_slot();
  const TimerId id = (next_timer_id_++ << kSlotBits) | slot;
  Event& ev = slab_[slot];
  ev.at = now_ + delay;
  ev.kind = Event::Kind::kTimer;
  ev.armed = true;
  ev.owner = owner;
  ev.timer_id = id;
  commit_event(slot);
  return id;
}

void Simulator::cancel_timer(TimerId id) {
  if (mode_ == ExecMode::kTimed) {
    // The slot may have been recycled since: only the record still
    // carrying this id is this timer (ids are never reused).
    const std::uint64_t slot = id & (kMaxSlots - 1);
    if (slot < slab_.size()) {
      Event& ev = slab_[slot];
      if (ev.kind == Event::Kind::kTimer && ev.timer_id == id) ev.armed = false;
    }
    return;
  }
  const auto it = std::find_if(armed_timers_.begin(), armed_timers_.end(),
                               [id](const auto& t) { return t.first == id; });
  if (it == armed_timers_.end()) return;  // fired or cancelled already
  ControlledEvent& ev = pending_[it->second];
  ev.timer_armed = false;
  TimerCounts& counts = timer_counts_[static_cast<std::size_t>(ev.info.owner)];
  --counts.live;
  ++counts.cancelled;
  *it = armed_timers_.back();
  armed_timers_.pop_back();
}

void Simulator::crash(ProcessId p) {
  auto idx = static_cast<std::size_t>(p);
  if (crash_times_[idx] >= 0) return;
  crash_times_[idx] = now_;
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kCrash, p, kNoProcess,
                     MsgLayer::kOther, 0, kNoPayloadTag});
  }
  actors_[idx]->on_crash();
}

void Simulator::recover(ProcessId p) {
  if (mode_ != ExecMode::kTimed) [[unlikely]] {
    reject_mode("recover() is a timed-mode feature");
  }
  auto idx = static_cast<std::size_t>(p);
  if (crash_times_[idx] < 0) return;  // live: nothing to do
  // The dead incarnation's pending timers must never fire into the new one
  // (the Actor contract discards a crashed actor's timers). Crashes without
  // recovery get this for free from the crashed() check in fire_timer; here
  // the flag is about to clear, so cancel them explicitly. Walking the
  // slab reaches both queue levels at once; its free slots hold records
  // that already fired or were discarded, where the flag is never read.
  for (Event& ev : slab_) {
    if (ev.kind == Event::Kind::kTimer && ev.owner == p) ev.armed = false;
  }
  crash_times_[idx] = -1;
  last_recover_[idx] = now_;
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kRecover, p, kNoProcess,
                     MsgLayer::kOther, 0, kNoPayloadTag});
  }
  actors_[idx]->on_recover();
}

void Simulator::schedule_recovery(ProcessId p, Time at) {
  schedule(at, [this, p] { recover(p); });
}

void Simulator::schedule_crash(ProcessId p, Time at) {
  // Always on the timed queue (historical quirk, preserved: controlled
  // mode has no wheel, so the record lands on the heap, which is never
  // drained there — a scheduled crash never fires; mc worlds crash
  // processes via crash() from a scheduled choice).
  Event ev;
  ev.at = at;
  ev.kind = Event::Kind::kCrash;
  ev.owner = p;
  push_event(std::move(ev));
}

std::vector<ProcessId> Simulator::live_processes() const {
  std::vector<ProcessId> out;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (crash_times_[i] < 0) out.push_back(static_cast<ProcessId>(i));
  }
  return out;
}

std::vector<PendingEvent> Simulator::eligible_events() const {
  if (mode_ != ExecMode::kControlled) [[unlikely]] {
    reject_mode("eligible_events() needs controlled mode");
  }
  std::vector<PendingEvent> out;
  out.reserve(pending_count_);
  for (std::uint32_t slot = pending_head_; slot != kNoSlot; slot = pending_[slot].next) {
    if (is_eligible(slot)) out.push_back(pending_[slot].info);
  }
  return out;  // the id-order list: sorted by id already
}

void Simulator::controlled_state_key(std::vector<std::uint64_t>& out) const {
  assert(mode_ == ExecMode::kControlled);
  assert(actors_.size() <= 64 && "controlled worlds are small");
  std::uint64_t crash_mask = 0;
  for (std::size_t i = 0; i < crash_times_.size(); ++i) {
    if (crash_times_[i] >= 0) crash_mask |= 1ULL << i;
  }
  out.push_back(crash_mask);

  // Non-empty directed channels in key (from, to) order, each as
  // (key, len, [tag, bits]...): the in-flight payload *sequences* are
  // state; the event ids carrying them are not.
  for (std::size_t from = 0; from < channel_stride_; ++from) {
    for (std::size_t to = 0; to < channel_stride_; ++to) {
      const ControlledChannel& ch = channels_[from * channel_stride_ + to];
      if (ch.len == 0) continue;
      out.push_back(PendingEvent::channel_key(static_cast<ProcessId>(from),
                                              static_cast<ProcessId>(to)));
      out.push_back(ch.len);
      for (std::uint32_t slot = ch.head; slot != kNoSlot; slot = pending_[slot].fifo_next) {
        const Payload& p = pending_[slot].msg.payload;
        std::uint8_t tag = 0;
        std::uint64_t bits = 0;
        if (!pack_payload(p, tag, bits)) {  // oversized: tag-only fingerprint
          tag = payload_tag(p);
          bits = 0;
        }
        out.push_back(tag);
        out.push_back(bits);
      }
    }
  }

  // Pending timers per owner, (owner, live, cancelled) in owner order. A
  // cancelled timer is inert but still a pending no-op choice, so two
  // states with different cancelled counts have different out-degrees and
  // must not collapse.
  for (std::size_t owner = 0; owner < timer_counts_.size(); ++owner) {
    const TimerCounts& c = timer_counts_[owner];
    if (c.live + c.cancelled == 0) continue;
    out.push_back(static_cast<std::uint64_t>(static_cast<std::uint32_t>(owner)));
    out.push_back(c.live);
    out.push_back(c.cancelled);
  }
  // Scheduled closures are opaque here; the count is state, their roles
  // are the world's to fingerprint (LivenessWorld::event_fingerprint).
  out.push_back(pending_scheduled_);
}

bool Simulator::execute_event(std::uint64_t id) {
  if (mode_ != ExecMode::kControlled) [[unlikely]] {
    reject_mode("execute_event() needs controlled mode");
  }
  start();
  const std::uint32_t slot = pending_slot(id);
  if (slot == kNoSlot || !is_eligible(slot)) return false;
  ControlledEvent& ev = pending_[slot];
  if (ev.prev != kNoSlot) {
    pending_[ev.prev].next = ev.next;
  } else {
    pending_head_ = ev.next;
  }
  if (ev.next != kNoSlot) {
    pending_[ev.next].prev = ev.prev;
  } else {
    pending_tail_ = ev.prev;
  }
  pending_index_[id & (pending_index_.size() - 1)] = kNoSlot;
  pending_free_.push_back(slot);
  --pending_count_;
  now_ += 1;
  ++events_processed_;
  if (metrics_.events != nullptr) metrics_.events->inc();
  // The handler may push events, which can recycle this slot (or move the
  // slab) — so take the operands out first.
  switch (ev.info.kind) {
    case PendingEvent::Kind::kMessage: {
      ControlledChannel& ch = channel(ev.info.from, ev.info.to);
      ch.head = ev.fifo_next;  // eligibility guaranteed it was the head
      if (ch.head == kNoSlot) ch.tail = kNoSlot;
      --ch.len;
      const Message m = ev.msg;
      deliver(m);
      break;
    }
    case PendingEvent::Kind::kTimer: {
      const ProcessId owner = ev.info.owner;
      const TimerId timer = ev.timer_id;
      TimerCounts& counts = timer_counts_[static_cast<std::size_t>(owner)];
      if (!ev.timer_armed) {  // cancelled: a no-op choice
        --counts.cancelled;
        break;
      }
      --counts.live;
      const auto it = std::find_if(armed_timers_.begin(), armed_timers_.end(),
                                   [slot](const auto& t) { return t.second == slot; });
      *it = armed_timers_.back();
      armed_timers_.pop_back();
      fire_timer(owner, timer);
      break;
    }
    case PendingEvent::Kind::kScheduled: {
      --pending_scheduled_;
      std::function<void()> fn = std::move(ev.fn);
      ev.fn = nullptr;
      fn();
      break;
    }
  }
  return true;
}

void Simulator::dispatch(Event&& ev) {
  switch (ev.kind) {
    case Event::Kind::kDeliver:
      deliver(ev.msg);
      break;
    case Event::Kind::kTimer:
      assert(ev.armed && "prune_cancelled() discards disarmed timers");
      fire_timer(ev.owner, ev.timer_id);
      break;
    case Event::Kind::kDropSettle:
      network_.delivered(ev.msg);
      if (tracing()) {
        emit(LoggedEvent{
            now_,
            ev.partitioned ? LoggedEvent::Kind::kPartitionLoss : LoggedEvent::Kind::kLoss,
            ev.msg.from, ev.msg.to, ev.msg.layer, ev.msg.seq, payload_tag(ev.msg.payload)});
      }
      break;
    case Event::Kind::kCrash:
      crash(ev.owner);
      break;
    case Event::Kind::kCallback: {
      auto it = callbacks_.find(ev.seq);
      assert(it != callbacks_.end());
      // Detach before invoking: the closure may schedule more events.
      std::function<void()> fn = std::move(it->second);
      callbacks_.erase(it);
      fn();
      break;
    }
  }
}

std::uint32_t Simulator::prune_cancelled() {
  // A cancelled timer's record stays queued (unlinking it from the middle
  // of a bucket or the heap is not worth it); it is discarded when it
  // surfaces, without advancing time or counting as a processed event.
  for (;;) {
    const std::uint32_t slot = front_slot();
    if (slot == kNoSlot) return kNoSlot;
    // Touching the front's slab line here is free: a live front is read
    // from the same line by pop_and_dispatch() immediately after.
    const Event& front = slab_[slot];
    if (front.kind != Event::Kind::kTimer || front.armed) return slot;
    unlink_front(slot);
    free_slots_.push_back(slot);
  }
}

void Simulator::pop_and_dispatch(std::uint32_t slot) {
  unlink_front(slot);
  assert(slab_[slot].at >= now_);
  now_ = slab_[slot].at;
  ++events_processed_;
  if (metrics_.events != nullptr) metrics_.events->inc();
  if (metrics_.queue_depth != nullptr) {
    metrics_.queue_depth->set(static_cast<std::int64_t>(wheel_count_ + heap_.size()));
  }
  // The handler may push events, which can recycle (or reallocate) the
  // slot being read — so copy out before dispatching. Deliveries (the
  // overwhelming bulk) copy only the Message, not the whole record.
  if (slab_[slot].kind == Event::Kind::kDeliver) {
    const Message m = slab_[slot].msg;
    free_slots_.push_back(slot);
    deliver(m);
    return;
  }
  Event ev = slab_[slot];
  free_slots_.push_back(slot);
  dispatch(std::move(ev));
}

bool Simulator::step() {
  if (mode_ != ExecMode::kTimed) [[unlikely]] {
    reject_mode("step() on a controlled simulator: use execute_event");
  }
  const std::uint32_t slot = prune_cancelled();
  if (slot == kNoSlot) return false;
  pop_and_dispatch(slot);
  return true;
}

void Simulator::run_until(Time t) {
  if (mode_ != ExecMode::kTimed) [[unlikely]] {
    reject_mode("run_until() on a controlled simulator: use execute_event");
  }
  start();
  for (;;) {
    // Prune before the horizon check: a cancelled record at the front must
    // not be mistaken for a runnable event, nor hide one behind it.
    const std::uint32_t slot = prune_cancelled();
    if (slot == kNoSlot || slab_[slot].at > t) break;
    pop_and_dispatch(slot);
  }
  if (t > now_) now_ = t;
}

}  // namespace ekbd::sim
