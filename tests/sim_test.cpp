// Unit tests for the discrete-event simulator: ordering, FIFO channels,
// timers, crash semantics, determinism, delay models, network accounting,
// and (SimQueue) the two-level timed queue — timing wheel plus far heap —
// against a reference ordered by (at, seq).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/delay_model.hpp"
#include "sim/simulator.hpp"

namespace {

using ekbd::sim::Message;
using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Rng;
using ekbd::sim::Simulator;
using ekbd::sim::Time;
using ekbd::sim::TimerId;

// Payload is a closed variant now; tests send the generic Datum value.
using Note = ekbd::sim::Datum;

/// Records everything it receives.
class Recorder : public ekbd::sim::Actor {
 public:
  void on_message(const Message& m) override {
    received.push_back(*m.as<Note>());
    receive_times.push_back(now());
    froms.push_back(m.from);
  }
  void on_timer(TimerId id) override { timers.push_back(id); }

  using Actor::send;       // widen for tests
  using Actor::set_timer;  // widen for tests
  using Actor::cancel_timer;

  std::vector<Note> received;
  std::vector<Time> receive_times;
  std::vector<ProcessId> froms;
  std::vector<TimerId> timers;
};

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.u64(), b.u64());
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(7);
  Rng c1 = a.fork(1);
  Rng a2(7);
  Rng c2 = a2.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.u64() == c2.u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(1);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ExponentialNonNegative) {
  Rng r(1);
  for (int i = 0; i < 100; ++i) EXPECT_GE(r.exponential(10.0), 0);
}

TEST(DelayModels, FixedAlwaysSame) {
  ekbd::sim::FixedDelay d(5);
  Rng r(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(0, 1, 100, r), 5);
}

TEST(DelayModels, UniformWithinBounds) {
  ekbd::sim::UniformDelay d(2, 7);
  Rng r(1);
  for (int i = 0; i < 200; ++i) {
    Time t = d.sample(0, 1, 0, r);
    EXPECT_GE(t, 2);
    EXPECT_LE(t, 7);
  }
}

TEST(DelayModels, PartialSynchronyBoundedAfterGst) {
  ekbd::sim::PartialSynchronyDelay::Params p;
  p.gst = 1000;
  p.pre_lo = 1;
  p.pre_hi = 100;
  p.spike_prob = 0.5;
  p.spike_factor = 50;
  p.post_lo = 1;
  p.post_hi = 10;
  ekbd::sim::PartialSynchronyDelay d(p);
  Rng r(1);
  Time max_pre = 0;
  for (int i = 0; i < 500; ++i) max_pre = std::max(max_pre, d.sample(0, 1, 0, r));
  EXPECT_GT(max_pre, 100);  // spikes exceeded the base range
  for (int i = 0; i < 500; ++i) {
    Time t = d.sample(0, 1, p.gst, r);
    EXPECT_GE(t, 1);
    EXPECT_LE(t, 10);
  }
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(10, [&order, i] { order.push_back(i); });
  }
  sim.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator sim(1);
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, MessageDeliveredWithDelay) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(7));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  a->send(b->id(), Note{42}, MsgLayer::kOther);
  sim.run_until(100);
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(b->received[0].value, 42);
  EXPECT_EQ(b->receive_times[0], 7);
  EXPECT_EQ(b->froms[0], a->id());
}

TEST(Simulator, FifoPreservedDespiteRandomDelays) {
  // With highly variable delays, per-channel FIFO must still hold.
  Simulator sim(3, ekbd::sim::make_uniform_delay(1, 50));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 100; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
  sim.run_until(10'000);
  ASSERT_EQ(b->received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b->received[static_cast<size_t>(i)].value, i);
}

TEST(Simulator, FifoAcrossInterleavedSends) {
  Simulator sim(9, ekbd::sim::make_uniform_delay(1, 30));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  auto* c = sim.make_actor<Recorder>();
  sim.start();
  // a and c both send to b; per-channel order must hold independently.
  for (int i = 0; i < 50; ++i) {
    a->send(b->id(), Note{i}, MsgLayer::kOther);
    c->send(b->id(), Note{1000 + i}, MsgLayer::kOther);
  }
  sim.run_until(10'000);
  ASSERT_EQ(b->received.size(), 100u);
  int last_a = -1, last_c = 999;
  for (const Note& n : b->received) {
    if (n.value < 1000) {
      EXPECT_GT(n.value, last_a);
      last_a = n.value;
    } else {
      EXPECT_GT(n.value, last_c);
      last_c = n.value;
    }
  }
}

TEST(Simulator, TimerFiresOnce) {
  Simulator sim(1);
  auto* a = sim.make_actor<Recorder>();
  sim.start();
  TimerId id = a->set_timer(25);
  sim.run_until(1000);
  ASSERT_EQ(a->timers.size(), 1u);
  EXPECT_EQ(a->timers[0], id);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  Simulator sim(1);
  auto* a = sim.make_actor<Recorder>();
  sim.start();
  TimerId id = a->set_timer(25);
  a->cancel_timer(id);
  sim.run_until(1000);
  EXPECT_TRUE(a->timers.empty());
}

TEST(Simulator, CrashedProcessReceivesNothing) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  sim.schedule_crash(b->id(), 5);
  a->send(b->id(), Note{1}, MsgLayer::kOther);  // delivery at 10 > crash at 5
  sim.run_until(1000);
  EXPECT_TRUE(b->received.empty());
  EXPECT_TRUE(sim.crashed(b->id()));
  EXPECT_EQ(sim.crash_time(b->id()), 5);
}

TEST(Simulator, MessagesSentBeforeCrashStillDelivered) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  a->send(b->id(), Note{1}, MsgLayer::kOther);  // sent at 0, delivered at 10
  sim.schedule_crash(a->id(), 1);               // sender crashes after sending
  sim.run_until(1000);
  ASSERT_EQ(b->received.size(), 1u);  // the message was already in flight
}

TEST(Simulator, CrashedProcessCannotSend) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  sim.crash(a->id());
  a->send(b->id(), Note{1}, MsgLayer::kOther);  // silently dropped
  sim.run_until(1000);
  EXPECT_TRUE(b->received.empty());
}

TEST(Simulator, CrashedProcessTimersDropped) {
  Simulator sim(1);
  auto* a = sim.make_actor<Recorder>();
  sim.start();
  a->set_timer(50);
  sim.schedule_crash(a->id(), 10);
  sim.run_until(1000);
  EXPECT_TRUE(a->timers.empty());
}

TEST(Simulator, LiveProcessesExcludesCrashed) {
  Simulator sim(1);
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  auto* c = sim.make_actor<Recorder>();
  (void)a;
  (void)c;
  sim.start();
  sim.crash(b->id());
  auto live = sim.live_processes();
  EXPECT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], 0);
  EXPECT_EQ(live[1], 2);
}

TEST(Simulator, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed, ekbd::sim::make_uniform_delay(1, 40));
    auto* a = sim.make_actor<Recorder>();
    auto* b = sim.make_actor<Recorder>();
    sim.start();
    for (int i = 0; i < 50; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
    sim.run_until(10'000);
    return b->receive_times;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(Network, InTransitAccounting) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(100));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 5; ++i) a->send(b->id(), Note{i}, MsgLayer::kDining);
  // All five in flight now.
  auto cs = sim.network().channel(a->id(), b->id(), MsgLayer::kDining);
  EXPECT_EQ(cs.in_transit, 5);
  EXPECT_EQ(cs.max_in_transit, 5);
  EXPECT_EQ(cs.total, 5u);
  sim.run_until(10'000);
  cs = sim.network().channel(a->id(), b->id(), MsgLayer::kDining);
  EXPECT_EQ(cs.in_transit, 0);
  EXPECT_EQ(cs.max_in_transit, 5);
}

TEST(Network, LayersAreSeparate) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  a->send(b->id(), Note{1}, MsgLayer::kDining);
  a->send(b->id(), Note{2}, MsgLayer::kDetector);
  a->send(b->id(), Note{3}, MsgLayer::kDetector);
  sim.run_until(100);
  EXPECT_EQ(sim.network().total_sent(MsgLayer::kDining), 1u);
  EXPECT_EQ(sim.network().total_sent(MsgLayer::kDetector), 2u);
  EXPECT_EQ(sim.network().channel(0, 1, MsgLayer::kDetector).total, 2u);
}

TEST(Network, SendsToCrashedCounted) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  sim.crash(b->id());
  a->send(b->id(), Note{1}, MsgLayer::kDining);
  sim.run_until(50);
  a->send(b->id(), Note{2}, MsgLayer::kDining);
  sim.run_until(1000);
  EXPECT_EQ(sim.network().sends_to_crashed(b->id(), MsgLayer::kDining), 2u);
  EXPECT_EQ(sim.network().last_send_to(b->id(), MsgLayer::kDining), 50);
}

TEST(Network, MaxInTransitAnyScansAllPairs) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(100));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  auto* c = sim.make_actor<Recorder>();
  sim.start();
  a->send(b->id(), Note{1}, MsgLayer::kDining);
  a->send(c->id(), Note{1}, MsgLayer::kDining);
  a->send(c->id(), Note{2}, MsgLayer::kDining);
  EXPECT_EQ(sim.network().max_in_transit_any(MsgLayer::kDining), 2);
  sim.run_until(1000);
}

TEST(ChannelFaults, DuplicationDeliversTwice) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(5));
  sim.set_channel_faults(/*dup=*/1.0, /*reorder=*/0.0);
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 10; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
  sim.run_until(1'000);
  EXPECT_EQ(b->received.size(), 20u);  // every message twice
}

TEST(ChannelFaults, ReorderingViolatesFifo) {
  // With reorder probability 1 and wildly variable delays, some later
  // message must arrive before an earlier one (that's the point).
  Simulator sim(5, ekbd::sim::make_uniform_delay(1, 60));
  sim.set_channel_faults(0.0, /*reorder=*/1.0);
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 100; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
  sim.run_until(10'000);
  ASSERT_EQ(b->received.size(), 100u);
  bool inverted = false;
  for (std::size_t i = 1; i < b->received.size(); ++i) {
    if (b->received[i].value < b->received[i - 1].value) inverted = true;
  }
  EXPECT_TRUE(inverted) << "expected at least one FIFO inversion";
}

TEST(ChannelFaults, DefaultOffPreservesModel) {
  Simulator sim(5, ekbd::sim::make_uniform_delay(1, 60));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 100; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
  sim.run_until(10'000);
  ASSERT_EQ(b->received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b->received[static_cast<size_t>(i)].value, i);
}

TEST(Simulator, EventsProcessedCounter) {
  Simulator sim(1);
  sim.schedule(1, [] {});
  sim.schedule(2, [] {});
  sim.run_until(10);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Network, OccupancySettlesToZeroAfterCrashDrops) {
  // Regression (ChannelStats accounting): messages addressed to a crashed
  // process are dropped *at delivery time*, and that drop must decrement
  // in_transit exactly like a delivery — otherwise the §7 channel-bound
  // reader sees phantom occupancy forever after any crash.
  Simulator sim(3, ekbd::sim::make_uniform_delay(5, 30));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  sim.schedule_crash(b->id(), 10);
  // Sends straddling the crash: some deliver, some drop at a dead target.
  for (int i = 0; i < 12; ++i) {
    sim.schedule(1 + 2 * i, [&sim, a, b] {
      sim.send(a->id(), b->id(), Note{0}, MsgLayer::kDining);
    });
  }
  sim.run_until(1'000);
  ASSERT_GT(sim.network().sends_to_crashed(b->id(), MsgLayer::kDining), 0u);
  const auto cs = sim.network().channel(a->id(), b->id(), MsgLayer::kDining);
  EXPECT_EQ(cs.total, 12u);
  EXPECT_EQ(cs.in_transit, 0) << "drop-at-crashed-target leaked channel occupancy";
}

TEST(Network, StampWithoutFifoMayUndercutTheHorizon) {
  // Direct unit test of the fifo=false stamping path (adversarial
  // reordering): a message stamped non-FIFO takes its sampled latency
  // verbatim, undercutting an earlier slow message on the same channel.
  ekbd::sim::Network net;
  Message slow;
  slow.from = 0;
  slow.to = 1;
  net.stamp(slow, /*now=*/0, /*latency=*/100, /*target_crashed=*/false);
  EXPECT_EQ(slow.deliver_at, 100);

  Message fifo;
  fifo.from = 0;
  fifo.to = 1;
  net.stamp(fifo, /*now=*/10, /*latency=*/5, /*target_crashed=*/false);
  EXPECT_EQ(fifo.deliver_at, slow.deliver_at) << "FIFO stamp clamps to the horizon";

  Message rogue;
  rogue.from = 0;
  rogue.to = 1;
  net.stamp(rogue, /*now=*/10, /*latency=*/5, /*target_crashed=*/false, /*fifo=*/false);
  EXPECT_EQ(rogue.deliver_at, 15) << "non-FIFO stamp must take the raw latency";
  EXPECT_LT(rogue.deliver_at, slow.deliver_at);
  // Sequence numbers stay globally increasing either way.
  EXPECT_GT(rogue.seq, fifo.seq);

  // All three settle the books on delivery.
  net.delivered(slow);
  net.delivered(fifo);
  net.delivered(rogue);
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kOther).in_transit, 0);
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kOther).max_in_transit, 3);
}

TEST(Network, LogicalBooksMirrorPhysicalBooks) {
  // The ARQ's logical accounting must read through the same API as raw
  // stamped traffic: occupancy, totals, quiescence counters.
  ekbd::sim::Network net;
  const std::uint64_t s1 = net.logical_sent(0, 1, MsgLayer::kDining, 10, false);
  const std::uint64_t s2 = net.logical_sent(1, 0, MsgLayer::kDining, 12, false);
  EXPECT_GT(s2, s1);
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kDining).in_transit, 2);
  EXPECT_EQ(net.total_sent(MsgLayer::kDining), 2u);
  EXPECT_EQ(net.last_send_to(1, MsgLayer::kDining), 10);
  net.logical_delivered(0, 1, MsgLayer::kDining);
  net.logical_dropped(1, 0, MsgLayer::kDining);  // abandon settles identically
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kDining).in_transit, 0);
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kDining).max_in_transit, 2);
  // Sends to an already-crashed target book the quiescence counter.
  net.logical_sent(0, 2, MsgLayer::kDining, 20, /*target_crashed=*/true);
  EXPECT_EQ(net.sends_to_crashed(2, MsgLayer::kDining), 1u);
  net.logical_dropped(0, 2, MsgLayer::kDining);
  EXPECT_EQ(net.channel(0, 2, MsgLayer::kDining).in_transit, 0);
}

// -- SimQueue ------------------------------------------------------------

/// Ticks covered by the simulator's timing wheel. The tests aim delays at
/// its edges; were the span to change they would still check the order,
/// just less pointedly.
constexpr Time kSpan = 2048;

/// Every sample returns `next`: the differential test picks each
/// message's latency itself.
struct SteeredDelay final : ekbd::sim::DelayModel {
  Time next = 1;
  Time sample(ProcessId, ProcessId, Time, ekbd::sim::Rng&) override { return next; }
};

/// Drives a Simulator with seeded random sends, timers, cancels and
/// schedule() callbacks and checks every dispatch against a reference
/// queue ordered by (at, commit order) — commit order being seq order, as
/// each call below commits exactly one event. Channels run with reorder
/// on, so a message arrives exactly max(1, latency) after its send.
class QueueMix {
 public:
  explicit QueueMix(std::uint64_t seed, std::uint64_t budget)
      : rng_(seed), budget_(budget) {
    auto delay = std::make_unique<SteeredDelay>();
    delay_ = delay.get();
    sim_ = std::make_unique<Simulator>(seed, std::move(delay));
    sim_->set_channel_faults(0.0, 1.0);
    for (auto& n : nodes_) n = sim_->make_actor<Node>(this);
    sim_->start();
  }

  /// Alternate step() and run_until() (horizons that mostly fall between
  /// events) until the reference queue and the budget are exhausted.
  void run() {
    for (int i = 0; i < 8; ++i) act();
    while (!pending_.empty() || budget_ > 0) {
      if (pending_.empty()) act();
      if (rng_.chance(0.5)) {
        const bool expect = !pending_.empty();
        ASSERT_EQ(sim_->step(), expect);
      } else {
        static constexpr std::array<Time, 6> kHorizon{0, 1, 7, kSpan / 2, kSpan, 3 * kSpan};
        const Time t = sim_->now() + kHorizon[rng_.index(kHorizon.size())];
        sim_->run_until(t);
        ASSERT_EQ(sim_->now(), t);
        ASSERT_TRUE(pending_.empty() || pending_.begin()->first > t);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Only disarmed records can be left; the next step discards them.
    EXPECT_FALSE(sim_->step());
    EXPECT_TRUE(sim_->idle());
  }

  std::uint64_t fired = 0;
  std::uint64_t cross_level_ties = 0;  ///< far-committed then near-committed, same tick

 private:
  struct Node : ekbd::sim::Actor {
    explicit Node(QueueMix* m) : mix(m) {}
    void on_message(const Message& m) override {
      mix->on_fire(static_cast<std::uint64_t>(m.as<ekbd::sim::Datum>()->value));
    }
    void on_timer(TimerId id) override {
      const auto it = mix->timers_.find(id);
      ASSERT_NE(it, mix->timers_.end()) << "a cancelled or unknown timer fired";
      const std::uint64_t token = it->second.first;
      mix->timers_.erase(it);
      mix->dead_timer_ = id;  // its slot may be reused by a later timer
      mix->on_fire(token);
    }
    using Actor::cancel_timer;
    using Actor::send;
    using Actor::set_timer;
    QueueMix* mix;
  };
  void on_fire(std::uint64_t token) {
    ASSERT_FALSE(pending_.empty()) << "dispatch with an empty reference";
    const auto [at, expect] = *pending_.begin();
    ASSERT_EQ(token, expect) << "out of (at, seq) order at t=" << sim_->now();
    ASSERT_EQ(sim_->now(), at);
    pending_.erase(pending_.begin());
    const bool far = far_.erase(token) != 0;
    if (last_at_ == at && last_far_ && !far) ++cross_level_ties;
    last_at_ = at;
    last_far_ = far;
    ++fired;
    for (std::size_t i = rng_.index(3); i > 0; --i) act();
  }

  Time pick_delay() {
    static constexpr std::array<Time, 8> kDelay{0, 1, kSpan - 1, kSpan, kSpan + 1, 10 * kSpan,
                                                3, 40};
    return kDelay[rng_.index(kDelay.size())];
  }

  std::uint64_t commit(Time at) {
    const std::uint64_t token = next_token_++;
    pending_.emplace(at, token);
    if (at - sim_->now() >= kSpan) far_.insert(token);
    --budget_;
    return token;
  }

  void act() {
    if (budget_ == 0) return;
    const Time now = sim_->now();
    Node* self = nodes_[rng_.index(nodes_.size())];
    switch (rng_.index(5)) {
      case 0: {  // message
        const Time d = pick_delay();
        delay_->next = d;
        const std::uint64_t token = commit(now + (d < 1 ? 1 : d));
        self->send(nodes_[rng_.index(nodes_.size())]->id(),
                   ekbd::sim::Datum{static_cast<std::int64_t>(token)}, MsgLayer::kOther);
        break;
      }
      case 1: {  // timer
        const Time d = pick_delay();
        const std::uint64_t token = commit(now + d);
        timers_[self->set_timer(d)] = {token, now + d};
        break;
      }
      case 2: {  // callback
        const Time d = pick_delay();
        const std::uint64_t token = commit(now + d);
        sim_->schedule(now + d, [this, token] { on_fire(token); });
        break;
      }
      case 3: {  // callback tied with a pending event (often far-committed)
        if (pending_.empty()) return;
        const auto it = pending_.lower_bound({now + rng_.uniform_int(0, 4 * kSpan), 0});
        const Time at = it == pending_.end() ? pending_.rbegin()->first : it->first;
        const std::uint64_t token = commit(at);
        sim_->schedule(at, [this, token] { on_fire(token); });
        break;
      }
      default: {  // cancel a pending timer, or a dead (fired or cancelled) id
        if (timers_.empty() || rng_.chance(0.3)) {
          self->cancel_timer(dead_timer_);
          return;
        }
        auto it = timers_.begin();
        std::advance(it, rng_.index(std::min<std::size_t>(timers_.size(), 8)));
        const auto [token, at] = it->second;
        self->cancel_timer(it->first);
        dead_timer_ = it->first;
        pending_.erase({at, token});
        far_.erase(token);
        timers_.erase(it);
        break;
      }
    }
  }

  ekbd::sim::Rng rng_;
  std::uint64_t budget_;
  SteeredDelay* delay_ = nullptr;
  std::unique_ptr<Simulator> sim_;
  std::array<Node*, 4> nodes_{};
  std::set<std::pair<Time, std::uint64_t>> pending_;  ///< (at, commit order)
  std::unordered_set<std::uint64_t> far_;  ///< tokens committed a span or more ahead
  std::unordered_map<TimerId, std::pair<std::uint64_t, Time>> timers_;  ///< armed: token, at
  TimerId dead_timer_ = 0;
  std::uint64_t next_token_ = 0;
  Time last_at_ = -1;
  bool last_far_ = false;
};

TEST(SimQueue, DispatchOrderMatchesReferenceAcrossWheelAndHeap) {
  std::uint64_t ties = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    QueueMix d(seed, 6'000);
    d.run();
    if (HasFatalFailure()) return;
    EXPECT_GT(d.fired, 3'000u) << "seed " << seed;
    ties += d.cross_level_ties;
  }
  // The same-tick tie rule (heap first) was really exercised.
  EXPECT_GT(ties, 0u);
}

/// Logs every timer firing as (id, time).
struct TimerLog : ekbd::sim::Actor {
  std::vector<std::pair<TimerId, Time>> fired;
  void on_message(const Message&) override {}
  void on_timer(TimerId id) override { fired.emplace_back(id, now()); }
};

TEST(SimQueue, RecoverDisarmsTimersOnBothLevels) {
  Simulator sim(1);
  auto* a = sim.make_actor<TimerLog>();
  auto* b = sim.make_actor<TimerLog>();
  sim.start();
  // The victim's timers sit on the wheel (5, span-1) and on the heap
  // (span+5, 10×span); the bystander shares two of those ticks.
  for (const Time d : {Time{5}, kSpan - 1, kSpan + 5, 10 * kSpan}) sim.set_timer(a->id(), d);
  const TimerId b_near = sim.set_timer(b->id(), 5);
  const TimerId b_far = sim.set_timer(b->id(), kSpan + 5);
  sim.run_until(2);
  sim.crash(a->id());
  sim.recover(a->id());
  const TimerId fresh = sim.set_timer(a->id(), kSpan + 5);  // the new incarnation's
  sim.run_until(20 * kSpan);
  EXPECT_EQ(a->fired, (std::vector<std::pair<TimerId, Time>>{{fresh, kSpan + 7}}));
  EXPECT_EQ(b->fired, (std::vector<std::pair<TimerId, Time>>{{b_near, 5}, {b_far, kSpan + 5}}));
  // Disarmed records are discarded, not processed.
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_TRUE(sim.idle());
}

/// Re-arms its timer on every firing, alternating the far end of the
/// wheel (span-1) and the heap (3×span): a world with nearly nothing
/// pending.
struct SparseTicker : ekbd::sim::Actor {
  std::vector<Time> fired;
  void on_message(const Message&) override {}
  void on_start() override { set_timer(kSpan - 1); }
  void on_timer(TimerId) override {
    fired.push_back(now());
    set_timer(fired.size() % 2 == 0 ? kSpan - 1 : 3 * kSpan);
  }
};

TEST(SimQueue, SparseWorldAndHorizonsBetweenEvents) {
  Simulator sim(1);
  auto* t = sim.make_actor<SparseTicker>();
  sim.start();
  std::vector<Time> expect;
  Time at = kSpan - 1;
  for (int i = 0; i < 40; ++i) {
    expect.push_back(at);
    at += (i % 2 == 0) ? 3 * kSpan : kSpan - 1;
  }
  for (std::size_t i = 0; i < expect.size(); ++i) {
    // Stop one tick short: nothing may fire, yet the clock moves there.
    sim.run_until(expect[i] - 1);
    ASSERT_EQ(t->fired.size(), i);
    ASSERT_EQ(sim.now(), expect[i] - 1);
    // step() then runs exactly the next event, at its own time.
    ASSERT_TRUE(sim.step());
    ASSERT_EQ(t->fired.size(), i + 1);
    ASSERT_EQ(sim.now(), expect[i]);
  }
  EXPECT_EQ(t->fired, expect);
  EXPECT_EQ(sim.events_processed(), expect.size());
}

TEST(SimQueue, RejectsSchedulingIntoThePast) {
  Simulator sim(1);
  auto* a = sim.make_actor<TimerLog>();
  sim.start();
  sim.run_until(100);
  int ran = 0;
  EXPECT_THROW(sim.schedule(99, [&] { ++ran; }), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1, [&] { ++ran; }), std::invalid_argument);
  EXPECT_THROW(sim.schedule_crash(a->id(), 50), std::invalid_argument);
  EXPECT_THROW(sim.schedule_recovery(a->id(), 99), std::invalid_argument);
  EXPECT_THROW(sim.set_timer(a->id(), -1), std::invalid_argument);
  // A rejected call leaves nothing queued; the present is still fine.
  EXPECT_TRUE(sim.idle());
  sim.schedule(100, [&] { ++ran; });
  sim.set_timer(a->id(), 0);
  sim.run_until(100);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(a->fired.size(), 1u);
  EXPECT_FALSE(sim.crashed(a->id()));
  EXPECT_EQ(sim.now(), 100);

  Simulator mc(1, nullptr, ekbd::sim::ExecMode::kControlled);
  auto* c = mc.make_actor<TimerLog>();
  mc.start();
  EXPECT_THROW(mc.schedule(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(mc.set_timer(c->id(), -1), std::invalid_argument);
  EXPECT_THROW(mc.schedule_crash(c->id(), -1), std::invalid_argument);
  EXPECT_TRUE(mc.eligible_events().empty());
}

// -- execution-mode guards (every build type) -------------------------------

// Each entry point belongs to one execution mode and rejects the other with
// std::logic_error, in release builds too. A controlled world's timed heap
// holds `schedule_crash` records that must never fire: before the guard
// threw, run_until() here drained that heap and crashed p0 under NDEBUG.
TEST(SimMode, ControlledRunUntilThrowsAndFiresNothing) {
  Simulator sim(1, nullptr, ekbd::sim::ExecMode::kControlled);
  auto* a = sim.make_actor<Recorder>();
  sim.make_actor<Recorder>();
  sim.schedule_crash(a->id(), 5);
  EXPECT_THROW(sim.run_until(10), std::logic_error);
  EXPECT_THROW(sim.run_for(10), std::logic_error);
  EXPECT_FALSE(sim.crashed(a->id()));
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimMode, ControlledStepThrows) {
  Simulator sim(1, nullptr, ekbd::sim::ExecMode::kControlled);
  auto* a = sim.make_actor<Recorder>();
  sim.schedule_crash(a->id(), 0);
  EXPECT_THROW(sim.step(), std::logic_error);
  EXPECT_FALSE(sim.crashed(a->id()));
}

TEST(SimMode, ControlledRecoverThrows) {
  Simulator sim(1, nullptr, ekbd::sim::ExecMode::kControlled);
  auto* a = sim.make_actor<Recorder>();
  sim.start();
  sim.crash(a->id());
  EXPECT_THROW(sim.recover(a->id()), std::logic_error);
  EXPECT_TRUE(sim.crashed(a->id()));
}

TEST(SimMode, TimedRejectsControlledEntryPoints) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(3));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  a->send(b->id(), Note{7}, MsgLayer::kOther);
  EXPECT_THROW((void)sim.eligible_events(), std::logic_error);
  EXPECT_THROW(sim.execute_event(0), std::logic_error);
  // The timed queue is untouched: the message still arrives on schedule.
  sim.run_until(3);
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(b->receive_times[0], 3);
}

}  // namespace
