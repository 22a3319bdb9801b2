// Event-log tests: transport tracing fidelity, capping, payload naming,
// and (EventLogCodec) the compact record codec against a plain-vector
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/event_log.hpp"
#include "sim/simulator.hpp"

namespace {

using ekbd::sim::EventLog;
using ekbd::sim::LoggedEvent;
using Kind = LoggedEvent::Kind;
using ekbd::sim::Message;
using ekbd::sim::MsgLayer;
using ekbd::sim::Simulator;

// Payload is a closed variant now; these tests send the generic Datum.
using Tag = ekbd::sim::Datum;

struct Echo : ekbd::sim::Actor {
  void on_message(const Message&) override {}
  void on_timer(ekbd::sim::TimerId) override {}
  using Actor::send;
  using Actor::set_timer;
};

TEST(EventLogTest, RecordsSendAndDeliverPairs) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(3));
  EventLog log;
  sim.set_event_log(&log);
  auto* a = sim.make_actor<Echo>();
  auto* b = sim.make_actor<Echo>();
  sim.start();
  a->send(b->id(), Tag{1}, MsgLayer::kDining);
  sim.run_until(100);
  ASSERT_EQ(log.count(LoggedEvent::Kind::kSend), 1u);
  ASSERT_EQ(log.count(LoggedEvent::Kind::kDeliver), 1u);
  auto it = log.events().begin();
  const LoggedEvent send_ev = *it;
  const LoggedEvent deliver_ev = *++it;
  EXPECT_EQ(send_ev.at, 0);
  EXPECT_EQ(deliver_ev.at, 3);
  EXPECT_EQ(send_ev.from, 0);
  EXPECT_EQ(send_ev.to, 1);
  EXPECT_EQ(send_ev.seq, deliver_ev.seq);
  EXPECT_EQ(send_ev.payload_name(), "Datum");
  EXPECT_EQ(send_ev.layer, MsgLayer::kDining);
}

TEST(EventLogTest, RecordsDropsToCrashed) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(5));
  EventLog log;
  sim.set_event_log(&log);
  auto* a = sim.make_actor<Echo>();
  auto* b = sim.make_actor<Echo>();
  sim.start();
  sim.schedule_crash(b->id(), 2);
  a->send(b->id(), Tag{}, MsgLayer::kOther);  // delivery at 5 > crash at 2
  sim.run_until(100);
  EXPECT_EQ(log.count(LoggedEvent::Kind::kCrash), 1u);
  EXPECT_EQ(log.count(LoggedEvent::Kind::kDrop), 1u);
  EXPECT_EQ(log.count(LoggedEvent::Kind::kDeliver), 0u);
}

TEST(EventLogTest, RecordsTimers) {
  Simulator sim(1);
  EventLog log;
  sim.set_event_log(&log);
  auto* a = sim.make_actor<Echo>();
  sim.start();
  a->set_timer(10);
  a->set_timer(20);
  sim.run_until(100);
  EXPECT_EQ(log.count(LoggedEvent::Kind::kTimer), 2u);
}

TEST(EventLogTest, CapTruncates) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(1));
  EventLog log(/*cap=*/5);
  sim.set_event_log(&log);
  auto* a = sim.make_actor<Echo>();
  auto* b = sim.make_actor<Echo>();
  sim.start();
  for (int i = 0; i < 10; ++i) a->send(b->id(), Tag{i}, MsgLayer::kOther);
  sim.run_until(100);
  EXPECT_EQ(log.size(), 5u);
  EXPECT_TRUE(log.truncated());
  // 10 sends + 10 deliveries = 20 events offered, 5 kept, 15 refused.
  EXPECT_EQ(log.dropped(), 15u);
  // The shape summary owns up to the truncation.
  EXPECT_NE(log.describe().find("5 events"), std::string::npos);
  EXPECT_NE(log.describe().find("cap 5"), std::string::npos);
  EXPECT_NE(log.describe().find("15 dropped"), std::string::npos);
  log.clear();
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_FALSE(log.truncated());
}

TEST(EventLogTest, UnboundedLogNeverDrops) {
  EventLog log;
  for (int i = 0; i < 100; ++i) log.append(LoggedEvent{});
  EXPECT_EQ(log.size(), 100u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_NE(log.describe().find("unbounded"), std::string::npos);
}

TEST(EventLogTest, DetachStopsRecording) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(1));
  EventLog log;
  sim.set_event_log(&log);
  auto* a = sim.make_actor<Echo>();
  auto* b = sim.make_actor<Echo>();
  sim.start();
  a->send(b->id(), Tag{}, MsgLayer::kOther);
  sim.run_until(10);
  const auto before = log.size();
  sim.set_event_log(nullptr);
  a->send(b->id(), Tag{}, MsgLayer::kOther);
  sim.run_until(20);
  EXPECT_EQ(log.size(), before);
}

TEST(EventLogTest, DescribeIsHumanReadable) {
  LoggedEvent e;
  e.at = 42;
  e.kind = LoggedEvent::Kind::kCrash;
  e.from = 3;
  EXPECT_NE(e.describe().find("CRASH"), std::string::npos);
  EXPECT_NE(e.describe().find("p3"), std::string::npos);
}

// -- EventLogCodec: the compact records against a vector reference ---------

namespace codec {

using I32 = std::numeric_limits<std::int32_t>;
using I64 = std::numeric_limits<std::int64_t>;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Events that stress every field of the codec: `at` stepping forwards
/// and backwards and jumping to the int64 extremes, process ids at
/// kNoProcess and the int32 extremes, seqs carrying the recorder's segment
/// bits (1 << 40) or UINT64_MAX, and kind/layer/payload bytes 0 and 255.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}

  LoggedEvent next() {
    LoggedEvent e;
    switch (pick(6)) {
      case 0: step(pick(1000)); break;
      case 1: step(0 - pick(1000)); break;  // backwards
      case 2: at_ = I64::min(); break;
      case 3: at_ = I64::max(); break;
      case 4: at_ = static_cast<std::int64_t>(splitmix(s_)); break;
      default: step(1); break;
    }
    e.at = at_;
    switch (pick(6)) {
      case 0: seq_ += 1; e.seq = seq_; break;
      case 1: e.seq = (pick(8) << 40) | (seq_ += pick(64)); break;
      case 2: e.seq = std::numeric_limits<std::uint64_t>::max(); break;
      case 3: e.seq = 0; break;
      case 4: e.seq = splitmix(s_); break;
      default: e.seq = seq_ - pick(16); break;
    }
    e.from = process();
    e.to = process();
    e.kind = static_cast<Kind>(byte(9));
    e.layer = static_cast<MsgLayer>(byte(4));
    e.payload = byte(20);
    return e;
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return splitmix(s_) % n; }
  /// Moves `at_` by a wrapping delta: steps off the int64 extremes wrap
  /// around as the codec's own delta arithmetic does.
  void step(std::uint64_t delta) {
    at_ = static_cast<std::int64_t>(static_cast<std::uint64_t>(at_) + delta);
  }
  std::int32_t process() {
    switch (pick(6)) {
      case 0: return ekbd::sim::kNoProcess;
      case 1: return I32::min();
      case 2: return I32::max();
      case 3: return static_cast<std::int32_t>(splitmix(s_));
      default: return static_cast<std::int32_t>(pick(1024));
    }
  }
  /// 0, 255, an in-range value below `in_range`, or any byte.
  std::uint8_t byte(std::uint64_t in_range) {
    switch (pick(8)) {
      case 0: return 0;
      case 1: return 255;
      case 2: return static_cast<std::uint8_t>(splitmix(s_));
      default: return static_cast<std::uint8_t>(pick(in_range));
    }
  }

  std::uint64_t s_;
  std::int64_t at_ = 0;
  std::uint64_t seq_ = 0;
};

bool same(const LoggedEvent& a, const LoggedEvent& b) {
  return a.at == b.at && a.kind == b.kind && a.from == b.from && a.to == b.to &&
         a.layer == b.layer && a.seq == b.seq && a.payload == b.payload;
}

/// Index of the first event where `log` and `ref` differ, or ref.size()
/// when the log decodes to exactly `ref`.
std::size_t first_mismatch(const EventLog& log, const std::vector<LoggedEvent>& ref) {
  if (log.size() != ref.size()) return std::min(log.size(), ref.size());
  std::size_t i = 0;
  for (const LoggedEvent& e : log.events()) {
    if (!same(e, ref[i])) return i;
    ++i;
  }
  return i;
}

}  // namespace codec

TEST(EventLogCodec, MillionEventsRoundTripExactlyAcrossBlocks) {
  constexpr std::size_t kEvents = std::size_t{1} << 20;
  codec::Gen gen(0xE0C0DEC);
  std::vector<LoggedEvent> ref;
  ref.reserve(kEvents);
  EventLog log;
  for (std::size_t i = 0; i < kEvents; ++i) {
    ref.push_back(gen.next());
    log.append(ref.back());
  }
  ASSERT_EQ(log.size(), kEvents);
  EXPECT_GT(log.bytes(), 16 * EventLog::kBlockBytes) << "must span many blocks";
  EXPECT_EQ(codec::first_mismatch(log, ref), ref.size());
  for (const Kind k : {Kind::kSend, Kind::kTimer, Kind::kRecover, static_cast<Kind>(9),
                       static_cast<Kind>(255)}) {
    std::size_t expected = 0;
    for (const LoggedEvent& e : ref) expected += e.kind == k ? 1 : 0;
    EXPECT_EQ(log.count(k), expected) << "kind " << static_cast<int>(k);
  }
  // The range is multi-pass: a second walk decodes the same events.
  EXPECT_EQ(codec::first_mismatch(log, ref), ref.size());
  EXPECT_FALSE(log.truncated());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogCodec, ExtremeFieldsRoundTrip) {
  std::vector<LoggedEvent> ref;
  for (const std::int64_t at : {std::int64_t{0}, codec::I64::max(), codec::I64::min(),
                                codec::I64::max(), std::int64_t{-1}, codec::I64::min()}) {
    for (const std::uint64_t seq : {std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max(),
                                    std::uint64_t{1} << 40, (std::uint64_t{3} << 40) | 17}) {
      LoggedEvent e;
      e.at = at;
      e.seq = seq;
      e.from = codec::I32::min();
      e.to = codec::I32::max();
      e.kind = static_cast<Kind>(255);
      e.layer = static_cast<MsgLayer>(255);
      e.payload = 255;
      ref.push_back(e);
      e.from = ekbd::sim::kNoProcess;
      e.to = 0;
      e.kind = static_cast<Kind>(0);
      e.layer = static_cast<MsgLayer>(0);
      e.payload = 0;
      ref.push_back(e);
      e.kind = static_cast<Kind>(14);  // largest nibble that needs no escape
      e.layer = static_cast<MsgLayer>(15);  // smallest layer that does
      ref.push_back(e);
    }
  }
  EventLog log;
  for (const LoggedEvent& e : ref) log.append(e);
  EXPECT_EQ(codec::first_mismatch(log, ref), ref.size());
}

TEST(EventLogCodec, RecordSizesArePinned) {
  EventLog log;
  EXPECT_EQ(log.bytes(), 0u);
  // Default event: header, tag, at delta 0, seq delta 0, kNoProcess twice.
  log.append(LoggedEvent{});
  EXPECT_EQ(log.bytes(), 6u);
  // Escaped header (+2), and from/to of 300 take two varint bytes each.
  LoggedEvent e;
  e.kind = static_cast<Kind>(200);
  e.from = 300;
  e.to = 300;
  log.append(e);
  EXPECT_EQ(log.bytes(), 6u + 10u);
  // The worst case: every field as long as it gets.
  e.at = codec::I64::min();
  e.seq = std::numeric_limits<std::uint64_t>::max() / 2;
  e.from = codec::I32::min();
  e.to = codec::I32::min();
  log.append(e);
  EXPECT_EQ(log.bytes(), 16u + 34u);
}

// A record is written only where its longest form (34 bytes) fits. Fill a
// block to leave each remainder a worst-case record cannot take, then
// append one: under ASan a record written past the block end is reported.
TEST(EventLogCodec, WorstCaseRecordNeverStraddlesABlock) {
  LoggedEvent small;  // 6 bytes
  LoggedEvent wide;   // 7 bytes: `to` = 64 takes a two-byte varint
  wide.to = 64;
  LoggedEvent worst;  // 34 bytes after a zero base
  worst.kind = static_cast<Kind>(255);
  worst.at = codec::I64::min();
  worst.seq = std::numeric_limits<std::uint64_t>::max() / 2;
  worst.from = codec::I32::min();
  worst.to = codec::I32::min();
  for (std::size_t remainder = 27; remainder < 34; ++remainder) {
    const std::size_t fill = EventLog::kBlockBytes - remainder;
    const std::size_t wides = fill % 6 == 0 ? 6 : fill % 6;  // at least one, last
    EventLog log;
    std::vector<LoggedEvent> ref((fill - 7 * wides) / 6, small);
    ref.insert(ref.end(), wides, wide);
    for (const LoggedEvent& e : ref) log.append(e);
    ASSERT_EQ(log.bytes(), fill) << "remainder " << remainder;
    ref.push_back(worst);
    log.append(worst);
    EXPECT_EQ(log.bytes(), fill + 34);
    EXPECT_EQ(codec::first_mismatch(log, ref), ref.size()) << "remainder " << remainder;
  }
}

TEST(EventLogCodec, CapTruncationKeepsTheDecodablePrefix) {
  constexpr std::size_t kCap = 20'000;
  codec::Gen gen(7);
  std::vector<LoggedEvent> ref;
  EventLog log(kCap);
  for (std::size_t i = 0; i < kCap + 2'500; ++i) {
    const LoggedEvent e = gen.next();
    if (ref.size() < kCap) ref.push_back(e);
    log.append(e);
  }
  EXPECT_EQ(log.size(), kCap);
  EXPECT_TRUE(log.truncated());
  EXPECT_EQ(log.dropped(), 2'500u);
  EXPECT_GT(log.bytes(), EventLog::kBlockBytes);
  EXPECT_EQ(codec::first_mismatch(log, ref), ref.size());
  EXPECT_EQ(log.describe(), "event log: 20000 events (cap 20000, 2500 dropped)");
}

TEST(EventLogCodec, ClearThenReuseRestartsTheDeltaBase) {
  codec::Gen gen(11);
  EventLog log;
  for (int i = 0; i < 50'000; ++i) log.append(gen.next());
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
  EXPECT_EQ(log.events().begin(), log.events().end());
  EXPECT_EQ(log.describe(), "event log: 0 events (unbounded)");

  std::vector<LoggedEvent> ref;
  for (int i = 0; i < 30'000; ++i) {
    ref.push_back(gen.next());
    log.append(ref.back());
  }
  EXPECT_EQ(log.size(), ref.size());
  EXPECT_EQ(codec::first_mismatch(log, ref), ref.size());
  EXPECT_EQ(log.describe(), "event log: 30000 events (unbounded)");
}

}  // namespace
