// Tests for the segmented streaming recorder (src/rt/recorder.hpp,
// rt/segment.hpp, rt/log_io merge_segments): mode/shard-count equivalence,
// merged-book structural invariants, stream stats accounting, shedding,
// the live telemetry snapshot loop, and the stream lifecycle contracts.
//
// "Equivalence" here is the strongest thing a wall-clock-concurrent run
// can promise: two runs of the same seed schedule differently, so the
// comparison is not byte equality of books across runs — it is that EVERY
// run, direct or streaming, any shard count, produces books that (a) the
// online monitors and post-hoc checkers agree on, (b) replay reproduces
// exactly, and (c) satisfy the structural invariants a single-mutex
// linearization guarantees (time-ordered log, unique send seqs, no
// delivery before its send).
//
// All tests carry the ctest label `rtstream`; CI runs them under TSan and
// ASan+UBSan (the collector/producer handoff is the point).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/monitors.hpp"
#include "rt/recorder.hpp"
#include "rt/replay.hpp"
#include "rt/runtime.hpp"
#include "scenario/rt_scenario.hpp"
#include "sim/event_log.hpp"

namespace {

using ekbd::sim::LoggedEvent;
using ekbd::sim::Time;

ekbd::scenario::Config stream_config(std::uint64_t seed) {
  ekbd::scenario::Config cfg;
  cfg.engine = ekbd::scenario::Engine::kRt;
  cfg.seed = seed;
  cfg.topology = "ring";
  cfg.n = 8;
  cfg.algorithm = ekbd::scenario::Algorithm::kWaitFree;
  cfg.detector = ekbd::scenario::DetectorKind::kHeartbeat;
  cfg.observability = true;
  cfg.rt_tick_ns = 100'000;
  cfg.run_for = 1'500;  // 0.15 s wall
  return cfg;
}

/// The full within-run verdict battery: monitors agree with the post-hoc
/// checkers and the network books, and replaying the recorded log + trace
/// into a fresh hub reproduces the live verdicts exactly.
void expect_books_coherent(ekbd::scenario::RtScenario& s, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_NE(s.event_log(), nullptr);
  EXPECT_EQ(s.monitor_agreement(), "");
  EXPECT_GT(s.trace().count(ekbd::dining::TraceEventKind::kStartEating), 0u);

  ekbd::obs::MonitorHub replayed(s.graph());
  ekbd::rt::replay(*s.event_log(), s.trace(), replayed);
  EXPECT_EQ(replayed.to_json(), s.monitors()->to_json())
      << "replay disagrees with the live monitors";
  EXPECT_EQ(replayed.agreement_failures(s.trace(), s.graph(), s.recorder().network()),
            "");
}

/// Structural invariants of a valid linearization, checked on the merged
/// streaming books: nondecreasing timestamps, globally unique kSend seqs,
/// and no delivery/drop of a seq before its send.
void expect_log_well_formed(const ekbd::sim::EventLog& log) {
  Time prev = -1;
  std::set<std::uint64_t> sends;
  std::uint64_t n_sends = 0;
  for (const LoggedEvent& ev : log.events()) {
    EXPECT_GE(ev.at, prev) << "merged log went back in time";
    prev = ev.at;
    switch (ev.kind) {
      case LoggedEvent::Kind::kSend:
      case LoggedEvent::Kind::kDuplicate:
        // A duplicate is stamped as its own in-flight message with a
        // fresh seq — an origin event, exactly like a send.
        ++n_sends;
        sends.insert(ev.seq);
        break;
      case LoggedEvent::Kind::kDeliver:
      case LoggedEvent::Kind::kDrop:
        // Every effect of a message merges after its send: the recorder's
        // (key, merge_class) order makes a same-instant deliver-before-
        // send impossible.
        EXPECT_EQ(sends.count(ev.seq), 1u)
            << "seq " << ev.seq << " delivered/dropped before its send";
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(sends.size(), n_sends)
      << "duplicate origin (kSend/kDuplicate) seqs in the merged log";
}

void expect_trace_well_formed(const ekbd::dining::Trace& trace) {
  Time prev = -1;
  for (const ekbd::dining::TraceEvent& ev : trace.events()) {
    EXPECT_GE(ev.at, prev) << "merged trace went back in time";
    prev = ev.at;
  }
}

// ----------------------------------------------------------- equivalence

// Same config across the recorder's modes and shard layouts: direct
// (single-mutex), streaming with 1 shard, 2 shards, one-per-core, and
// thread-per-actor. Every run must pass the full verdict battery and the
// structural invariants.
TEST(RtStreamEquivalence, ModesAndShardCountsAllAgree) {
  struct Layout {
    const char* name;
    bool segmented;
    std::size_t shards;
  };
  const Layout layouts[] = {
      {"direct", false, 0},         {"stream/1", true, 1}, {"stream/2", true, 2},
      {"stream/cores", true, 0},    {"stream/n", true, 8},
  };
  for (const Layout& l : layouts) {
    ekbd::scenario::Config cfg = stream_config(7001);
    cfg.rt_segmented_recorder = l.segmented;
    cfg.rt_shards = l.shards;
    cfg.net_mode = ekbd::scenario::NetMode::kLossy;
    cfg.crashes = {{3, 700}};
    ekbd::scenario::RtScenario s(cfg);
    s.run();
    expect_books_coherent(s, l.name);
    expect_log_well_formed(*s.event_log());
    expect_trace_well_formed(s.trace());
  }
}

// The direct path must be bit-for-bit the old recorder: no collector, no
// stream stats, same verdict battery.
TEST(RtStreamEquivalence, DirectModeHasNoStream) {
  ekbd::scenario::Config cfg = stream_config(7002);
  cfg.rt_segmented_recorder = false;
  ekbd::scenario::RtScenario s(cfg);
  s.run();
  EXPECT_FALSE(s.recorder().streaming());
  const ekbd::rt::StreamStats ss = s.recorder().stream_stats();
  EXPECT_EQ(ss.collect_passes, 0u);
  EXPECT_EQ(ss.merged_events, 0u);
  EXPECT_EQ(ss.dropped_records, 0u);
  expect_books_coherent(s, "direct");
}

// ------------------------------------------------- order under the cached clock

/// Per-process scheduling order in the merged trace: every kStartEating
/// follows that process's kBecameHungry, every kStopEating its
/// kStartEating. A record keyed by a stale clock reading after its actor
/// migrated shards would merge out of this order.
void expect_sessions_in_order(const ekbd::dining::Trace& trace, std::size_t n) {
  enum : std::uint8_t { kThinking, kHungry, kEating };
  std::vector<std::uint8_t> state(n, kThinking);
  for (const ekbd::dining::TraceEvent& ev : trace.events()) {
    if (ev.process < 0 || static_cast<std::size_t>(ev.process) >= n) continue;
    std::uint8_t& st = state[static_cast<std::size_t>(ev.process)];
    switch (ev.kind) {
      case ekbd::dining::TraceEventKind::kBecameHungry:
        st = kHungry;
        break;
      case ekbd::dining::TraceEventKind::kStartEating:
        EXPECT_EQ(st, kHungry) << "p" << ev.process << " started eating at t=" << ev.at
                               << " without a preceding kBecameHungry";
        st = kEating;
        break;
      case ekbd::dining::TraceEventKind::kStopEating:
        EXPECT_EQ(st, kEating) << "p" << ev.process << " stopped eating at t=" << ev.at
                               << " without a preceding kStartEating";
        st = kThinking;
        break;
      default:
        break;
    }
  }
}

// Workers key their records with the clock reading cached at the last
// refresh point (rt/clock.hpp). On 2 µs ticks with shards ∈ {2, 4, n}
// actors migrate through steals and helps all the time; the merged books
// must still form a linearization: sends before their deliveries, each
// actor's records in its own order, monitors and replay in agreement.
TEST(RtStreamOrder, CachedClockKeepsCausalOrderAcrossShards) {
  constexpr std::size_t kN = 64;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}, kN}) {
    ekbd::scenario::Config cfg = stream_config(7010);
    cfg.topology = "sparse";
    cfg.n = kN;
    cfg.detector = ekbd::scenario::DetectorKind::kPerfect;
    cfg.rt_tick_ns = 2'000;
    cfg.rt_shards = shards;
    cfg.run_for = 50'000;  // 0.1 s wall
    cfg.harness.think_lo = 1;
    cfg.harness.think_hi = 4;
    cfg.harness.eat_lo = 1;
    cfg.harness.eat_hi = 3;
    cfg.harness.first_hunger_hi = 4;
    ekbd::scenario::RtScenario s(cfg);
    s.run();
    const std::string what = "shards=" + std::to_string(shards);
    SCOPED_TRACE(what);
    expect_log_well_formed(*s.event_log());
    expect_books_coherent(s, what);
    expect_sessions_in_order(s.trace(), kN);
  }
}

// --------------------------------------------------------------- accounting

// Uncapped streaming run: the collector's merged-event count must equal
// what actually landed in the books — nothing lost, nothing invented.
TEST(RtStreamStats, MergedCountsMatchBooks) {
  ekbd::scenario::Config cfg = stream_config(7003);
  ekbd::scenario::RtScenario s(cfg);
  s.run();
  EXPECT_FALSE(s.recorder().streaming()) << "end_stream must have run at join";
  const ekbd::rt::StreamStats ss = s.recorder().stream_stats();
  EXPECT_GT(ss.collect_passes, 0u);
  EXPECT_EQ(ss.dropped_records, 0u);
  EXPECT_EQ(ss.dropped_windows, 0u);
  EXPECT_EQ(ss.merged_events, s.event_log()->size());
  EXPECT_EQ(ss.merged_trace_events, s.trace().events().size());
  expect_books_coherent(s, "uncapped stream");
}

// A pending cap must shed (drop-newest, like EventLog capacity) and
// account for every refused record. Deterministic setup: bind this thread
// to worker segment 0 and leave worker segment 1 forever silent — its
// watermark pins the merge horizon at zero, so every append stays pending,
// the backlog crosses the cap, and the next collector pass arms shedding.
// Shedding forfeits exact agreement by design, so only the accounting is
// asserted: every append is either merged (by the final drain) or counted
// as dropped, never silently lost.
TEST(RtStreamStats, PendingCapShedsAndCounts) {
  ekbd::rt::Recorder rec;
  ekbd::rt::Recorder::StreamOptions opts;
  opts.segments = 2;
  opts.window_ns = 1'000'000;  // 1 ms passes: frequent chances to arm
  opts.pending_cap = 4;
  rec.begin_stream(opts);
  rec.bind_segment(0);

  std::uint64_t appended = 0;
  Time tick = 0;
  const auto hungry = ekbd::dining::TraceEventKind::kBecameHungry;
  for (int i = 0; i < 8; ++i) {  // cross the cap before any pass
    rec.on_trace(0, ++tick, hungry);
    ++appended;
  }
  bool shed = false;
  for (int i = 0; i < 2000 && !shed; ++i) {  // bounded: arms within ~2 passes
    rec.on_trace(0, ++tick, hungry);
    ++appended;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    shed = rec.stream_stats().dropped_records > 0;
  }
  EXPECT_TRUE(shed) << "backlog past the cap never armed shedding";

  rec.end_stream();
  const ekbd::rt::StreamStats ss = rec.stream_stats();
  EXPECT_GT(ss.collect_passes, 0u);
  EXPECT_GT(ss.dropped_records, 0u);
  EXPECT_GT(ss.dropped_windows, 0u)
      << "records shed without a shedding window being counted";
  EXPECT_EQ(ss.merged_trace_events + ss.dropped_records, appended)
      << "an append was neither merged nor counted as dropped";
}

// -- Recorder stream contracts (every build type) ---------------------------

// Before the throw, a release build relaunched the collector over the
// running one's segments (std::terminate on the joinable thread).
TEST(RtStreamContract, BeginStreamWhileRunningThrows) {
  ekbd::rt::Recorder rec;
  ekbd::rt::Recorder::StreamOptions opts;
  opts.segments = 2;
  rec.begin_stream(opts);
  EXPECT_THROW(rec.begin_stream(opts), std::logic_error);
  rec.end_stream();
  rec.begin_stream(opts);  // a finished stream may be followed by another
  rec.end_stream();
}

// Before the throw, a release build bound the thread anyway and its next
// append indexed `segments_` past its end.
TEST(RtStreamContract, BindSegmentRejectsNonWorkerIndex) {
  ekbd::rt::Recorder rec;
  EXPECT_THROW(rec.bind_segment(0), std::logic_error);  // no stream begun
  ekbd::rt::Recorder::StreamOptions opts;
  opts.segments = 2;
  rec.begin_stream(opts);
  EXPECT_NO_THROW(rec.bind_segment(1));
  EXPECT_THROW(rec.bind_segment(2), std::logic_error);  // the external catch-all
  EXPECT_THROW(rec.bind_segment(7), std::logic_error);
  rec.end_stream();
}

// Capped EventLog under streaming: resident log memory is bounded, drops
// are counted, and the books that stay exact (trace, network) still pass
// the checkers. (Replay needs the full log, so it is out of scope here.)
TEST(RtStreamStats, CappedEventLogStaysBounded) {
  ekbd::scenario::Config cfg = stream_config(7007);
  cfg.rt_event_log_cap = 200;
  ekbd::scenario::RtScenario s(cfg);
  s.run();
  EXPECT_LE(s.event_log()->size(), 200u);
  EXPECT_TRUE(s.event_log()->truncated());
  EXPECT_GT(s.event_log()->dropped(), 0u);
  EXPECT_GT(s.trace().count(ekbd::dining::TraceEventKind::kStartEating), 0u);
  // Monitors consumed the full stream (they ride the sink, not the log),
  // so they must still agree with the post-hoc checkers, which read the
  // uncapped trace + network books. (Zero violations is NOT asserted:
  // pre-convergence exclusion violations are legitimate under a slow
  // heartbeat detector — e.g. under TSan — and ◇WX only promises they
  // stop.)
  EXPECT_EQ(s.monitor_agreement(), "");
}

// ------------------------------------------------------------- telemetry

// The live snapshot loop: periodic JSONL lines land in the file while the
// run is still going, counter samples accumulate, and the final line
// carries the exact post-join totals.
TEST(RtStreamTelemetry, LiveSnapshotsAndCounterSamples) {
  const std::string path = ::testing::TempDir() + "/rtstream_telemetry.jsonl";
  ekbd::scenario::Config cfg = stream_config(7008);
  cfg.run_for = 2'000;
  cfg.rt_telemetry_interval = 500;
  cfg.rt_telemetry_path = path;
  ekbd::scenario::RtScenario s(cfg);
  s.run();

  // At least interval boundaries 500/1000/1500 plus the final snapshot.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::size_t lines = 0;
  std::string last;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    ++lines;
    last = buf;
    EXPECT_EQ(buf[0], '{');
    EXPECT_NE(last.find("\"shards\""), std::string::npos);
    EXPECT_NE(last.find("\"latency\""), std::string::npos);
    EXPECT_NE(last.find("\"stream\""), std::string::npos);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_GE(lines, 4u);
  // Only the final snapshot (after the join) reports the retained log.
  EXPECT_NE(last.find("\"event_log\":{\"size\":"), std::string::npos);
  EXPECT_NE(last.find("\"bytes\":"), std::string::npos);

  EXPECT_FALSE(s.counter_samples().empty());
  bool saw_latency = false, saw_shard = false;
  for (const auto& c : s.counter_samples()) {
    if (c.track == "latency/p99") saw_latency = true;
    if (c.track == "shard0/dispatches") saw_shard = true;
  }
  EXPECT_TRUE(saw_latency);
  EXPECT_TRUE(saw_shard);

  // And the scenario's one-line telemetry carries the new sections.
  const std::string tj = s.telemetry_json();
  EXPECT_NE(tj.find("\"latency\""), std::string::npos);
  EXPECT_NE(tj.find("\"p999\""), std::string::npos);
  EXPECT_NE(tj.find("\"stream\""), std::string::npos);
  EXPECT_NE(tj.find("log.bytes"), std::string::npos);
}

// hungry→eat latency histogram: every completed hungry session of the run
// is one sample, quantiles are monotone, and the striped collection
// merges into a single coherent snapshot.
TEST(RtStreamTelemetry, LatencyHistogramMatchesTrace) {
  ekbd::scenario::Config cfg = stream_config(7009);
  ekbd::scenario::RtScenario s(cfg);
  s.run();
  ASSERT_TRUE(s.driver().latency_enabled());
  const ekbd::obs::Histogram lat = s.driver().latency_histogram();
  // One sample per kStartEating with an open hungry session; every start
  // here follows a kBecameHungry, so the counts match exactly.
  EXPECT_EQ(lat.count(), s.trace().count(ekbd::dining::TraceEventKind::kStartEating));
  EXPECT_GT(lat.count(), 0u);
  EXPECT_LE(lat.quantile(0.50), lat.quantile(0.99));
  EXPECT_LE(lat.quantile(0.99), lat.quantile(0.999));
}

}  // namespace
