/// \file segment.hpp
/// Per-shard recorder segments: the building block of the rt engine's
/// streaming observability pipeline (see recorder.hpp for the protocol).
///
/// In segmented mode every worker thread appends its observable
/// transitions to its OWN segment — an uncontended mutex + vector, never
/// the one global recorder mutex — and a collector thread periodically
/// swaps the buffers out and k-way merges them into the single totally
/// ordered stream the monitors, checkers and exporters consume.
///
/// ## Order keys (hybrid timestamps)
///
/// Tick stamps (100 µs by default) are far too coarse to order a merge:
/// a send and its delivery routinely land on the same tick, and a merge
/// that put the delivery first would corrupt the network books. Each
/// record therefore carries a nanosecond `key` — the appending thread's
/// steady_clock reading, clamped monotonic within the segment — used ONLY
/// for merging; the event itself keeps its tick stamp. A worker thread
/// does not read the clock per record: it serves the reading it cached at
/// its last refresh point (clock.hpp) — the top of each worker-loop
/// iteration, the entry to each dispatch run (right after the claim),
/// after every non-empty mailbox `pop_n`, and every idle probe in park().
/// Other threads read the clock fresh. Causal order survives because each
/// refresh point follows the event whose effects it keys, in the
/// happens-before sense of logical clocks (Aspnes, PAPERS.md), and
/// steady_clock is one monotonic coordinate for the whole process:
///
///  * A delivery is keyed by a reading taken after its message was
///    popped; the pop follows the push, which follows the send's append,
///    whose reading was taken earlier still. So key_send <= key_deliver
///    on any pair of threads.
///  * A dispatch run is keyed by a reading taken after its claim, which
///    follows the previous owner's release, which follows every record
///    that owner appended for the actor. So one actor's records never
///    reorder when it migrates between shards.
///  * A thread's cached readings never decrease, so per-segment keys and
///    the watermarks published from them stay monotone.
///
/// Exact ties are broken by kind class (sends before effects), so the
/// merged stream is always well-formed. Residual sub-tick skew between a
/// tick stamp and its key is absorbed by a final monotonic clamp on the
/// merged tick stamps — the same clamp the single-mutex recorder applied,
/// moved to the merge point.
///
/// ## Watermarks
///
/// A worker segment is single-producer: only its own thread appends, so
/// after it publishes watermark W (its latest clamped key), every future
/// append to that segment carries a key >= W. The collector may merge the
/// prefix key <= min-over-worker-watermarks and know no straggler will
/// ever slot in below it. Idle workers advance their watermark with
/// `heartbeat()` once per scheduler loop so one quiet shard cannot stall
/// the stream. The one multi-producer segment (the "external" catch-all
/// for non-worker threads) does not vote in the min; its appends are
/// instead clamped up to the collector's published floor so they can
/// never undercut already-merged history.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "dining/trace.hpp"
#include "sim/event_log.hpp"
#include "sim/time.hpp"

namespace ekbd::rt {

/// One record in a segment: a transport event or a scheduling trace
/// event, tagged, plus the nanosecond merge key.
struct SegmentRecord {
  enum class Type : std::uint8_t { kEvent, kTrace };

  SegmentRecord() : event{} {}

  std::int64_t key = 0;  ///< steady_clock ns (thread's reading), per-segment monotonic
  Type type = Type::kEvent;
  /// The record itself; `type` says which member is live.
  union {
    sim::LoggedEvent event;
    dining::TraceEvent trace;
  };

  /// Merge class at equal keys: sends (and injected duplicates) order
  /// before every other record so a same-key delivery can never overtake
  /// the send that caused it.
  [[nodiscard]] int merge_class() const {
    return type == Type::kEvent && (event.kind == sim::LoggedEvent::Kind::kSend ||
                                    event.kind == sim::LoggedEvent::Kind::kDuplicate)
               ? 0
               : 1;
  }
};

/// One segment's shared state. The producing thread(s) and the collector
/// synchronize on `mu`; `watermark` is additionally published atomically
/// so the collector can compute the merge horizon without touching any
/// segment lock. The Recorder owns the append/drain protocol — this is
/// deliberately a plain data holder, not an abstraction boundary.
struct RecorderSegment {
  std::mutex mu;
  std::vector<SegmentRecord> buf;  ///< appended since the last drain (guarded by mu)
  std::int64_t last_key = 0;       ///< monotonic clamp for this segment's keys
  std::uint64_t next_seq = 0;      ///< per-segment message sequence counter
  std::uint64_t dropped = 0;       ///< appends refused while the stream was shedding
  std::atomic<std::int64_t> watermark{0};
};

/// Collector-side accounting, surfaced like `sim::EventLog` drop counts:
/// a bounded stream that had to shed says so, loudly, instead of silently
/// eating memory or silently losing history.
struct StreamStats {
  std::uint64_t collect_passes = 0;       ///< collector merge passes (windows)
  std::uint64_t merged_events = 0;        ///< LoggedEvents applied to the books
  std::uint64_t merged_trace_events = 0;  ///< trace records applied
  std::size_t max_pending = 0;            ///< high-water of records buffered ahead of the horizon
  std::uint64_t dropped_records = 0;      ///< appends refused while shedding (pending cap hit)
  std::uint64_t dropped_windows = 0;      ///< collector passes spent in the shedding state
};

}  // namespace ekbd::rt
