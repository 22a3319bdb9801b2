/// \file event_log.hpp
/// Optional low-level event tracing.
///
/// The dining Trace (dining/trace.hpp) records *scheduling* events; this
/// log records the transport itself — every send, delivery, drop, timer
/// firing and crash — for debugging protocols, for replaying an rt run's
/// linearization through the monitors (rt/replay.hpp) and for rendering
/// message sequence charts (examples/msc_demo) or Perfetto traces
/// (obs/perfetto). Install with `Simulator::set_event_log`; when none is
/// installed the simulator pays a null-pointer check per event and nothing
/// else.
///
/// The log keeps each event as a short, lossless byte record in fixed
/// 64 KiB blocks rather than as a 40-byte `LoggedEvent`: a header byte
/// (kind + layer), the payload tag, and zig-zag varints for the `at` and
/// `seq` deltas against the previous event and for `from` and `to`. An rt
/// run averages ~9 bytes per event (docs/PERF.md, "The compact event
/// log"). `events()` decodes as it iterates, so readers write
/// `for (const LoggedEvent& ev : log.events())` as they would over a vector.
///
/// For *streaming* consumers (the online invariant monitors in
/// obs/monitors.hpp) the simulator also accepts an `EventSink`: same
/// events, delivered by virtual call as they happen, nothing retained.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "sim/message.hpp"
#include "sim/time.hpp"

namespace ekbd::sim {

struct LoggedEvent {
  enum class Kind : std::uint8_t {
    kSend,           ///< message handed to the network
    kDeliver,        ///< message handed to the recipient
    kDrop,           ///< message reached a crashed recipient
    kTimer,          ///< a timer fired at `from`
    kCrash,          ///< process `from` crashed
    kLoss,           ///< message lost in flight (link-fault adversary)
    kDuplicate,      ///< adversary injected a duplicate copy
    kPartitionLoss,  ///< message lost because the (from,to) link was cut
    kRecover,        ///< process `from` rejoined after a crash
  };

  Time at = 0;
  Kind kind = Kind::kSend;
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  MsgLayer layer = MsgLayer::kOther;
  std::uint64_t seq = 0;             ///< message seq (send/deliver/drop)
  PayloadTag payload = kNoPayloadTag;  ///< payload variant tag (messages only)

  /// Human-readable payload type ("Ping", "Fork", ...): the tag-table
  /// name — deterministic across compilers ("" for no payload).
  [[nodiscard]] std::string payload_name() const { return payload_tag_name(payload); }

  [[nodiscard]] std::string describe() const;
};

/// Streaming consumer of logged events. Installed with
/// `Simulator::set_event_sink`; receives every event the log would, in
/// the same order, as it happens. Implementations must not re-enter the
/// simulator (they observe, they do not schedule).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const LoggedEvent& ev) = 0;
};

/// Append-only log of compact records. For long runs prefer installing
/// only around the window of interest (set_event_log(nullptr) detaches).
class EventLog {
 public:
  /// Forward iterator that decodes one record per step. `*it` refers to
  /// an event held inside the iterator: it stays valid until the iterator
  /// is advanced or destroyed, which covers a range-for body.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = LoggedEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const LoggedEvent*;
    using reference = const LoggedEvent&;

    Iterator() = default;
    reference operator*() const { return ev_; }
    pointer operator->() const { return &ev_; }
    Iterator& operator++() {
      if (--left_ != 0) decode();
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    /// Iterators of one log are equal when as many events remain after them.
    friend bool operator==(const Iterator& a, const Iterator& b) { return a.left_ == b.left_; }

   private:
    friend class EventLog;
    Iterator(const EventLog* log, std::size_t left);
    void decode();

    const EventLog* log_ = nullptr;
    std::size_t block_ = 0;
    const std::uint8_t* p_ = nullptr;
    const std::uint8_t* end_ = nullptr;
    std::size_t left_ = 0;
    LoggedEvent ev_{};  ///< last decoded event, also the delta base of the next
  };

  /// The retained events in append order (a view; appends invalidate it).
  class Events {
   public:
    [[nodiscard]] Iterator begin() const { return Iterator(log_, log_->size_); }
    [[nodiscard]] Iterator end() const { return Iterator(); }

   private:
    friend class EventLog;
    explicit Events(const EventLog* log) : log_(log) {}
    const EventLog* log_;
  };

  /// Records never straddle blocks; a block is closed when the next
  /// record might not fit.
  static constexpr std::size_t kBlockBytes = std::size_t{64} * 1024;

  /// Keep at most `cap` events (0 = unbounded). When full, appends are
  /// counted and dropped — debugging windows should be sized explicitly
  /// rather than silently eating memory; `dropped()` says how much of the
  /// run fell off the end.
  explicit EventLog(std::size_t cap = 0) : cap_(cap) {}
  /// Neither copyable nor movable: the write cursor points into the
  /// log's own blocks.
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void append(const LoggedEvent& ev);

  [[nodiscard]] Events events() const { return Events(this); }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Encoded bytes held; the allocation is this rounded up to whole
  /// 64 KiB blocks (plus the block index).
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool truncated() const { return truncated_; }
  /// Appends refused because the log was at capacity.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Forget every event and release the blocks; the cap stays.
  void clear();

  /// Count of events of one kind (convenience for tests/assertions).
  [[nodiscard]] std::size_t count(LoggedEvent::Kind kind) const;

  /// One-line shape summary, e.g. "event log: 5194 events (cap 8192, 0
  /// dropped)".
  [[nodiscard]] std::string describe() const;

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t used = 0;  ///< set when the next block opens
  };

  void open_block();
  [[nodiscard]] const std::uint8_t* block_end(std::size_t b) const {
    return b + 1 == blocks_.size() ? cursor_ : blocks_[b].data.get() + blocks_[b].used;
  }

  std::size_t cap_;
  bool truncated_ = false;
  std::uint64_t dropped_ = 0;
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;
  std::vector<Block> blocks_;
  std::uint8_t* cursor_ = nullptr;  ///< next write position in blocks_.back()
  std::uint8_t* limit_ = nullptr;   ///< end of blocks_.back()
  Time prev_at_ = 0;                ///< delta bases: the last appended event
  std::uint64_t prev_seq_ = 0;
};

}  // namespace ekbd::sim
