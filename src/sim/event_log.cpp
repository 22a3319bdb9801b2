#include "sim/event_log.hpp"

#include <cstdio>

namespace ekbd::sim {

// -- record codec ------------------------------------------------------------
//
// One record per event, never split across blocks:
//
//   header   1 byte: kind | layer << 4 when both are < 15; otherwise 0xFF
//            followed by the raw kind byte and the raw layer byte
//   payload  1 byte: the payload tag
//   at       zig-zag varint of (at - previous at), wrapping in 64 bits
//   seq      zig-zag varint of (seq - previous seq), wrapping in 64 bits
//   from/to  zig-zag varints of the 32-bit process ids (kNoProcess = 1 byte)
//
// The delta bases start at 0 and follow the log's own events, so a reader
// walking from the first record reproduces every field bit for bit.

namespace {

constexpr std::uint8_t kEscape = 0xFF;
constexpr unsigned kNibbleLimit = 15;
/// Longest record: escaped header (3) + tag (1) + two 64-bit varints (10
/// each) + two 32-bit varints (5 each).
constexpr std::size_t kMaxRecordBytes = 3 + 1 + 10 + 10 + 5 + 5;

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

const std::uint8_t* get_varint(const std::uint8_t* p, std::uint64_t& v) {
  std::uint64_t out = 0;
  unsigned shift = 0;
  while ((*p & 0x80) != 0) {
    out |= static_cast<std::uint64_t>(*p++ & 0x7F) << shift;
    shift += 7;
  }
  v = out | static_cast<std::uint64_t>(*p++) << shift;
  return p;
}

std::uint64_t zigzag64(std::uint64_t d) { return (d << 1) ^ (0 - (d >> 63)); }
std::uint64_t unzigzag64(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }
std::uint64_t zigzag32(ProcessId p) {
  const auto u = static_cast<std::uint32_t>(p);
  return (u << 1) ^ (0U - (u >> 31));
}
ProcessId unzigzag32(std::uint64_t z) {
  const auto u = static_cast<std::uint32_t>(z);
  return static_cast<ProcessId>((u >> 1) ^ (0U - (u & 1)));
}

}  // namespace

void EventLog::open_block() {
  if (!blocks_.empty()) {
    blocks_.back().used = static_cast<std::size_t>(cursor_ - blocks_.back().data.get());
  }
  blocks_.push_back(Block{std::make_unique_for_overwrite<std::uint8_t[]>(kBlockBytes), 0});
  cursor_ = blocks_.back().data.get();
  limit_ = cursor_ + kBlockBytes;
}

void EventLog::append(const LoggedEvent& ev) {
  if (cap_ != 0 && size_ >= cap_) {
    truncated_ = true;
    ++dropped_;
    return;
  }
  if (static_cast<std::size_t>(limit_ - cursor_) < kMaxRecordBytes) open_block();
  std::uint8_t* p = cursor_;
  const auto kind = static_cast<std::uint8_t>(ev.kind);
  const auto layer = static_cast<std::uint8_t>(ev.layer);
  if (kind < kNibbleLimit && layer < kNibbleLimit) {
    *p++ = static_cast<std::uint8_t>(kind | layer << 4);
  } else {
    *p++ = kEscape;
    *p++ = kind;
    *p++ = layer;
  }
  *p++ = ev.payload;
  const std::uint64_t at_delta =
      static_cast<std::uint64_t>(ev.at) - static_cast<std::uint64_t>(prev_at_);
  p = put_varint(p, zigzag64(at_delta));
  p = put_varint(p, zigzag64(ev.seq - prev_seq_));
  p = put_varint(p, zigzag32(ev.from));
  p = put_varint(p, zigzag32(ev.to));
  bytes_ += static_cast<std::size_t>(p - cursor_);
  cursor_ = p;
  prev_at_ = ev.at;
  prev_seq_ = ev.seq;
  ++size_;
}

void EventLog::clear() {
  blocks_.clear();
  cursor_ = limit_ = nullptr;
  prev_at_ = 0;
  prev_seq_ = 0;
  size_ = 0;
  bytes_ = 0;
  truncated_ = false;
  dropped_ = 0;
}

std::size_t EventLog::count(LoggedEvent::Kind kind) const {
  std::size_t n = 0;
  for (const LoggedEvent& e : events()) {
    if (e.kind == kind) ++n;
  }
  return n;
}

EventLog::Iterator::Iterator(const EventLog* log, std::size_t left) : log_(log), left_(left) {
  if (left_ == 0) return;
  p_ = log_->blocks_.front().data.get();
  end_ = log_->block_end(0);
  decode();
}

void EventLog::Iterator::decode() {
  if (p_ == end_) {
    ++block_;
    p_ = log_->blocks_[block_].data.get();
    end_ = log_->block_end(block_);
  }
  const std::uint8_t* p = p_;
  std::uint8_t kind = *p & 0x0F;
  std::uint8_t layer = *p >> 4;
  ++p;
  if (kind == kNibbleLimit) {  // escape: both bytes follow raw
    kind = *p++;
    layer = *p++;
  }
  ev_.kind = static_cast<LoggedEvent::Kind>(kind);
  ev_.layer = static_cast<MsgLayer>(layer);
  ev_.payload = *p++;
  std::uint64_t v = 0;
  p = get_varint(p, v);
  ev_.at = static_cast<Time>(static_cast<std::uint64_t>(ev_.at) + unzigzag64(v));
  p = get_varint(p, v);
  ev_.seq += unzigzag64(v);
  p = get_varint(p, v);
  ev_.from = unzigzag32(v);
  p = get_varint(p, v);
  ev_.to = unzigzag32(v);
  p_ = p;
}

std::string LoggedEvent::describe() const {
  char buf[128];
  switch (kind) {
    case Kind::kSend:
      std::snprintf(buf, sizeof(buf), "t=%lld send    p%d -> p%d  %s",
                    static_cast<long long>(at), from, to, payload_name().c_str());
      break;
    case Kind::kDeliver:
      std::snprintf(buf, sizeof(buf), "t=%lld deliver p%d -> p%d  %s",
                    static_cast<long long>(at), from, to, payload_name().c_str());
      break;
    case Kind::kDrop:
      std::snprintf(buf, sizeof(buf), "t=%lld drop    p%d -> p%d  %s (recipient dead)",
                    static_cast<long long>(at), from, to, payload_name().c_str());
      break;
    case Kind::kTimer:
      std::snprintf(buf, sizeof(buf), "t=%lld timer   p%d", static_cast<long long>(at), from);
      break;
    case Kind::kCrash:
      std::snprintf(buf, sizeof(buf), "t=%lld CRASH   p%d", static_cast<long long>(at), from);
      break;
    case Kind::kLoss:
      std::snprintf(buf, sizeof(buf), "t=%lld LOSS    p%d -> p%d  %s (link fault)",
                    static_cast<long long>(at), from, to, payload_name().c_str());
      break;
    case Kind::kDuplicate:
      std::snprintf(buf, sizeof(buf), "t=%lld dup     p%d -> p%d  %s (adversary copy)",
                    static_cast<long long>(at), from, to, payload_name().c_str());
      break;
    case Kind::kPartitionLoss:
      std::snprintf(buf, sizeof(buf), "t=%lld CUT     p%d -> p%d  %s (partitioned)",
                    static_cast<long long>(at), from, to, payload_name().c_str());
      break;
    case Kind::kRecover:
      std::snprintf(buf, sizeof(buf), "t=%lld RECOVER p%d", static_cast<long long>(at),
                    from);
      break;
  }
  return buf;
}

std::string EventLog::describe() const {
  char buf[96];
  if (cap_ == 0) {
    std::snprintf(buf, sizeof(buf), "event log: %zu events (unbounded)", size_);
  } else {
    std::snprintf(buf, sizeof(buf), "event log: %zu events (cap %zu, %llu dropped)",
                  size_, cap_, static_cast<unsigned long long>(dropped_));
  }
  return buf;
}

}  // namespace ekbd::sim
