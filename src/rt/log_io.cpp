#include "rt/log_io.hpp"

#include <algorithm>

namespace ekbd::rt {

namespace codec = sim::codec;

// -- LogWriter -------------------------------------------------------------

LogWriter::LogWriter(const std::string& path) : file_(std::fopen(path.c_str(), "wb")) {}

LogWriter::~LogWriter() { close(); }

void LogWriter::close() {
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0) failed_ = true;
    file_ = nullptr;
  }
}

void LogWriter::write_frame(std::size_t frame_len) {
  if (file_ == nullptr || frame_len == 0) {
    failed_ = true;
    return;
  }
  if (std::fwrite(buf_, 1, frame_len, file_) != frame_len) {
    failed_ = true;
    return;
  }
  // Flush per record: a SIGKILL between dispatches must find everything
  // earlier already in the page cache (fflush hands the bytes to the
  // kernel; the process dying does not lose them — only a host crash
  // would, which is out of scope for the loopback engine).
  if (std::fflush(file_) != 0) failed_ = true;
}

void LogWriter::on_event(const sim::LoggedEvent& ev) {
  write_frame(codec::encode_event(ev, buf_, sizeof(buf_)));
}

void LogWriter::on_trace_event(const dining::TraceEvent& ev) {
  if (file_ == nullptr) {
    failed_ = true;
    return;
  }
  codec::Writer w(buf_ + codec::kHeaderSize, sizeof(buf_) - codec::kHeaderSize);
  w.i64(ev.at);
  w.i32(ev.process);
  w.u8(static_cast<std::uint8_t>(ev.kind));
  w.i32(ev.peer);
  write_frame(w.ok() ? codec::seal_frame(buf_, sizeof(buf_),
                                         static_cast<std::uint8_t>(codec::FrameKind::kTrace),
                                         w.size())
                     : 0);
}

void LogWriter::append_end_time(sim::Time t) {
  if (file_ == nullptr) {
    failed_ = true;
    return;
  }
  codec::Writer w(buf_ + codec::kHeaderSize, sizeof(buf_) - codec::kHeaderSize);
  w.i64(t);
  write_frame(w.ok() ? codec::seal_frame(buf_, sizeof(buf_),
                                         static_cast<std::uint8_t>(codec::FrameKind::kEndTime),
                                         w.size())
                     : 0);
}

// -- loading ---------------------------------------------------------------

Recording load_recording(const std::string& path) {
  Recording rec;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    rec.truncated = true;
    return rec;
  }
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.insert(data.end(), chunk, chunk + got);
  }
  std::fclose(f);

  std::size_t pos = 0;
  while (pos < data.size()) {
    std::uint8_t kind = 0;
    const std::uint8_t* body = nullptr;
    std::size_t body_len = 0;
    const codec::DecodeStatus st =
        codec::open_frame(data.data() + pos, data.size() - pos, kind, body, body_len);
    if (st != codec::DecodeStatus::kOk) {
      // A torn tail (the writer was killed mid-record) or corruption:
      // everything before this offset is intact and checksummed; stop.
      rec.truncated = true;
      break;
    }
    switch (static_cast<codec::FrameKind>(kind)) {
      case codec::FrameKind::kEvent: {
        sim::LoggedEvent ev;
        if (codec::decode_event(body, body_len, ev) != codec::DecodeStatus::kOk) {
          rec.truncated = true;
          return rec;
        }
        rec.events.push_back(ev);
        break;
      }
      case codec::FrameKind::kTrace: {
        codec::Reader r(body, body_len);
        dining::TraceEvent ev;
        ev.at = r.i64();
        ev.process = r.i32();
        const std::uint8_t k = r.u8();
        ev.peer = r.i32();
        if (!r.exhausted() ||
            k > static_cast<std::uint8_t>(dining::TraceEventKind::kEdgeRemoved)) {
          rec.truncated = true;
          return rec;
        }
        ev.kind = static_cast<dining::TraceEventKind>(k);
        rec.trace.push_back(ev);
        break;
      }
      case codec::FrameKind::kEndTime: {
        codec::Reader r(body, body_len);
        const sim::Time t = r.i64();
        if (!r.exhausted()) {
          rec.truncated = true;
          return rec;
        }
        rec.end_time = t;
        break;
      }
      default:
        // A frame kind this loader does not understand (e.g. a future
        // record type): framing-valid, so skip it rather than tear.
        break;
    }
    pos += codec::kHeaderSize + body_len;
  }
  return rec;
}

// -- merging ---------------------------------------------------------------

Recording merge_recordings(
    const std::vector<Recording>& parts,
    const std::vector<std::pair<sim::ProcessId, sim::Time>>& crashes) {
  Recording merged;
  for (const auto& p : parts) {
    merged.events.insert(merged.events.end(), p.events.begin(), p.events.end());
    merged.trace.insert(merged.trace.end(), p.trace.begin(), p.trace.end());
    merged.end_time = std::max(merged.end_time, p.end_time);
    merged.truncated = merged.truncated || p.truncated;
  }
  for (const auto& [p, at] : crashes) {
    merged.events.push_back({at, sim::LoggedEvent::Kind::kCrash, p, sim::kNoProcess,
                             sim::MsgLayer::kOther, 0, sim::kNoPayloadTag});
    merged.trace.push_back({at, p, dining::TraceEventKind::kCrashed});
  }
  // Stable: within equal timestamps each node's local order (already a
  // valid history) is preserved; cross-node causally ordered events carry
  // strictly increasing stamps under nanosecond ticks, so sorting by time
  // yields a linearization.
  std::stable_sort(merged.events.begin(), merged.events.end(),
                   [](const sim::LoggedEvent& a, const sim::LoggedEvent& b) {
                     return a.at < b.at;
                   });
  std::stable_sort(merged.trace.begin(), merged.trace.end(),
                   [](const dining::TraceEvent& a, const dining::TraceEvent& b) {
                     return a.at < b.at;
                   });
  for (const auto& ev : merged.events) merged.end_time = std::max(merged.end_time, ev.at);
  for (const auto& ev : merged.trace) merged.end_time = std::max(merged.end_time, ev.at);
  return merged;
}

// -- rebuild ---------------------------------------------------------------

void apply_event(const sim::LoggedEvent& ev, sim::Network& net,
                 std::vector<std::uint8_t>& crashed) {
  switch (ev.kind) {
    case sim::LoggedEvent::Kind::kSend:
    case sim::LoggedEvent::Kind::kDuplicate: {
      // Books the send on the pair/target ledgers and fires the attached
      // NetworkWatch (on_send + high-water) — identical to how the live
      // single-mutex recorder booked it.
      const auto to = static_cast<std::size_t>(ev.to);
      const bool to_crashed = ev.to >= 0 && to < crashed.size() && crashed[to] != 0;
      net.logical_sent(ev.from, ev.to, ev.layer, ev.at, to_crashed);
      break;
    }
    case sim::LoggedEvent::Kind::kDeliver:
    case sim::LoggedEvent::Kind::kDrop:
    case sim::LoggedEvent::Kind::kLoss:
    case sim::LoggedEvent::Kind::kPartitionLoss:
      net.logical_delivered(ev.from, ev.to, ev.layer);
      break;
    case sim::LoggedEvent::Kind::kCrash:
      if (ev.from >= 0) {
        const auto p = static_cast<std::size_t>(ev.from);
        if (p >= crashed.size()) crashed.resize(p + 1, 0);
        crashed[p] = 1;
      }
      break;
    case sim::LoggedEvent::Kind::kRecover:
      if (ev.from >= 0 && static_cast<std::size_t>(ev.from) < crashed.size()) {
        crashed[static_cast<std::size_t>(ev.from)] = 0;
      }
      break;
    case sim::LoggedEvent::Kind::kTimer:
      break;
  }
}

void rebuild(const Recording& rec, obs::MonitorHub& hub, sim::Network& net,
             dining::Trace& trace, sim::EventLog* log) {
  net.set_watch(&hub);
  std::vector<std::uint8_t> crashed;
  for (const auto& ev : rec.events) {
    if (log != nullptr) log->append(ev);
    hub.on_event(ev);
    apply_event(ev, net, crashed);
  }
  trace.set_observer(&hub);
  for (const auto& ev : rec.trace) trace.record(ev.at, ev.process, ev.kind, ev.peer);
  trace.set_observer(nullptr);
  if (rec.end_time >= 0) trace.set_end_time(rec.end_time);
  net.set_watch(nullptr);
}

}  // namespace ekbd::rt
