#pragma once
// In-memory event capture and byte-exact stream serialisation — the raw
// material of the determinism audit (trace/audit.h): two captured streams
// are "the same execution" iff their serialised bytes are identical.

#include <string>
#include <vector>

#include "common/bytes.h"
#include "trace/event.h"

namespace detstl::trace {

/// Buffers every event, optionally restricted to one core (bus events are
/// attributed to core = requester / 3 at the emit site).
class StreamCapture final : public EventSink {
 public:
  StreamCapture() = default;
  explicit StreamCapture(u8 only_core) : only_core_(only_core), filter_(true) {}

  void on_event(const Event& e) override {
    if (filter_ && e.core != only_core_) return;
    events_.push_back(e);
  }

  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
  u8 only_core_ = kNoCore;
  bool filter_ = false;
};

/// Size of one serialised event record.
inline constexpr std::size_t kEventRecordBytes = 24;

/// Appends `e` as one field-wise little-endian record (no struct padding
/// leaks): cycle 8 B, kind, core, unit, flags 1 B each, addr, a, b 4 B each.
inline void append_bytes(const Event& e, std::string& out) {
  out.resize(out.size() + kEventRecordBytes);
  u8* p = reinterpret_cast<u8*>(out.data() + out.size() - kEventRecordBytes);
  store_le(p, e.cycle, 8);
  p[8] = static_cast<u8>(e.kind);
  p[9] = e.core;
  p[10] = e.unit;
  p[11] = e.flags;
  store_le(p + 12, e.addr, 4);
  store_le(p + 16, e.a, 4);
  store_le(p + 20, e.b, 4);
}

/// Inverse of append_bytes: the event recorded at `p`.
inline Event decode_event(const u8* p) {
  return Event{.cycle = load64(p),
               .kind = static_cast<EventKind>(p[8]),
               .core = p[9],
               .unit = p[10],
               .flags = p[11],
               .addr = load32(p + 12),
               .a = load32(p + 16),
               .b = load32(p + 20)};
}

inline std::string serialize(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * kEventRecordBytes);
  for (const Event& e : events) append_bytes(e, out);
  return out;
}

}  // namespace detstl::trace
