#pragma once
// Chrome-trace-format (Trace Event Format) JSON writer: buffers events and
// serialises them so Perfetto / chrome://tracing render one named track per
// core plus one per bus requester (and one for the fault campaign). Wrapper
// phases become duration (B/E) slices, bus occupancy becomes complete (X)
// slices with wait/occupancy args, everything else instants.
//
// Timestamps map 1 cycle -> 1 "microsecond" tick; the absolute unit is
// meaningless, only relative extent matters (docs/observability.md).

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/event.h"

namespace detstl::trace {

class ChromeTraceWriter final : public EventSink {
 public:
  void on_event(const Event& e) override { events_.push_back(e); }

  std::size_t size() const { return events_.size(); }
  const std::vector<Event>& events() const { return events_; }

  /// Per-cycle cache hits and bus data beats dominate the event volume of a
  /// cache-resident run; both are dropped from the JSON unless requested
  /// (they are still captured and still count in PhaseMetrics).
  void set_include_hits(bool on) { include_hits_ = on; }
  void set_include_beats(bool on) { include_beats_ = on; }

  /// Serialise everything captured so far as a Chrome trace JSON object.
  void write(std::ostream& os) const;

  /// Convenience: write to `path`; false (with errno intact) on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::vector<Event> events_;
  bool include_hits_ = false;
  bool include_beats_ = false;
};

}  // namespace detstl::trace
