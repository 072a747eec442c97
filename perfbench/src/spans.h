#pragma once
// In-memory span recorder for the traced benchmark run. Spans are opened
// and closed on the benchmark's main thread around calls into one detstl
// layer; each carries its name, start, end and the span that was open when
// it began. All spans of one workload run share the run id. Nothing is
// written until the run ends (write_json), so recording costs two clock
// reads and one vector append per span.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder was created
  std::int64_t end_ns = 0;
  int parent = -1;            // index into spans(), -1 = root
};

class Tracer {
 public:
  /// A disabled tracer records nothing; Scope still measures elapsed time.
  Tracer(bool enabled, std::string run_id);

  bool enabled() const { return enabled_; }
  const std::string& run_id() const { return run_id_; }
  const std::vector<Span>& spans() const { return spans_; }

  int begin(std::string name);
  void end(int idx);

  /// Duration minus the time covered by the span's direct children.
  std::int64_t self_ns(std::size_t idx) const;

  /// One JSON object per line: run, id, name, parent, start/end/self in ns.
  void write_json(const std::string& path) const;
  /// Per-name total and self time, largest self time first.
  std::string summary() const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one layer call. Always times; records only when the
/// tracer is enabled.
class Scope {
 public:
  Scope(Tracer& t, std::string name) : t_(t), idx_(t.begin(std::move(name))) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Close early and return the elapsed seconds (idempotent).
  double close() {
    if (!closed_) {
      elapsed_ = seconds_since(t0_);
      t_.end(idx_);
      closed_ = true;
    }
    return elapsed_;
  }

 private:
  Tracer& t_;
  int idx_;
  Clock::time_point t0_ = Clock::now();
  bool closed_ = false;
  double elapsed_ = 0;
};

}  // namespace perfbench
