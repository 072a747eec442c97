#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  const int idx = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_ns(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(idx);
  return idx;
}

void Tracer::end(int idx) {
  if (idx < 0) return;
  if (open_.empty() || open_.back() != idx)
    throw std::logic_error("perfbench: spans must close in LIFO order");
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  open_.pop_back();
}

std::int64_t Tracer::self_ns(std::size_t idx) const {
  const Span& s = spans_[idx];
  std::int64_t covered = 0;
  // Children always follow their parent in recording order.
  for (std::size_t j = idx + 1; j < spans_.size() && spans_[j].start_ns < s.end_ns; ++j)
    if (spans_[j].parent == static_cast<int>(idx))
      covered += spans_[j].end_ns - spans_[j].start_ns;
  return s.end_ns - s.start_ns - covered;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"run\":\"" << run_id_ << "\",\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self_ns(i) << "}\n";
  }
  if (!out) throw std::runtime_error("perfbench: short write to " + path);
}

std::string Tracer::summary() const {
  struct Agg {
    std::int64_t total = 0, self = 0;
    unsigned count = 0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Agg& a = by_name[spans_[i].name];
    a.total += spans_[i].end_ns - spans_[i].start_ns;
    a.self += self_ns(i);
    ++a.count;
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& x, const auto& y) { return x.second.self > y.second.self; });
  std::string out = "span                                      count    total_s     self_s\n";
  char buf[160];
  for (const auto& [name, a] : rows) {
    std::snprintf(buf, sizeof buf, "%-40s %6u %10.4f %10.4f\n", name.c_str(), a.count,
                  static_cast<double>(a.total) * 1e-9, static_cast<double>(a.self) * 1e-9);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
