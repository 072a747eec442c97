#include "perf/metrics.h"

#include <algorithm>
#include <cassert>

#include "common/bytes.h"
#include "common/table.h"

namespace detstl::perf {

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const char* metric_source_name(MetricSource s) {
  switch (s) {
    case MetricSource::kSim: return "sim";
    case MetricSource::kHost: return "host";
  }
  return "?";
}

void HistogramData::record(u64 value) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  counts[static_cast<std::size_t>(it - bounds.begin())] += 1;
  ++total;
  sum += value;
}

namespace {

Metric& upsert(std::map<std::pair<std::string, std::string>, Metric>& series,
               const std::string& name, const std::string& labels,
               MetricKind kind, MetricSource source) {
  Metric& m = series[{name, labels}];
  // First writer fixes kind and source; a series cannot change type later.
  if (m.counter == 0 && m.gauge == 0.0 && m.hist.total == 0 &&
      m.hist.bounds.empty()) {
    m.kind = kind;
    m.source = source;
  }
  assert(m.kind == kind && "metric series re-registered with another kind");
  return m;
}

}  // namespace

void Registry::add_counter(const std::string& name, const std::string& labels,
                           u64 delta, MetricSource source) {
  upsert(series_, name, labels, MetricKind::kCounter, source).counter += delta;
}

void Registry::set_counter(const std::string& name, const std::string& labels,
                           u64 value, MetricSource source) {
  upsert(series_, name, labels, MetricKind::kCounter, source).counter = value;
}

void Registry::set_gauge(const std::string& name, const std::string& labels,
                         double value, MetricSource source) {
  upsert(series_, name, labels, MetricKind::kGauge, source).gauge = value;
}

void Registry::record_hist(const std::string& name, const std::string& labels,
                           const std::vector<u64>& bounds, u64 value,
                           MetricSource source) {
  Metric& m = upsert(series_, name, labels, MetricKind::kHistogram, source);
  if (m.hist.bounds.empty()) {
    m.hist.bounds = bounds;
    m.hist.counts.assign(bounds.size() + 1, 0);
  }
  assert(m.hist.bounds == bounds && "histogram bucket layout changed");
  m.hist.record(value);
}

void Registry::set_histogram(const std::string& name, const std::string& labels,
                             HistogramData hist, MetricSource source) {
  Metric& m = upsert(series_, name, labels, MetricKind::kHistogram, source);
  m.hist = std::move(hist);
}

void Registry::visit(const std::function<void(const std::string&,
                                              const std::string&,
                                              const Metric&)>& fn) const {
  for (const auto& [key, m] : series_) fn(key.first, key.second, m);
}

const Metric* Registry::find(const std::string& name,
                             const std::string& labels) const {
  const auto it = series_.find({name, labels});
  return it == series_.end() ? nullptr : &it->second;
}

u64 Registry::sim_fingerprint() const {
  u64 h = kFnvOffset;
  const auto mix_bytes = [&h](const void* p, std::size_t n) {
    h = fnv1a(p, n, h);
  };
  const auto mix_u64 = [&mix_bytes](u64 v) {
    u8 le[8];
    store_le(le, v, 8);
    mix_bytes(le, 8);
  };
  for (const auto& [key, m] : series_) {
    if (m.source != MetricSource::kSim) continue;
    mix_bytes(key.first.data(), key.first.size());
    mix_bytes(key.second.data(), key.second.size());
    mix_u64(static_cast<u64>(m.kind));
    switch (m.kind) {
      case MetricKind::kCounter:
        mix_u64(m.counter);
        break;
      case MetricKind::kGauge:
        // Gauges are host-side by convention; a sim gauge hashes its bits.
        static_assert(sizeof(double) == 8);
        u64 bits;
        __builtin_memcpy(&bits, &m.gauge, 8);
        mix_u64(bits);
        break;
      case MetricKind::kHistogram:
        for (const u64 b : m.hist.bounds) mix_u64(b);
        for (const u64 c : m.hist.counts) mix_u64(c);
        mix_u64(m.hist.total);
        mix_u64(m.hist.sum);
        break;
    }
  }
  return h;
}

std::string Registry::render(const std::string& title) const {
  TextTable t(title);
  t.header({"metric", "labels", "src", "value"});
  for (const auto& [key, m] : series_) {
    std::string value;
    switch (m.kind) {
      case MetricKind::kCounter:
        value = TextTable::fmt_int(static_cast<long long>(m.counter));
        break;
      case MetricKind::kGauge:
        value = TextTable::fmt_fixed(m.gauge, 3);
        break;
      case MetricKind::kHistogram:
        value = TextTable::fmt_int(static_cast<long long>(m.hist.total)) +
                " samples, sum " +
                TextTable::fmt_int(static_cast<long long>(m.hist.sum));
        break;
    }
    t.row({key.first, key.second, metric_source_name(m.source), value});
  }
  return t.str();
}

}  // namespace detstl::perf
