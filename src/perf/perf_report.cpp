#include "perf/perf_report.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json_escape.h"
#include "common/table.h"
#include "common/version.h"
#include "perf/json.h"

namespace detstl::perf {

namespace {

std::string hex64(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_fixed6(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

void emit_metric(std::string& out, const std::string& indent,
                 const std::string& name, const std::string& labels,
                 const Metric& m) {
  out += indent + "{\"name\": \"" + json_escape(name) + "\", \"labels\": \"" +
         json_escape(labels) + "\", \"kind\": \"" + metric_kind_name(m.kind) +
         "\", ";
  switch (m.kind) {
    case MetricKind::kCounter:
      out += "\"value\": " + std::to_string(m.counter);
      break;
    case MetricKind::kGauge:
      out += "\"value\": " + fmt_double(m.gauge);
      break;
    case MetricKind::kHistogram: {
      out += "\"bounds\": [";
      for (std::size_t i = 0; i < m.hist.bounds.size(); ++i)
        out += (i ? ", " : "") + std::to_string(m.hist.bounds[i]);
      out += "], \"counts\": [";
      for (std::size_t i = 0; i < m.hist.counts.size(); ++i)
        out += (i ? ", " : "") + std::to_string(m.hist.counts[i]);
      out += "], \"total\": " + std::to_string(m.hist.total) +
             ", \"sum\": " + std::to_string(m.hist.sum);
      break;
    }
  }
  out += "}";
}

void emit_metric_list(std::string& out, const Registry& metrics,
                      MetricSource which, const std::string& indent) {
  bool first = true;
  metrics.visit([&](const std::string& name, const std::string& labels,
                    const Metric& m) {
    if (m.source != which) return;
    out += first ? "\n" : ",\n";
    first = false;
    emit_metric(out, indent, name, labels, m);
  });
  if (!first) out += "\n" + indent.substr(2);
}

}  // namespace

std::string sim_canonical(const PerfReport& rep) {
  std::string out;
  out += "{\n";
  out += "    \"cycles\": " + std::to_string(rep.sim_cycles) + ",\n";
  out += "    \"units\": " + std::to_string(rep.sim_units) + ",\n";
  out += "    \"fingerprint\": \"" + hex64(rep.metrics.sim_fingerprint()) + "\",\n";
  out += "    \"phases\": [";
  for (std::size_t i = 0; i < rep.phases.size(); ++i) {
    const PhaseStats& p = rep.phases[i];
    out += (i ? ",\n" : "\n");
    out += "      {\"name\": \"" + json_escape(p.name) +
           "\", \"cycles\": " + std::to_string(p.sim_cycles) +
           ", \"units\": " + std::to_string(p.units) + "}";
  }
  out += rep.phases.empty() ? "],\n" : "\n    ],\n";
  out += "    \"metrics\": [";
  emit_metric_list(out, rep.metrics, MetricSource::kSim, "      ");
  out += "]\n";
  out += "  }";
  return out;
}

std::string to_json(const PerfReport& rep) {
  std::string out;
  out += "{\n";
  out += "  \"stlperf_schema\": " + std::to_string(rep.schema) + ",\n";
  out += "  \"name\": \"" + json_escape(rep.name) + "\",\n";
  out += "  \"detstl_version\": \"" +
         json_escape(rep.detstl_version.empty() ? kDetstlVersion
                                                 : rep.detstl_version) +
         "\",\n";
  out += "  \"config_hash\": \"" + hex64(rep.config_hash) + "\",\n";
  out += "  \"sim\": " + sim_canonical(rep) + ",\n";
  out += "  \"host\": {\n";
  out += "    \"wall_s\": " + fmt_fixed6(rep.wall_s) + ",\n";
  out += "    \"cpu_s\": " + fmt_fixed6(rep.cpu_s) + ",\n";
  out += "    \"peak_rss_kb\": " + std::to_string(rep.peak_rss_kb) + ",\n";
  out += "    \"sim_mhz\": " + fmt_fixed6(rep.sim_mhz()) + ",\n";
  out += "    \"phases\": [";
  for (std::size_t i = 0; i < rep.phases.size(); ++i) {
    out += (i ? ",\n" : "\n");
    out += "      {\"name\": \"" + json_escape(rep.phases[i].name) +
           "\", \"wall_s\": " + fmt_fixed6(rep.phases[i].wall_s) + "}";
  }
  out += rep.phases.empty() ? "],\n" : "\n    ],\n";
  out += "    \"metrics\": [";
  emit_metric_list(out, rep.metrics, MetricSource::kHost, "      ");
  out += "]\n";
  out += "  }\n";
  out += "}\n";
  return out;
}

namespace {

/// Reads `v` into `out` when it is a count: a plain non-negative decimal
/// integer that fits in 64 bits. Otherwise stores why `what` is malformed.
bool read_count(const json::Value& v, const std::string& what, u64& out,
                std::string* err) {
  if (const std::optional<u64> n = v.as_u64()) {
    out = *n;
    return true;
  }
  if (err != nullptr && err->empty())
    *err = "malformed " + what + (v.is_number() ? " " + v.raw : "") +
           " (expected a non-negative integer)";
  return false;
}

/// Reads a "0x"-prefixed hex hash that fits in 64 bits into `out`.
bool read_hash(const std::string& text, u64& out) {
  if (!text.starts_with("0x")) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data() + 2, end, out, 16);
  return ec == std::errc{} && ptr == end;
}

bool parse_metric_list(const json::Value& list, MetricSource source,
                       Registry& reg, std::string* err) {
  const auto fail = [err](const std::string& why) {
    if (err != nullptr && err->empty()) *err = why;
    return false;
  };
  if (!list.is_array()) return fail("metrics is not an array");
  for (const json::Value& e : list.arr) {
    const json::Value* name = e.find("name");
    const json::Value* labels = e.find("labels");
    const json::Value* kind = e.find("kind");
    if (name == nullptr || labels == nullptr || kind == nullptr ||
        !name->is_string() || !labels->is_string() || !kind->is_string())
      return fail("metric entry missing name/labels/kind");
    if (kind->str == "counter") {
      const json::Value* v = e.find("value");
      if (v == nullptr || !v->is_number()) return fail("counter without value");
      u64 n = 0;
      if (!read_count(*v, "counter " + name->str, n, err)) return false;
      reg.set_counter(name->str, labels->str, n, source);
    } else if (kind->str == "gauge") {
      const json::Value* v = e.find("value");
      if (v == nullptr || !v->is_number()) return fail("gauge without value");
      reg.set_gauge(name->str, labels->str, v->as_double(), source);
    } else if (kind->str == "histogram") {
      const json::Value* bounds = e.find("bounds");
      const json::Value* counts = e.find("counts");
      if (bounds == nullptr || counts == nullptr || !bounds->is_array() ||
          !counts->is_array() || counts->arr.size() != bounds->arr.size() + 1)
        return fail("histogram with inconsistent bounds/counts");
      const json::Value* total = e.find("total");
      const json::Value* sum = e.find("sum");
      if (total == nullptr || sum == nullptr)
        return fail("histogram without totals");
      HistogramData h;
      const std::string what = "histogram " + name->str;
      h.bounds.resize(bounds->arr.size());
      h.counts.resize(counts->arr.size());
      for (std::size_t i = 0; i < h.bounds.size(); ++i)
        if (!read_count(bounds->arr[i], what + " bound", h.bounds[i], err)) return false;
      u64 count_sum = 0;
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        if (!read_count(counts->arr[i], what + " count", h.counts[i], err)) return false;
        count_sum += h.counts[i];
      }
      if (!read_count(*total, what + " total", h.total, err) ||
          !read_count(*sum, what + " sum", h.sum, err))
        return false;
      if (count_sum != h.total) return fail("histogram counts/total mismatch");
      reg.set_histogram(name->str, labels->str, std::move(h), source);
    } else {
      return fail("unknown metric kind '" + kind->str + "'");
    }
  }
  return true;
}

}  // namespace

bool from_json(const std::string& text, PerfReport& out, std::string* err) {
  const auto fail = [err](const std::string& why) {
    if (err != nullptr && err->empty()) *err = why;
    return false;
  };
  json::Value root;
  if (!json::parse(text, root, err)) return false;
  if (!root.is_object()) return fail("document is not an object");

  const json::Value* schema = root.find("stlperf_schema");
  if (schema == nullptr || !schema->is_number())
    return fail("missing stlperf_schema");
  if (schema->as_u64() != kPerfSchemaVersion)
    return fail("unsupported stlperf_schema " + schema->raw + " (expected " +
                std::to_string(kPerfSchemaVersion) + ")");

  PerfReport rep;
  rep.schema = kPerfSchemaVersion;
  const json::Value* name = root.find("name");
  if (name == nullptr || !name->is_string()) return fail("missing name");
  rep.name = name->str;
  if (const json::Value* v = root.find("detstl_version"); v != nullptr)
    rep.detstl_version = v->str;
  if (const json::Value* v = root.find("config_hash"); v != nullptr) {
    if (!v->is_string() || !read_hash(v->str, rep.config_hash))
      return fail("malformed config_hash (expected \"0x\" and 64-bit hex)");
  }

  const json::Value* sim = root.find("sim");
  const json::Value* host = root.find("host");
  if (sim == nullptr || !sim->is_object()) return fail("missing sim object");
  if (host == nullptr || !host->is_object()) return fail("missing host object");

  const json::Value* cycles = sim->find("cycles");
  if (cycles == nullptr) return fail("missing sim.cycles");
  if (!read_count(*cycles, "sim.cycles", rep.sim_cycles, err)) return false;
  if (const json::Value* v = sim->find("units");
      v != nullptr && !read_count(*v, "sim.units", rep.sim_units, err))
    return false;
  if (const json::Value* v = sim->find("phases"); v != nullptr && v->is_array()) {
    for (const json::Value& p : v->arr) {
      PhaseStats ps;
      if (const json::Value* n = p.find("name"); n != nullptr) ps.name = n->str;
      if (const json::Value* c = p.find("cycles");
          c != nullptr && !read_count(*c, "phase cycles", ps.sim_cycles, err))
        return false;
      if (const json::Value* u = p.find("units");
          u != nullptr && !read_count(*u, "phase units", ps.units, err))
        return false;
      rep.phases.push_back(std::move(ps));
    }
  }
  if (const json::Value* v = sim->find("metrics"); v != nullptr) {
    if (!parse_metric_list(*v, MetricSource::kSim, rep.metrics, err)) return false;
  }

  if (const json::Value* v = host->find("wall_s"); v != nullptr)
    rep.wall_s = v->as_double();
  if (const json::Value* v = host->find("cpu_s"); v != nullptr)
    rep.cpu_s = v->as_double();
  if (const json::Value* v = host->find("peak_rss_kb"); v != nullptr) {
    u64 kb = 0;
    if (!read_count(*v, "host.peak_rss_kb", kb, err)) return false;
    rep.peak_rss_kb = static_cast<long>(kb);
  }
  if (const json::Value* v = host->find("phases"); v != nullptr && v->is_array()) {
    for (std::size_t i = 0; i < v->arr.size() && i < rep.phases.size(); ++i)
      if (const json::Value* w = v->arr[i].find("wall_s"); w != nullptr)
        rep.phases[i].wall_s = w->as_double();
  }
  if (const json::Value* v = host->find("metrics"); v != nullptr) {
    if (!parse_metric_list(*v, MetricSource::kHost, rep.metrics, err))
      return false;
  }
  out = std::move(rep);
  return true;
}

bool write_report_file(const std::string& path, const PerfReport& rep) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << to_json(rep);
  return static_cast<bool>(f.flush());
}

bool load_report_file(const std::string& path, PerfReport& out, std::string* err) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return from_json(ss.str(), out, err);
}

std::string render_report(const PerfReport& rep) {
  TextTable t("stlperf report: " + rep.name);
  t.header({"field", "value"});
  t.row({"schema", std::to_string(rep.schema)});
  t.row({"producer", "detstl " + rep.detstl_version});
  t.row({"config hash", hex64(rep.config_hash)});
  t.row({"sim cycles", TextTable::fmt_int(static_cast<long long>(rep.sim_cycles))});
  t.row({"sim units", TextTable::fmt_int(static_cast<long long>(rep.sim_units))});
  t.row({"sim fingerprint", hex64(rep.metrics.sim_fingerprint())});
  t.row({"wall-clock [s]", TextTable::fmt_fixed(rep.wall_s, 3)});
  t.row({"CPU time [s]", TextTable::fmt_fixed(rep.cpu_s, 3)});
  t.row({"peak RSS [KiB]", TextTable::fmt_int(rep.peak_rss_kb)});
  t.row({"sim-MHz", TextTable::fmt_fixed(rep.sim_mhz(), 3)});
  std::string out = t.str();

  if (!rep.phases.empty()) {
    TextTable pt("phases");
    pt.header({"phase", "sim cycles", "units", "wall [s]", "sim-MHz"});
    for (const PhaseStats& p : rep.phases) {
      pt.row({p.name, TextTable::fmt_int(static_cast<long long>(p.sim_cycles)),
              TextTable::fmt_int(static_cast<long long>(p.units)),
              TextTable::fmt_fixed(p.wall_s, 3),
              TextTable::fmt_fixed(
                  p.wall_s > 0
                      ? static_cast<double>(p.sim_cycles) / p.wall_s / 1e6
                      : 0.0,
                  3)});
    }
    out += pt.str();
  }
  if (!rep.metrics.empty()) out += rep.metrics.render();
  return out;
}

CompareOutcome compare_reports(const PerfReport& baseline,
                               const PerfReport& current) {
  CompareOutcome c;
  c.baseline_mhz = baseline.sim_mhz();
  c.current_mhz = current.sim_mhz();
  if (baseline.schema != current.schema) {
    c.notes.push_back("schema mismatch: baseline " +
                      std::to_string(baseline.schema) + " vs current " +
                      std::to_string(current.schema));
    return c;
  }
  if (baseline.name != current.name) {
    c.notes.push_back("bench name mismatch: '" + baseline.name + "' vs '" +
                      current.name + "'");
    return c;
  }
  c.comparable = true;
  if (baseline.config_hash != current.config_hash) {
    c.config_changed = true;
    c.notes.push_back(
        "config hash changed (" + hex64(baseline.config_hash) + " -> " +
        hex64(current.config_hash) +
        "): workloads differ, sim-MHz comparison is indicative only");
  }
  c.sim_identical = sim_canonical(baseline) == sim_canonical(current);
  if (c.baseline_mhz > 0.0)
    c.regression_pct =
        100.0 * (c.baseline_mhz - c.current_mhz) / c.baseline_mhz;
  return c;
}

std::string render_diff(const PerfReport& baseline, const PerfReport& current,
                        const CompareOutcome& cmp, double threshold_pct) {
  TextTable t("stlperf diff: " + baseline.name);
  t.header({"field", "baseline", "current", "delta"});
  const auto pct = [](double from, double to) {
    if (from == 0.0) return std::string("n/a");
    const double d = 100.0 * (to - from) / from;
    return (d >= 0 ? "+" : "") + TextTable::fmt_fixed(d, 1) + "%";
  };
  t.row({"sim-MHz", TextTable::fmt_fixed(cmp.baseline_mhz, 3),
         TextTable::fmt_fixed(cmp.current_mhz, 3),
         pct(cmp.baseline_mhz, cmp.current_mhz)});
  t.row({"wall-clock [s]", TextTable::fmt_fixed(baseline.wall_s, 3),
         TextTable::fmt_fixed(current.wall_s, 3),
         pct(baseline.wall_s, current.wall_s)});
  t.row({"sim cycles",
         TextTable::fmt_int(static_cast<long long>(baseline.sim_cycles)),
         TextTable::fmt_int(static_cast<long long>(current.sim_cycles)),
         baseline.sim_cycles == current.sim_cycles ? "=" : "!="});
  t.row({"peak RSS [KiB]", TextTable::fmt_int(baseline.peak_rss_kb),
         TextTable::fmt_int(current.peak_rss_kb),
         pct(static_cast<double>(baseline.peak_rss_kb),
             static_cast<double>(current.peak_rss_kb))});
  t.row({"sim subtree", "-", "-",
         cmp.sim_identical ? "byte-identical" : "DIVERGED"});
  std::string out = t.str();
  for (const std::string& n : cmp.notes) out += "note: " + n + "\n";
  if (!cmp.comparable) {
    out += "stlperf: NOT COMPARABLE\n";
  } else if (cmp.determinism_break()) {
    out += "stlperf: DETERMINISM BREAK — sim subtree diverged under the same "
           "config hash (not a performance change)\n";
  } else if (cmp.regressed(threshold_pct)) {
    out += "stlperf: REGRESSION — sim-MHz dropped " +
           TextTable::fmt_fixed(cmp.regression_pct, 1) + "% (threshold " +
           TextTable::fmt_fixed(threshold_pct, 1) + "%)\n";
  } else {
    out += "stlperf: OK — sim-MHz delta " +
           pct(cmp.baseline_mhz, cmp.current_mhz) + " (allowed drop " +
           TextTable::fmt_fixed(threshold_pct, 1) + "%)\n";
  }
  return out;
}

}  // namespace detstl::perf
