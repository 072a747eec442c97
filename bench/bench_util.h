#pragma once
// Shared helpers for the table-reproduction binaries.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "cli_util.h"
#include "common/table.h"
#include "exp/experiments.h"
#include "perf/session.h"
#include "trace/chrome_trace.h"

namespace detstl::bench {

/// The flag groups a bench can honour. Each bench passes the groups it
/// acts on to parse_options(), which rejects every other flag.
enum FlagGroup : unsigned {
  kProgress = 1u << 0,  // --progress
  kTrace = 1u << 1,     // --trace FILE
  kMetrics = 1u << 2,   // --metrics-out FILE
  kCampaign = 1u << 3,  // --threads N (and DETSTL_THREADS), checkpoint/drain
};

/// Command-line options shared by the benches.
struct BenchOptions {
  std::string tool;         // argv[0]'s basename; prefixes diagnostics
  bool progress = false;    // --progress: live campaign progress on stderr
  std::string trace_path;   // --trace FILE: Chrome-trace JSON of the run
  // stlperf trajectory (src/perf/session.h, tools/stlperf.cpp).
  std::string metrics_out;  // --metrics-out FILE: BENCH_<name>.json
  /// --threads (default DETSTL_THREADS, 0 = all cores) and the crash-safe
  /// checkpoint/drain group, parsed and applied exactly like stlrun's; an
  /// interrupted bench exits 3 (resumable, tools/cli_util.h).
  cli::CampaignFlags campaign;
};

/// Environment-variable knob with a default (fault-sampling stride etc.),
/// parsed like a flag: exit 2 when malformed or outside [lo, hi].
inline unsigned env_unsigned(const BenchOptions& o, const char* name,
                             unsigned def, unsigned lo = 0, unsigned hi = ~0u) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return cli::require_unsigned(o.tool.c_str(), name, v, lo, hi);
}

/// Parse the flags of the `groups` (FlagGroup bits) the bench honours. Any
/// other flag, including one of a group the bench does not act on, is a
/// usage error: exit 2 with the bench's own usage line.
inline BenchOptions parse_options(int argc, char** argv, unsigned groups) {
  BenchOptions o;
  const std::string arg0 = argv[0];
  o.tool = arg0.substr(arg0.find_last_of('/') + 1);
  const auto has = [&](FlagGroup g) { return (groups & g) != 0; };
  if (has(kCampaign))
    o.campaign.threads = env_unsigned(o, "DETSTL_THREADS", 0, 0, 256);
  cli::Args args(o.tool.c_str(), argc - 1, argv + 1);
  while (args.next()) {
    if (has(kProgress) && args.is("--progress")) {
      o.progress = true;
    } else if (has(kTrace) && args.is("--trace")) {
      o.trace_path = args.value();
    } else if (has(kMetrics) && args.is("--metrics-out")) {
      o.metrics_out = args.value();
    } else if (!has(kCampaign) || !o.campaign.parse(args)) {
      std::fprintf(stderr, "%s: unknown option '%s'\nusage: %s%s%s%s%s%s\n",
                   o.tool.c_str(), args.flag().c_str(), o.tool.c_str(),
                   has(kProgress) ? " [--progress]" : "",
                   has(kCampaign) ? " [--threads N]" : "",
                   has(kTrace) ? " [--trace FILE]" : "",
                   has(kMetrics) ? " [--metrics-out FILE]" : "",
                   has(kCampaign)
                       ? "\n          [--timeout SEC] [--checkpoint-dir DIR "
                         "[--checkpoint-interval N]\n           [--resume] "
                         "[--no-fsync] [--interrupt-after N]]"
                       : "");
      std::exit(cli::kExitUsage);
    }
  }
  if (!o.campaign.valid(o.tool.c_str()) || !cli::output_writable(o.trace_path) ||
      !cli::output_writable(o.metrics_out))
    std::exit(cli::kExitUsage);
  return o;
}

/// A Chrome-trace writer when --trace was given, else null (tracing off).
inline std::unique_ptr<trace::ChromeTraceWriter> make_trace_writer(
    const BenchOptions& o) {
  if (o.trace_path.empty()) return nullptr;
  return std::make_unique<trace::ChromeTraceWriter>();
}

/// Flush the collected events to the --trace file (no-op without writer).
inline void finish_trace(const BenchOptions& o,
                         const std::unique_ptr<trace::ChromeTraceWriter>& w) {
  if (w == nullptr) return;
  if (!w->write_file(o.trace_path)) {
    std::fprintf(stderr, "error: cannot write trace file %s\n",
                 o.trace_path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "trace written to %s (%zu events)\n", o.trace_path.c_str(),
               w->size());
}

/// Renders campaign progress as a single in-place line on stderr:
///   [detection] 1732/4632 | excited 1208 | detected 977 | 12.4s eta 21.0s | w: 49/51%
inline void print_progress(const fault::CampaignProgress& p) {
  std::string workers;
  u64 sum = 0;
  for (u64 d : p.worker_done) sum += d;
  if (p.worker_done.size() > 1 && sum > 0) {
    workers = " | w:";
    const std::size_t shown = p.worker_done.size() < 8 ? p.worker_done.size() : 8;
    for (std::size_t w = 0; w < shown; ++w) {
      workers += w == 0 ? " " : "/";
      workers += std::to_string(100 * p.worker_done[w] / sum) + "%";
    }
    if (shown < p.worker_done.size()) workers += "/...";
  }
  std::fprintf(stderr, "\r[%-9s] %llu/%llu | excited %llu | detected %llu | %.1fs",
               fault::phase_name(p.phase),
               static_cast<unsigned long long>(p.done),
               static_cast<unsigned long long>(p.total),
               static_cast<unsigned long long>(p.excited),
               static_cast<unsigned long long>(p.detected), p.elapsed_s);
  if (p.eta_s > 0) std::fprintf(stderr, " eta %.1fs", p.eta_s);
  std::fprintf(stderr, "%s\033[K", workers.c_str());
  if (p.total != 0 && p.done >= p.total) std::fputc('\n', stderr);
  std::fflush(stderr);
}

/// ExecOptions for the table drivers: threads, journal and drain from the
/// campaign flags, progress + per-scenario narration when --progress was
/// given, events into `sink` when --trace was given.
inline exp::ExecOptions exec_options(const BenchOptions& o,
                                     trace::EventSink* sink = nullptr) {
  exp::ExecOptions e;
  o.campaign.apply(e);
  e.sink = sink;
  if (o.progress) {
    e.progress = print_progress;
    e.log = [](const std::string& line) {
      std::fprintf(stderr, "\r%s\033[K\n", line.c_str());
    };
  }
  return e;
}

/// Run a table driver under the exit-code contract (tools/cli_util.h): a
/// cooperative drain exits 3 (interrupted but resumable — the journalled
/// prefix is intact), a checkpoint rejected on config/netlist/image mismatch
/// exits 2 (usage/setup error).
template <typename Fn>
auto run_resumable(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const fault::Interrupted& e) {
    std::fprintf(stderr, "\ninterrupted but resumable: %s\n", e.what());
    std::exit(3);
  } catch (const fault::CheckpointMismatch& e) {
    std::fprintf(stderr, "checkpoint rejected: %s\n", e.what());
    std::exit(2);
  }
}

inline void print_header(const char* exhibit, const char* paper_numbers) {
  std::printf("==============================================================\n");
  std::printf("Reproduction of %s\n", exhibit);
  std::printf("Paper reference values: %s\n", paper_numbers);
  std::printf("(absolute values differ — simulated SoC and scaled fault\n");
  std::printf(" lists; the reproduced quantity is the SHAPE, see DESIGN.md)\n");
  std::printf("==============================================================\n");
}

}  // namespace detstl::bench
