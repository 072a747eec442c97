#pragma once
// The command-line front end shared by the detstl tools and benches: strict
// numeric parsing (common/parse.h; malformed or out-of-range values are
// usage errors — reported on stderr with exit code 2 — never silently
// clamped, wrapped or ignored), an argument cursor, the up-front probe of
// output paths, and the one parse-and-apply of --threads plus the
// checkpoint/drain group that stlrun's unit campaigns and every bench share.
//
// Exit-code contract (all tools and table benches):
//   0  completed successfully
//   1  ran to completion but failed (determinism violation, lint finding,
//      shape mismatch, ...)
//   2  usage error (unknown option, malformed value, unwritable output
//      path, config-hash mismatch against an existing checkpoint)
//   3  interrupted but RESUMABLE: a cooperative drain (SIGINT/SIGTERM or a
//      --interrupt-after drill) stopped the run after flushing a final
//      checkpoint shard; re-run with --resume to continue.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/version.h"
#include "fault/checkpoint.h"

namespace detstl::cli {

inline constexpr int kExitSuccess = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInterrupted = 3;  // resumable; see contract above

/// `<tool> --version`: suite version plus the on-disk checkpoint schema the
/// binary reads and writes (fault/checkpoint.h).
inline void print_version(const char* tool) {
  std::printf("%s (detstl %s, checkpoint schema %u)\n", tool,
              detstl::kDetstlVersion, fault::kCheckpointSchemaVersion);
}

/// For a command that takes no arguments (argv[1] of `argc`): true when none
/// follow it; otherwise names the first extra one on stderr and returns
/// false, so the caller prints its usage and exits 2.
inline bool no_arguments(const char* tool, int argc, char** argv) {
  if (argc <= 2) return true;
  std::fprintf(stderr, "%s: %s takes no arguments, got '%s'\n", tool, argv[1],
               argv[2]);
  return false;
}

/// Probe an output path before a run that may take minutes: create (or
/// truncate) the file, so an unwritable destination fails up front, not after
/// the run. An empty path (no output asked for) passes. False after naming
/// the path on stderr; the caller exits 2 with nothing on stdout.
inline bool output_writable(const std::string& path) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open output file %s for writing\n",
                 path.c_str());
    return false;
  }
  std::fclose(f);
  return true;
}

/// Parse a decimal (or 0x-prefixed hex) unsigned integer in [lo, hi]
/// strictly (common/parse.h), or exit(2) with a diagnostic naming the tool
/// and the option.
inline unsigned long long require_u64(const char* tool, const char* opt,
                                      const std::string& text,
                                      unsigned long long lo,
                                      unsigned long long hi) {
  u64 v = 0;
  if (!parse_u64(text, 0, v) || v < lo || v > hi) {
    std::fprintf(stderr, "%s: %s expects an integer in [%llu, %llu], got '%s'\n",
                 tool, opt, lo, hi, text.c_str());
    std::exit(2);
  }
  return v;
}

inline unsigned require_unsigned(const char* tool, const char* opt,
                                 const std::string& text, unsigned lo,
                                 unsigned hi) {
  return static_cast<unsigned>(require_u64(tool, opt, text, lo, hi));
}

/// Comma-separated list of integers, each in [lo, hi]; empty list or any
/// malformed entry is a usage error.
inline std::vector<unsigned> require_unsigned_list(const char* tool,
                                                   const char* opt,
                                                   const std::string& text,
                                                   unsigned lo, unsigned hi) {
  std::vector<unsigned> out;
  std::size_t p = 0;
  while (p <= text.size()) {
    const std::size_t comma = text.find(',', p);
    const std::string item =
        text.substr(p, comma == std::string::npos ? std::string::npos : comma - p);
    out.push_back(require_unsigned(tool, opt, item, lo, hi));
    if (comma == std::string::npos) break;
    p = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "%s: %s expects a comma-separated integer list\n", tool,
                 opt);
    std::exit(2);
  }
  return out;
}

/// Cursor over a command's arguments: the current flag and, on request, its
/// value, parsed strictly (exit 2 naming the flag when absent or malformed).
class Args {
 public:
  Args(const char* tool, int argc, char** argv)
      : tool_(tool), argc_(argc), argv_(argv) {}

  /// Advance to the next argument; false past the last one.
  bool next() {
    if (i_ + 1 >= argc_) return false;
    flag_ = argv_[++i_];
    return true;
  }
  const std::string& flag() const { return flag_; }
  bool is(const char* name) const { return flag_ == name; }

  /// A command's --help/-h (the current flag): the usage on stdout and exit
  /// code 0 when it is the command's only argument. Any other argument
  /// beside it is a usage error, as no_arguments rules at the top level: the
  /// error and the usage go to stderr, nothing to stdout, and the code is 2.
  int help(void (*usage)(std::FILE*)) const {
    if (argc_ == 1) {
      usage(stdout);
      return kExitSuccess;
    }
    std::fprintf(stderr, "%s: %s takes no other arguments\n", tool_,
                 flag_.c_str());
    usage(stderr);
    return kExitUsage;
  }

  /// The current flag's value; exit 2 when the command line ends first.
  std::string value() {
    if (i_ + 1 >= argc_) {
      std::fprintf(stderr, "%s: %s requires a value\n", tool_, flag_.c_str());
      std::exit(kExitUsage);
    }
    return argv_[++i_];
  }
  unsigned long long u64_in(unsigned long long lo, unsigned long long hi) {
    const std::string v = value();
    return require_u64(tool_, flag_.c_str(), v, lo, hi);
  }
  unsigned unsigned_in(unsigned lo, unsigned hi) {
    return static_cast<unsigned>(u64_in(lo, hi));
  }
  std::vector<unsigned> unsigned_list(unsigned lo, unsigned hi) {
    const std::string v = value();
    return require_unsigned_list(tool_, flag_.c_str(), v, lo, hi);
  }

 private:
  const char* tool_;
  int argc_;
  char** argv_;
  int i_ = -1;
  std::string flag_;
};

/// --threads and the checkpoint/drain group (--checkpoint-dir
/// --checkpoint-interval --resume --no-fsync --interrupt-after --timeout),
/// with one set of bounds for every front end that runs unit campaigns.
struct CampaignFlags {
  unsigned threads = 0;  // 0 = one worker per hardware thread
  fault::CheckpointConfig checkpoint;
  unsigned long long interrupt_after = 0;  // drain drill; 0 = off
  unsigned timeout_s = 0;                  // wall-clock budget; 0 = off

  /// Consume the current flag (and its value) if it belongs to the group.
  bool parse(Args& a) {
    if (a.is("--threads")) {
      threads = a.unsigned_in(0, 256);
    } else if (a.is("--checkpoint-dir")) {
      checkpoint.dir = a.value();
    } else if (a.is("--checkpoint-interval")) {
      checkpoint.interval = a.unsigned_in(1, 1'000'000);
    } else if (a.is("--resume")) {
      checkpoint.resume = true;
    } else if (a.is("--no-fsync")) {
      checkpoint.fsync = fault::FsyncPolicy::kNone;
    } else if (a.is("--interrupt-after")) {
      interrupt_after = a.u64_in(1, ~0ull);
    } else if (a.is("--timeout")) {
      timeout_s = a.unsigned_in(1, 86'400);
    } else {
      return false;
    }
    return true;
  }

  /// The group's own usage rule; prints the error and returns false.
  bool valid(const char* tool) const {
    if (!checkpoint.resume || checkpoint.enabled()) return true;
    std::fprintf(stderr, "%s: --resume requires --checkpoint-dir\n", tool);
    return false;
  }

  /// Hand the worker count, the journal and the drain token to a campaign
  /// spec (or exp::ExecOptions). A drain is armed only when a checkpoint
  /// directory, --interrupt-after or --timeout asks for one: then the global
  /// token is cleared and armed, SIGINT/SIGTERM drain cooperatively, and the
  /// wall-clock alarm is set.
  template <class Spec>
  void apply(Spec& spec) const {
    spec.threads = threads;
    spec.checkpoint = checkpoint;
    spec.interrupt = nullptr;
    if (!checkpoint.enabled() && interrupt_after == 0 && timeout_s == 0) return;
    spec.interrupt = &fault::global_interrupt();
    spec.interrupt->clear();
    if (interrupt_after != 0) spec.interrupt->arm_after(interrupt_after);
    fault::install_drain_handlers();
    if (timeout_s != 0) fault::arm_wallclock_timeout(timeout_s);
  }
};

/// The stderr line of a drained unit campaign (exit 3 follows): how many of
/// its runs completed — resumed or finished this session — and how to
/// continue.
inline void report_interrupted(const char* tool, std::size_t completed,
                               unsigned runs,
                               const fault::CheckpointConfig& checkpoint) {
  if (checkpoint.enabled())
    std::fprintf(stderr,
                 "%s: interrupted after %zu/%u run(s); resume with "
                 "--checkpoint-dir %s --resume\n",
                 tool, completed, runs, checkpoint.dir.c_str());
  else
    std::fprintf(stderr,
                 "%s: interrupted after %zu/%u run(s); add "
                 "--checkpoint-dir to make such runs resumable\n",
                 tool, completed, runs);
}

}  // namespace detstl::cli
