// stlint — static determinism verifier for cache-wrapped self-test routines.
//
// Lints the bundled STL routines exactly as build_wrapped() would (same
// wrapper emission, same analysis config), or runs the purpose-built
// negative fixtures that demonstrate each rule class. Beyond the per-routine
// report it drives the abstract interpreter's scenario-matrix proofs
// (--matrix) and the static<->dynamic cross-validation against a recorded
// detscope event stream (--xval). Exit codes:
//   0  no error-severity findings / all obligations proven / xval passed
//   1  at least one error-severity finding or failed proof
//   2  usage error / unknown routine / build failure

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fixtures.h"
#include "analysis/sarif.h"
#include "cli_util.h"
#include "common/json_escape.h"
#include "core/routines.h"
#include "core/scenario_matrix.h"
#include "core/stl.h"
#include "core/wrapper.h"
#include "trace/trace_io.h"
#include "trace/xval.h"

namespace {

using namespace detstl;
using core::RoutineEntry;
using core::routine_registry;

struct Options {
  std::vector<std::string> routines;  // empty = all
  core::WrapperKind wrapper = core::WrapperKind::kCacheBased;
  int wa = 2;  // 0 = off, 1 = on, 2 = both
  bool perf = false;
  isa::CoreKind kind = isa::CoreKind::kA;
  bool quiet = false;
  bool verbose = false;
  bool json = false;
  bool list = false;
  bool fixtures_selfcheck = false;
  std::string fixture;
  bool matrix = false;
  std::string golden;      // --matrix: compare the output to this golden file
  std::string sarif_path;  // routine mode: write a SARIF 2.1.0 log
  std::string xval_path;   // cross-validate this DSEV event stream
  unsigned cores = 3;      // --xval: graded cores in the recorded scenario
};

void usage(std::ostream& os) {
  os << "stlint — static determinism verifier for wrapped self-test routines\n"
        "\n"
        "usage:\n"
        "  stlint [options]            lint bundled routines (default: all)\n"
        "  stlint --list               list routines and fixtures\n"
        "  stlint --fixture NAME       lint one negative fixture (demo)\n"
        "  stlint --fixtures           self-check: every fixture must trip "
        "its rule,\n"
        "                              and every rule class must be covered\n"
        "  stlint --matrix             scenario-matrix proofs: sweep cache "
        "geometry x\n"
        "                              cores x placement, verdict table on "
        "stdout\n"
        "  stlint --xval FILE          replay a detscope event stream "
        "(--events FILE)\n"
        "                              against the static prediction\n"
        "\n"
        "options:\n"
        "  --routine NAME   lint only this routine (repeatable)\n"
        "  --wrapper KIND   plain | cache | tcm            (default: cache)\n"
        "  --wa MODE        write-allocate: on | off | both (default: both)\n"
        "  --perf           fold performance counters into the signature\n"
        "  --core K         core kind: A | B | C           (default: A)\n"
        "  -q, --quiet      only print per-target verdicts\n"
        "  -v, --verbose    print full reports even when clean\n"
        "  --json           machine-readable report on stdout\n"
        "  --sarif FILE     also write the report as SARIF 2.1.0\n"
        "  --golden FILE    --matrix: require the output (table or --json) to\n"
        "                   match this file\n"
        "  --cores N        --xval: graded cores in the recording (default 3)\n"
        "  --version        print suite + checkpoint schema version\n";
}

bool parse(int argc, char** argv, Options& opt) {
  cli::Args args("stlint", argc - 1, argv + 1);
  while (args.next()) {
    if (args.is("--routine")) {
      opt.routines.push_back(args.value());
    } else if (args.is("--wrapper")) {
      const std::string v = args.value();
      if (v == "plain") opt.wrapper = core::WrapperKind::kPlain;
      else if (v == "cache") opt.wrapper = core::WrapperKind::kCacheBased;
      else if (v == "tcm") opt.wrapper = core::WrapperKind::kTcmBased;
      else {
        std::cerr << "stlint: --wrapper expects plain|cache|tcm, got '" << v
                  << "'\n";
        return false;
      }
    } else if (args.is("--wa")) {
      const std::string v = args.value();
      if (v == "on") opt.wa = 1;
      else if (v == "off") opt.wa = 0;
      else if (v == "both") opt.wa = 2;
      else {
        std::cerr << "stlint: --wa expects on|off|both, got '" << v << "'\n";
        return false;
      }
    } else if (args.is("--perf")) {
      opt.perf = true;
    } else if (args.is("--core")) {
      const std::string v = args.value();
      if (v == "A") opt.kind = isa::CoreKind::kA;
      else if (v == "B") opt.kind = isa::CoreKind::kB;
      else if (v == "C") opt.kind = isa::CoreKind::kC;
      else {
        std::cerr << "stlint: --core expects A|B|C, got '" << v << "'\n";
        return false;
      }
    } else if (args.is("-q") || args.is("--quiet")) {
      opt.quiet = true;
    } else if (args.is("-v") || args.is("--verbose")) {
      opt.verbose = true;
    } else if (args.is("--json")) {
      opt.json = true;
    } else if (args.is("--list")) {
      opt.list = true;
    } else if (args.is("--fixtures")) {
      opt.fixtures_selfcheck = true;
    } else if (args.is("--fixture")) {
      opt.fixture = args.value();
    } else if (args.is("--matrix")) {
      opt.matrix = true;
    } else if (args.is("--golden")) {
      opt.golden = args.value();
    } else if (args.is("--sarif")) {
      opt.sarif_path = args.value();
    } else if (args.is("--xval")) {
      opt.xval_path = args.value();
    } else if (args.is("--cores")) {
      opt.cores = args.unsigned_in(1, 3);
    } else if (args.is("--version") || args.is("-h") || args.is("--help")) {
      // Acted on only as the sole argument.
      if (argc != 2) {
        std::cerr << "stlint: " << args.flag() << " takes no other arguments\n";
        return false;
      }
      if (args.is("--version"))
        cli::print_version("stlint");
      else
        usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "stlint: unknown option '" << args.flag() << "'\n";
      return false;
    }
  }
  return true;
}

int run_fixture(const Options& opt) {
  const auto fixtures = analysis::negative_fixtures();
  const analysis::Fixture* f = analysis::find_fixture(fixtures, opt.fixture);
  if (!f) {
    std::cerr << "stlint: unknown fixture '" << opt.fixture << "'\n";
    return 2;
  }
  const analysis::Report rep = analysis::analyze(f->prog, f->cfg);
  std::cout << "fixture " << f->name << ": " << f->description << "\n"
            << rep.format();
  return rep.clean() ? 0 : 1;
}

int run_fixtures_selfcheck() {
  int bad = 0;
  std::set<analysis::Rule> covered;
  for (const auto& f : analysis::negative_fixtures()) {
    const analysis::Report rep = analysis::analyze(f.prog, f.cfg);
    const bool tripped =
        rep.has(f.expect) &&
        (f.expect_severity != analysis::Severity::kError || !rep.clean());
    std::cout << (tripped ? "TRIPPED " : "MISSED  ") << f.name << " ["
              << analysis::rule_id(f.expect) << "]\n";
    if (tripped) covered.insert(f.expect);
    if (!tripped) {
      std::cout << rep.format();
      ++bad;
    }
  }
  // Catalogue coverage: every rule class must be provably trippable by a
  // bundled fixture. The interference bound is the one informational rule
  // that fires only on *clean* routines, so it is exempt here.
  for (const analysis::Rule r : analysis::rule_catalogue()) {
    if (r == analysis::Rule::kAiInterferenceBound) continue;
    if (covered.count(r) == 0) {
      std::cout << "UNCOVERED rule " << analysis::rule_id(r)
                << " — no fixture trips it\n";
      ++bad;
    }
  }
  std::cout << (bad ? "FAIL" : "OK")
            << ": fixture self-check (every rule class covered)\n";
  return bad ? 1 : 0;
}

int run_matrix_cmd(const Options& opt,
                   const std::vector<const RoutineEntry*>& targets) {
  const auto rep = core::run_matrix(core::default_matrix_grid(), targets);
  const std::string out =
      opt.json ? core::matrix_json(rep) : core::format_matrix(rep);
  std::cout << out;
  if (!opt.golden.empty()) {
    std::ifstream in(opt.golden, std::ios::binary);
    if (!in) {
      std::cerr << "stlint: cannot read golden file " << opt.golden << "\n";
      return 2;
    }
    std::ostringstream want;
    want << in.rdbuf();
    if (want.str() != out) {
      std::cerr << "stlint: matrix " << (opt.json ? "JSON" : "table")
                << " differs from golden " << opt.golden
                << " (regenerate with: stlint --matrix"
                << (opt.json ? " --json" : "") << " > " << opt.golden << ")\n";
      return 1;
    }
  }
  return rep.all_proven() ? 0 : 1;
}

int run_xval(const Options& opt) {
  const auto file = trace::read_events_file(opt.xval_path);
  if (!file.ok) {
    std::cerr << "stlint: " << file.error << "\n";
    return 2;
  }
  trace::XvalOptions xo;
  if (!opt.routines.empty()) xo.routine = opt.routines.front();
  xo.cores = opt.cores;
  xo.write_allocate = opt.wa != 0;  // 'both' records as write-allocate on
  const auto r = trace::cross_validate(file.events, xo);
  std::cout << trace::format(r);
  if (!r.ok) return 2;
  return r.passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(std::cerr);
    return 2;
  }
  if (opt.list) {
    std::cout << "routines:\n";
    for (const auto& r : routine_registry()) std::cout << "  " << r.name << "\n";
    std::cout << "fixtures:\n";
    for (const auto& f : analysis::negative_fixtures())
      std::cout << "  " << f.name << " — " << f.description << "\n";
    return 0;
  }
  if (!opt.fixture.empty()) return run_fixture(opt);
  if (opt.fixtures_selfcheck) return run_fixtures_selfcheck();
  if (!opt.xval_path.empty()) return run_xval(opt);

  const auto registry = routine_registry();
  std::vector<const RoutineEntry*> targets;
  if (opt.routines.empty()) {
    for (const auto& r : registry) targets.push_back(&r);
  } else {
    for (const auto& name : opt.routines) {
      const RoutineEntry* found = nullptr;
      for (const auto& r : registry)
        if (name == r.name) found = &r;
      if (!found) {
        std::cerr << "stlint: unknown routine '" << name
                  << "' (try --list)\n";
        return 2;
      }
      targets.push_back(found);
    }
  }
  if (opt.matrix) return run_matrix_cmd(opt, targets);

  std::vector<bool> wa_modes;
  if (opt.wa == 2) wa_modes = {true, false};
  else wa_modes = {opt.wa == 1};

  unsigned errors = 0;
  bool first_target = true;
  // Kept alive for --sarif: (display name, report) per linted target.
  std::vector<std::pair<std::string, analysis::Report>> kept;
  if (opt.json) std::cout << "{\"schema\":2,\"targets\":[";
  for (const RoutineEntry* t : targets) {
    for (bool wa : wa_modes) {
      const auto routine = t->make();
      core::BuildEnv env;
      env.kind = opt.kind;
      env.write_allocate = wa;
      env.use_perf_counters = opt.perf;
      env.lint = core::LintMode::kReport;
      core::BuiltTest bt;
      try {
        bt = core::build_wrapped(*routine, opt.wrapper, env);
      } catch (const std::exception& e) {
        std::cerr << "stlint: build failed for " << t->name << ": " << e.what()
                  << "\n";
        return 2;
      }
      const bool clean = bt.lint.clean();
      errors += bt.lint.errors();
      if (!opt.sarif_path.empty()) {
        kept.emplace_back(std::string(t->name) + " [" +
                              core::wrapper_name(opt.wrapper) + ", " +
                              (wa ? "wa" : "nwa") + "]",
                          bt.lint);
      }
      if (opt.json) {
        if (!first_target) std::cout << ",";
        first_target = false;
        std::cout << "\n  {\"routine\":\"" << json_escape(t->name)
                  << "\",\"wrapper\":\"" << core::wrapper_name(opt.wrapper)
                  << "\",\"write_allocate\":" << (wa ? "true" : "false")
                  << ",\"errors\":" << bt.lint.errors()
                  << ",\"warnings\":" << bt.lint.warnings()
                  << ",\"diagnostics\":[";
        bool first_diag = true;
        for (const auto& d : bt.lint.diagnostics()) {
          if (!first_diag) std::cout << ",";
          first_diag = false;
          char pc[16];
          std::snprintf(pc, sizeof pc, "0x%08x", d.pc);
          std::cout << "\n    {\"severity\":\""
                    << analysis::severity_name(d.severity) << "\",\"rule\":\""
                    << analysis::rule_id(d.rule) << "\",\"pc\":\"" << pc
                    << "\",\"symbol\":\"" << json_escape(d.where)
                    << "\",\"message\":\"" << json_escape(d.message)
                    << "\",\"hint\":\"" << json_escape(d.hint) << "\"}";
        }
        std::cout << (first_diag ? "]}" : "\n  ]}");
        continue;
      }
      std::cout << (clean ? "PASS " : "FAIL ") << t->name << " ["
                << core::wrapper_name(opt.wrapper) << ", "
                << (wa ? "write-allocate" : "no-write-allocate") << "] "
                << bt.lint.errors() << " error(s), " << bt.lint.warnings()
                << " warning(s)\n";
      if (!opt.quiet && (opt.verbose || !clean))
        std::cout << bt.lint.format();
    }
  }
  if (opt.json)
    std::cout << "\n],\"errors\":" << errors
              << ",\"clean\":" << (errors ? "false" : "true") << "}\n";
  if (!opt.sarif_path.empty()) {
    std::vector<analysis::SarifTarget> st;
    st.reserve(kept.size());
    for (const auto& [name, rep] : kept) st.push_back({name, &rep});
    std::ofstream out(opt.sarif_path, std::ios::binary);
    if (!out || !(out << analysis::to_sarif(st))) {
      std::cerr << "stlint: cannot write " << opt.sarif_path << "\n";
      return 2;
    }
  }
  return errors ? 1 : 0;
}
