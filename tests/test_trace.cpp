// detscope observability regression tests: phase recognition, byte-exact
// stream serialisation, Chrome-trace JSON well-formedness, per-phase metrics
// attribution, the sink's checkpoint contract, and the two determinism
// audits (solo-vs-contended execution loop, campaign thread-count sweep).

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/routines.h"
#include "core/stl.h"
#include "core/wrapper.h"
#include "cpu/trace.h"
#include "exp/experiments.h"
#include "fault/campaign.h"
#include "perf/json.h"
#include "runtime/mission.h"
#include "soc/soc.h"
#include "trace/audit.h"
#include "trace/capture.h"
#include "trace/chrome_trace.h"
#include "trace/event.h"
#include "trace/phase_metrics.h"
#include "trace/trace_io.h"
#include "trace/xval.h"

namespace detstl {
namespace {

// -----------------------------------------------------------------------------
// PhaseTracker
// -----------------------------------------------------------------------------

TEST(PhaseTracker, RecognisesCacheWrapperSequence) {
  trace::PhaseTracker t;
  EXPECT_FALSE(t.active());
  EXPECT_FALSE(t.observe_loop_counter(2));  // not inside a wrapper yet
  EXPECT_FALSE(t.observe_cache_op(0x4));    // enable bits only, no invalidate

  EXPECT_TRUE(t.observe_cache_op(0x3));
  EXPECT_TRUE(t.active());
  EXPECT_EQ(t.current(), trace::Phase::kInvalidate);
  EXPECT_FALSE(t.observe_cache_op(0x1));  // repeated invalidate: same phase

  EXPECT_TRUE(t.observe_loop_counter(2));
  EXPECT_EQ(t.current(), trace::Phase::kLoadingLoop);
  EXPECT_FALSE(t.observe_loop_counter(5));  // counter churn inside the loop

  EXPECT_TRUE(t.observe_loop_counter(1));
  EXPECT_EQ(t.current(), trace::Phase::kExecutionLoop);

  EXPECT_TRUE(t.observe_loop_counter(0));
  EXPECT_EQ(t.current(), trace::Phase::kSignatureCheck);
  EXPECT_FALSE(t.observe_loop_counter(0));

  t.reset();
  EXPECT_FALSE(t.active());
  // A plain/TCM wrapper never invalidates, so r30 writes must stay silent.
  EXPECT_FALSE(t.observe_loop_counter(1));
}

TEST(PhaseTracker, CacheCfgDisableEndsExecutionLoop) {
  trace::PhaseTracker t;
  EXPECT_FALSE(t.observe_cache_cfg(0));  // outside a wrapper: ignored
  EXPECT_TRUE(t.observe_cache_op(0x3));
  // Ablation builds with one loop iteration seed the counter straight to 1.
  EXPECT_TRUE(t.observe_loop_counter(1));
  EXPECT_EQ(t.current(), trace::Phase::kExecutionLoop);
  EXPECT_TRUE(t.observe_cache_cfg(0));
  EXPECT_EQ(t.current(), trace::Phase::kSignatureCheck);
  EXPECT_FALSE(t.observe_cache_cfg(0));
}

// -----------------------------------------------------------------------------
// Stream serialisation + capture
// -----------------------------------------------------------------------------

TEST(StreamSerialize, FieldWiseLittleEndian) {
  trace::Event e;
  e.cycle = 0x1122334455667788ull;
  e.kind = trace::EventKind::kCacheMiss;
  e.core = 2;
  e.unit = 1;
  e.flags = 0xa5;
  e.addr = 0xdeadbeef;
  e.a = 0x01020304;
  e.b = 0x0a0b0c0d;

  std::string s;
  trace::append_bytes(e, s);
  ASSERT_EQ(s.size(), 24u);
  const auto at = [&s](std::size_t i) {
    return static_cast<unsigned>(static_cast<unsigned char>(s[i]));
  };
  EXPECT_EQ(at(0), 0x88u);  // cycle, LSB first
  EXPECT_EQ(at(7), 0x11u);
  EXPECT_EQ(at(8), static_cast<unsigned>(trace::EventKind::kCacheMiss));
  EXPECT_EQ(at(9), 2u);     // core
  EXPECT_EQ(at(10), 1u);    // unit
  EXPECT_EQ(at(11), 0xa5u); // flags
  EXPECT_EQ(at(12), 0xefu); // addr, LSB first
  EXPECT_EQ(at(15), 0xdeu);
  EXPECT_EQ(at(16), 0x04u); // a
  EXPECT_EQ(at(20), 0x0du); // b
  EXPECT_EQ(at(23), 0x0au);

  EXPECT_EQ(trace::serialize({e, e}), s + s);
}

TEST(StreamCapture, FiltersByCore) {
  trace::StreamCapture all;
  trace::StreamCapture core1(1);
  for (const int c : {0, 1, 2, 1}) {
    trace::Event e;
    e.core = static_cast<u8>(c);
    all.on_event(e);
    core1.on_event(e);
  }
  EXPECT_EQ(all.events().size(), 4u);
  EXPECT_EQ(core1.events().size(), 2u);
  EXPECT_EQ(core1.events()[0].core, 1u);
  core1.clear();
  EXPECT_TRUE(core1.events().empty());
}

// -----------------------------------------------------------------------------
// TraceRecorder windowed rendering
// -----------------------------------------------------------------------------

TEST(TraceRecorder, RenderWindowSelectsCycles) {
  cpu::TraceRecorder rec;
  EXPECT_EQ(rec.render(), "(empty trace)\n");

  const u64 a = rec.on_issue(2, 0x100, 0, "add r1, r2, r3");
  rec.on_stage(a, cpu::Stage::kEx, 3);
  rec.on_stage(a, cpu::Stage::kMem, 4);
  rec.on_stage(a, cpu::Stage::kWb, 5);
  const u64 b = rec.on_issue(10, 0x104, 0, "sub r4, r5, r6");
  rec.on_stage(b, cpu::Stage::kEx, 11);
  rec.on_stage(b, cpu::Stage::kMem, 12);
  rec.on_stage(b, cpu::Stage::kWb, 13);

  const std::string full = rec.render();
  EXPECT_NE(full.find("00000100"), std::string::npos);
  EXPECT_NE(full.find("00000104"), std::string::npos);
  EXPECT_NE(full.find("add r1, r2, r3"), std::string::npos);

  // Early window: the second instruction issues past the window end.
  const std::string early = rec.render(0, 5);
  EXPECT_NE(early.find("00000100"), std::string::npos);
  EXPECT_EQ(early.find("00000104"), std::string::npos);

  const std::string late = rec.render(10, 13);
  EXPECT_NE(late.find("00000104"), std::string::npos);

  EXPECT_EQ(rec.render(20, 30), "(empty window)\n");
  EXPECT_EQ(rec.render(8, 6), "(empty window)\n");
}

// -----------------------------------------------------------------------------
// Traced quickstart scenario (shared by the metrics and JSON tests)
// -----------------------------------------------------------------------------

bool run_cached(unsigned cores, trace::EventSink* sink) {
  const auto routine = core::make_alu_test();
  std::vector<core::BuiltTest> tests;
  for (unsigned c = 0; c < cores; ++c) {
    core::BuildEnv env;
    env.core_id = c;
    env.kind = static_cast<isa::CoreKind>(c);
    env.code_base = mem::kFlashBase + 0x2000 + c * 0x40000;
    env.data_base = core::default_data_base(c);
    tests.push_back(
        core::build_wrapped(*routine, core::WrapperKind::kCacheBased, env));
  }
  soc::SocConfig cfg;
  cfg.start_delay = {0, 3, 7};
  soc::Soc soc(cfg);
  for (const auto& t : tests) {
    soc.load_program(t.prog);
    soc.set_boot(t.env.core_id, t.prog.entry());
  }
  for (unsigned c = cores; c < 3; ++c) soc.set_active(c, false);
  soc.set_trace_sink(sink);
  soc.reset();
  if (soc.run(10'000'000).timed_out) return false;
  bool ok = true;
  for (unsigned c = 0; c < cores; ++c) {
    const auto v = core::read_verdict(soc, soc::mailbox_addr(c));
    ok &= v.status == soc::kStatusPass && v.signature == tests[c].golden;
  }
  return ok;
}

TEST(Metrics, ExecutionLoopIsBusSilent) {
  perf::Registry reg;
  trace::PhaseMetrics metrics(reg);
  ASSERT_TRUE(run_cached(1, &metrics));

  const auto counter = [&](const char* name, const char* phase) {
    const perf::Metric* m =
        reg.find(name, std::string("core=A,phase=") + phase);
    EXPECT_NE(m, nullptr) << name << " at " << phase;
    return m != nullptr ? m->counter : ~0ull;
  };
  // The invariant's zeros are registered series, not absent ones.
  EXPECT_GT(counter("phase.events", "execution-loop"), 0u);
  EXPECT_EQ(counter("phase.bus_submits", "execution-loop"), 0u);
  EXPECT_EQ(counter("phase.icache_misses", "execution-loop"), 0u);
  EXPECT_EQ(counter("phase.dcache_misses", "execution-loop"), 0u);
  EXPECT_EQ(counter("phase.dcache_writebacks", "execution-loop"), 0u);

  // The loading loop is where the lines get pulled in; boot code runs
  // outside the wrapper.
  EXPECT_GT(counter("phase.events", "loading-loop"), 0u);
  EXPECT_GT(counter("phase.icache_refills", "loading-loop"), 0u);
  EXPECT_GT(counter("phase.events", "outside"), 0u);

  // Every series is simulation-derived; only core A ran.
  reg.visit([](const std::string& name, const std::string& labels,
               const perf::Metric& m) {
    EXPECT_EQ(m.source, perf::MetricSource::kSim) << name;
    EXPECT_EQ(labels.rfind("core=A,phase=", 0), 0u) << name << " " << labels;
  });
  EXPECT_EQ(reg.find("phase.campaign_events", ""), nullptr);
  EXPECT_TRUE(metrics.violations().empty());

  // render() must mention every phase bucket.
  const std::string r = metrics.render();
  EXPECT_NE(r.find(trace::phase_name(trace::Phase::kExecutionLoop)),
            std::string::npos);
}

TEST(Metrics, ExecutionLoopTrafficIsAViolation) {
  perf::Registry reg;
  trace::PhaseMetrics metrics(reg);
  const auto ev = [](trace::EventKind kind, u8 unit) {
    return trace::Event{.kind = kind, .core = 1, .unit = unit};
  };
  metrics.on_event(ev(trace::EventKind::kPhaseBegin,
                      static_cast<u8>(trace::Phase::kExecutionLoop)));
  metrics.on_event(ev(trace::EventKind::kBusSubmit, 3));
  metrics.on_event(ev(trace::EventKind::kCacheMiss, 1));
  metrics.on_event(trace::Event{.kind = trace::EventKind::kCampaignDone});

  const std::vector<std::string> want = {
      "core B: 1 bus submit(s) during its execution loop",
      "core B: 1 D-cache miss(es) during its execution loop"};
  EXPECT_EQ(metrics.violations(), want);
  EXPECT_EQ(reg.find("phase.bus_reads", "core=B,phase=execution-loop")->counter,
            1u);
  EXPECT_EQ(reg.find("phase.campaign_events", "")->counter, 1u);
  EXPECT_NE(metrics.render().find("campaign lifecycle events: 1"),
            std::string::npos);
}

// -----------------------------------------------------------------------------
// Chrome-trace JSON: parse it back, one monotone timeline per track
// -----------------------------------------------------------------------------

TEST(ChromeTrace, JsonParsesBackAndTimelinesAreMonotone) {
  trace::ChromeTraceWriter writer;
  ASSERT_TRUE(run_cached(2, &writer));
  ASSERT_GT(writer.size(), 0u);

  std::ostringstream os;
  writer.write(os);

  // The strict reader: malformed output or trailing garbage fails the parse.
  perf::json::Value root;
  std::string err;
  ASSERT_TRUE(perf::json::parse(os.str(), root, &err)) << err;
  ASSERT_TRUE(root.is_object());
  const perf::json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->arr.empty());

  std::map<int, double> last_ts;
  std::set<int> named_tracks;
  for (const perf::json::Value& ev : events->arr) {
    ASSERT_TRUE(ev.is_object());
    const perf::json::Value* ph = ev.find("ph");
    const perf::json::Value* tid = ev.find("tid");
    const perf::json::Value* pid = ev.find("pid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_TRUE(ph->is_string());
    const int track = static_cast<int>(tid->as_double());
    if (ph->str == "M") {
      named_tracks.insert(track);
      continue;
    }
    const perf::json::Value* ts = ev.find("ts");
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->is_number());
    const auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->as_double(), it->second)
          << "non-monotone ts on track " << track;
    }
    last_ts[track] = ts->as_double();
  }
  // Both traced cores produced events, and every track that carries events
  // announced its name via thread_name metadata.
  EXPECT_GE(last_ts.size(), 2u);
  for (const auto& [track, ts] : last_ts) {
    (void)ts;
    EXPECT_TRUE(named_tracks.count(track)) << "unnamed track " << track;
  }
}

TEST(ChromeTrace, MissionEventsLandOnTheirCoreTrack) {
  // Every mission slice and verdict event belongs on the tested core's track
  // and carries its payload (unit/addr/a/b) as args, as the supervisor's
  // events do. A 6-slice, 3-core mission tests more than one core.
  trace::ChromeTraceWriter writer;
  runtime::MissionSpec spec;
  spec.slices = 6;
  spec.cores = 3;
  spec.sink = &writer;
  const runtime::MissionResult res = runtime::run_mission(spec);
  ASSERT_EQ(res.records.size(), 6u);
  std::map<int, unsigned> expected;  // tid -> slices tested there
  for (const runtime::MissionSliceRecord& r : res.records) ++expected[r.tested_core];
  ASSERT_GE(expected.size(), 2u);

  std::ostringstream os;
  writer.write(os);
  perf::json::Value root;
  std::string err;
  ASSERT_TRUE(perf::json::parse(os.str(), root, &err)) << err;
  std::map<int, unsigned> slices, checks;
  for (const perf::json::Value& ev : root.find("traceEvents")->arr) {
    const perf::json::Value* name = ev.find("name");
    if (name == nullptr || (name->str != "mission-slice" && name->str != "mission-check"))
      continue;
    const int tid = static_cast<int>(ev.find("tid")->as_double());
    const perf::json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr) << name->str;
    for (const char* key : {"unit", "addr", "a", "b"})
      EXPECT_NE(args->find(key), nullptr) << name->str << " lacks " << key;
    if (name->str == "mission-slice") {
      ++slices[tid];
      // b = slice index.
      const auto slice = static_cast<std::size_t>(args->find("b")->as_double());
      ASSERT_LT(slice, res.records.size());
      EXPECT_EQ(tid, res.records[slice].tested_core) << "slice " << slice;
    } else {
      ++checks[tid];
    }
  }
  EXPECT_EQ(slices, expected);
  EXPECT_EQ(checks, expected);
}

// -----------------------------------------------------------------------------
// Checkpoint contract of the sink pointer
// -----------------------------------------------------------------------------

TEST(SocTrace, SinkSurvivesResetAndFollowsCheckpointCopies) {
  trace::StreamCapture cap;
  soc::Soc soc;
  soc.set_trace_sink(&cap);
  EXPECT_EQ(soc.trace_sink(), &cap);
  EXPECT_EQ(soc.bus().trace_sink(), &cap);

  soc.reset();  // rebuilds the bus; the sink must be re-installed
  EXPECT_EQ(soc.bus().trace_sink(), &cap);

  soc::Soc copy = soc;  // checkpoint copy carries the pointer verbatim
  EXPECT_EQ(copy.trace_sink(), &cap);
  EXPECT_EQ(copy.bus().trace_sink(), &cap);

  copy.set_trace_sink(nullptr);  // the restorer's responsibility
  EXPECT_EQ(copy.trace_sink(), nullptr);
  EXPECT_EQ(copy.bus().trace_sink(), nullptr);
  EXPECT_EQ(soc.bus().trace_sink(), &cap);  // original untouched
}

// -----------------------------------------------------------------------------
// Determinism audits (the tier-1 check behind tools/detscope)
// -----------------------------------------------------------------------------

TEST(DeterminismAudit, AluCacheWrappedIsDeterministic) {
  const auto r = trace::audit_determinism(*core::make_alu_test());
  EXPECT_TRUE(r.passed()) << r.detail;
  EXPECT_GT(r.window_events_solo, 0u);
  EXPECT_EQ(r.window_events_solo, r.window_events_contended);
  // The neighbours really were hammering the bus while the window ran.
  EXPECT_GT(r.contended_neighbor_grants, 0u);
}

TEST(DeterminismAudit, FwdPcCacheWrappedIsDeterministic) {
  const auto* e = core::find_routine("fwd-pc");
  ASSERT_NE(e, nullptr);
  const auto r = trace::audit_determinism(*e->make());
  EXPECT_TRUE(r.passed()) << r.detail;
}

// -----------------------------------------------------------------------------
// Campaign tracing + thread-count determinism
// -----------------------------------------------------------------------------

struct CampaignFixture {
  fault::CampaignConfig cc;
  fault::SocFactory factory;
};

CampaignFixture make_fwd_campaign(u32 stride) {
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/false);
  exp::Scenario sc;
  sc.active_cores = 1;
  sc.label = "trace-campaign";
  auto tests = exp::build_scenario_tests(*routine, core::WrapperKind::kPlain, sc,
                                         /*graded=*/0, /*use_perf_counters=*/false);
  CampaignFixture f;
  f.cc.module = fault::Module::kFwd;
  f.cc.core_id = 0;
  f.cc.kind = isa::CoreKind::kA;
  f.cc.fault_stride = stride;
  f.factory = exp::scenario_factory(std::move(tests), sc, 0);
  return f;
}

TEST(CampaignTrace, LifecycleEventsWallClockAndThreads) {
  auto f = make_fwd_campaign(/*stride=*/16);
  trace::StreamCapture cap;
  f.cc.sink = &cap;
  f.cc.threads = 2;
  fault::Campaign campaign(f.cc, f.factory);
  const auto res = campaign.run();

  EXPECT_EQ(res.threads_used, 2u);
  EXPECT_GT(res.wall_seconds, 0.0);

  u64 fault_events = 0;
  bool done_seen = false;
  for (const auto& e : cap.events()) {
    if (e.kind == trace::EventKind::kCampaignFault) ++fault_events;
    if (e.kind == trace::EventKind::kCampaignDone) {
      done_seen = true;
      EXPECT_EQ(e.a, static_cast<u32>(res.detected));
      EXPECT_EQ(e.b, static_cast<u32>(res.simulated_faults));
    }
  }
  EXPECT_TRUE(done_seen);
  EXPECT_EQ(fault_events, res.simulated_faults);
}

TEST(CampaignAudit, ByteIdenticalAcrossThreadCounts) {
  auto f = make_fwd_campaign(/*stride=*/8);
  const auto r = trace::audit_campaign_determinism(f.cc, f.factory, {1, 2, 8});
  EXPECT_TRUE(r.passed()) << r.detail;
  EXPECT_GT(r.events, 0u);
  ASSERT_EQ(r.thread_counts.size(), 3u);
}

// ----------------------------------------------------------------------------
// Event-stream files (trace_io.h)
// ----------------------------------------------------------------------------

TEST(TraceIo, EventFileRoundTripsByteExactly) {
  std::vector<trace::Event> events;
  for (unsigned i = 0; i < 37; ++i) {
    trace::Event e;
    e.cycle = 1000 + i;
    e.kind = i % 2 ? trace::EventKind::kCacheMiss : trace::EventKind::kBusGrant;
    e.core = static_cast<u8>(i % 3);
    e.unit = static_cast<u8>(i % 2);
    e.flags = static_cast<u8>(i & 1);
    e.addr = 0x10002000 + i * 32;
    e.a = i;
    e.b = ~i;
    events.push_back(e);
  }
  const std::string path = ::testing::TempDir() + "roundtrip.dsev";
  ASSERT_TRUE(trace::write_events_file(path, events));
  const auto r = trace::read_events_file(path);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.events.size(), events.size());
  EXPECT_EQ(trace::serialize(r.events), trace::serialize(events));
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsGarbageAndTruncation) {
  const std::string path = ::testing::TempDir() + "garbage.dsev";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not an event file at all", f);
  std::fclose(f);
  EXPECT_FALSE(trace::read_events_file(path).ok);
  EXPECT_FALSE(trace::read_events_file(path + ".missing").ok);

  // A bare header claiming 2^61 records: count * 24 wraps to 0 in u64, so
  // a byte-size comparison alone would accept it and then reserve 2^61.
  ASSERT_TRUE(trace::write_events_file(path, {}));
  f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  u8 count[8];
  store_le(count, u64{1} << 61, 8);
  ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(count, 1, sizeof count, f), sizeof count);
  std::fclose(f);
  const auto wrapped = trace::read_events_file(path);
  EXPECT_FALSE(wrapped.ok);
  EXPECT_NE(wrapped.error.find("truncated"), std::string::npos) << wrapped.error;
  std::remove(path.c_str());
}

// ----------------------------------------------------------------------------
// Static<->dynamic cross-validation (xval.h)
// ----------------------------------------------------------------------------

TEST(Xval, QuickstartRunMatchesStaticPrediction) {
  // Record the 1-core quickstart scenario in-process, then replay it against
  // the abstract interpreter: predicted exec miss set == observed (empty),
  // loading refills inside the may-footprint, bus waits within d_max.
  const auto routine = core::find_routine("alu")->make();
  const auto bt = core::build_wrapped(*routine, core::WrapperKind::kCacheBased,
                                      core::quickstart_env(0, true));
  soc::Soc soc;
  soc.load_program(bt.prog);
  soc.set_boot(0, bt.prog.entry());
  for (unsigned c = 1; c < 3; ++c) soc.set_active(c, false);
  trace::StreamCapture capture;
  soc.set_trace_sink(&capture);
  soc.reset();
  ASSERT_FALSE(soc.run(5'000'000).timed_out);

  trace::XvalOptions opt;
  opt.routine = "alu";
  opt.cores = 1;
  const auto r = trace::cross_validate(capture.events(), opt);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.passed()) << trace::format(r);
  ASSERT_EQ(r.cores.size(), 1u);
  EXPECT_TRUE(r.cores[0].statically_proven);
  EXPECT_EQ(r.cores[0].exec_misses, 0u);
  EXPECT_EQ(r.cores[0].unpredicted_refills, 0u);
  EXPECT_GT(r.cores[0].loading_refills, 0u);
  EXPECT_EQ(r.d_max, 44u);  // 1 core -> 3 requesters
}

TEST(Xval, ExecLoopMissRefutesThePrediction) {
  // Inject a synthetic execution-loop miss into an otherwise-passing trace:
  // the cross-validator must flag it (predicted miss set is empty).
  const auto routine = core::find_routine("alu")->make();
  const auto bt = core::build_wrapped(*routine, core::WrapperKind::kCacheBased,
                                      core::quickstart_env(0, true));
  soc::Soc soc;
  soc.load_program(bt.prog);
  soc.set_boot(0, bt.prog.entry());
  for (unsigned c = 1; c < 3; ++c) soc.set_active(c, false);
  trace::StreamCapture capture;
  soc.set_trace_sink(&capture);
  soc.reset();
  ASSERT_FALSE(soc.run(5'000'000).timed_out);

  std::vector<trace::Event> events = capture.events();
  // Place the fake miss right after the execution-loop phase marker.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == trace::EventKind::kPhaseBegin &&
        static_cast<trace::Phase>(events[i].unit) ==
            trace::Phase::kExecutionLoop) {
      trace::Event miss;
      miss.cycle = events[i].cycle + 1;
      miss.kind = trace::EventKind::kCacheMiss;
      miss.core = 0;
      miss.unit = 1;
      miss.addr = 0x20008000;
      events.insert(events.begin() + static_cast<std::ptrdiff_t>(i) + 1, miss);
      break;
    }
  }

  trace::XvalOptions opt;
  opt.routine = "alu";
  opt.cores = 1;
  const auto r = trace::cross_validate(events, opt);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.cores[0].exec_misses, 1u);
}

}  // namespace
}  // namespace detstl
