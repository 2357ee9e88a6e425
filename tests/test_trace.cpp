// TraceRecorder tests: recorder mechanics (gating, rings, track binding),
// Chrome-JSON export validity, and engine integration — a traced SSSP run
// must produce per-iteration spans on every persistent task, stack-correct
// nesting per track, paired reduce->map flow events, and a byte-identical
// event multiset across same-seed runs. Chaos runs must surface fault
// instants and rollback/checkpoint/recovery spans.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/sssp.h"
#include "graph/generator.h"
#include "imapreduce/engine.h"
#include "metrics/trace.h"
#include "tests/chaos_harness.h"
#include "tests/test_util.h"

namespace imr {
namespace {

// Arms the recorder for one test and guarantees a clean slate afterwards —
// the recorder is a process singleton, so tests must not leak state into
// each other.
struct TraceGuard {
  explicit TraceGuard(
      std::size_t ring_capacity = TraceRecorder::kDefaultRingCapacity) {
    TraceRecorder::instance().reset();
    TraceRecorder::instance().enable(ring_capacity);
  }
  ~TraceGuard() {
    TraceRecorder::instance().disable();
    TraceRecorder::instance().reset();
  }
};

// ---------------------------------------------------------------------------
// Minimal validating JSON parser (syntax only). The export must be loadable
// by Perfetto, which starts with being well-formed JSON.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Recorder mechanics
// ---------------------------------------------------------------------------

TEST(TraceRecorder, DisabledRecordsNothing) {
  auto& rec = TraceRecorder::instance();
  rec.reset();
  ASSERT_FALSE(TraceRecorder::enabled());
  rec.begin_thread_track("ghost", 0);
  rec.span_begin("a", 10);
  rec.instant("b", 20);
  rec.span_end("a", 30);
  for (const auto& t : rec.snapshot()) EXPECT_TRUE(t.events.empty());
  rec.reset();
}

TEST(TraceRecorder, RecordsSpansInstantsInOrder) {
  TraceGuard guard;
  auto& rec = TraceRecorder::instance();
  rec.begin_thread_track("t0", 2);
  rec.span_begin("work", 100, /*iter=*/3, /*gen=*/1);
  rec.instant("tick", 150, 3);
  rec.span_end("work", 200);

  auto tracks = rec.snapshot();
  const TraceRecorder::TrackSnapshot* t0 = nullptr;
  for (const auto& t : tracks) {
    if (t.label == "t0") t0 = &t;
  }
  ASSERT_NE(t0, nullptr);
  EXPECT_EQ(t0->pid, 2);
  EXPECT_EQ(t0->dropped, 0);
  ASSERT_EQ(t0->events.size(), 3u);
  EXPECT_EQ(t0->events[0].type, TraceEventType::kSpanBegin);
  EXPECT_STREQ(t0->events[0].name, "work");
  EXPECT_EQ(t0->events[0].ts_ns, 100);
  EXPECT_EQ(t0->events[0].iter, 3);
  EXPECT_EQ(t0->events[0].gen, 1);
  EXPECT_EQ(t0->events[1].type, TraceEventType::kInstant);
  EXPECT_EQ(t0->events[2].type, TraceEventType::kSpanEnd);
  EXPECT_EQ(t0->events[2].ts_ns, 200);
}

TEST(TraceRecorder, TrackReuseAndRestore) {
  TraceGuard guard;
  auto& rec = TraceRecorder::instance();
  auto prev = rec.begin_thread_track("driver", 0);
  rec.instant("a", 1);
  // Same label+pid: the binding is reused, no second "driver" track.
  rec.begin_thread_track("driver", 0);
  rec.instant("b", 2);
  // Different label: fresh track; restoring puts events back on "driver".
  auto saved = rec.begin_thread_track("nested", 1);
  rec.instant("c", 3);
  rec.set_thread_track(saved);
  rec.instant("d", 4);
  rec.set_thread_track(prev);

  int driver_tracks = 0;
  for (const auto& t : rec.snapshot()) {
    if (t.label == "driver") {
      ++driver_tracks;
      ASSERT_EQ(t.events.size(), 3u);
      EXPECT_STREQ(t.events[0].name, "a");
      EXPECT_STREQ(t.events[1].name, "b");
      EXPECT_STREQ(t.events[2].name, "d");
    } else if (t.label == "nested") {
      ASSERT_EQ(t.events.size(), 1u);
      EXPECT_STREQ(t.events[0].name, "c");
    }
  }
  EXPECT_EQ(driver_tracks, 1);
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  TraceGuard guard(/*ring_capacity=*/4);
  auto& rec = TraceRecorder::instance();
  rec.begin_thread_track("small", 0);
  for (int i = 0; i < 10; ++i) rec.instant("e", i);

  for (const auto& t : rec.snapshot()) {
    if (t.label != "small") continue;
    EXPECT_EQ(t.dropped, 6);
    ASSERT_EQ(t.events.size(), 4u);
    // Oldest-first after the wrap: timestamps 6..9.
    for (int i = 0; i < 4; ++i) EXPECT_EQ(t.events[i].ts_ns, 6 + i);
  }
}

TEST(TraceRecorder, ResetDropsAllTracks) {
  TraceGuard guard;
  auto& rec = TraceRecorder::instance();
  rec.begin_thread_track("gone", 0);
  rec.instant("x", 1);
  rec.reset();
  EXPECT_TRUE(rec.snapshot().empty());
  // The thread's cached binding is stale after reset; recording re-registers
  // an anonymous track rather than scribbling on freed state.
  rec.instant("y", 2);
  auto tracks = rec.snapshot();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].label, "thread");
  ASSERT_EQ(tracks[0].events.size(), 1u);
  EXPECT_STREQ(tracks[0].events[0].name, "y");
}

TEST(TraceRecorder, SpanRaiiGatesAtConstruction) {
  TraceRecorder::instance().reset();
  VClock vt;
  vt.advance(SimDuration(1000));
  {
    // Built while disabled: must record nothing even though tracing turns on
    // before the destructor runs.
    TraceSpan s("late", vt);
    TraceRecorder::instance().enable();
  }
  for (const auto& t : TraceRecorder::instance().snapshot()) {
    EXPECT_TRUE(t.events.empty());
  }
  TraceRecorder::instance().disable();
  TraceRecorder::instance().reset();
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON export
// ---------------------------------------------------------------------------

TEST(TraceExport, EmitsValidChromeJson) {
  TraceGuard guard;
  auto& rec = TraceRecorder::instance();
  rec.begin_thread_track("master", -1);
  rec.span_begin("job", 1000);
  rec.flow_start("shuffle", 7, 1500, 2);
  rec.counter("queue_depth", 1600, 3);
  rec.instant("terminate", 1700, 2);
  rec.flow_end("shuffle", 7, 1800, 2);
  rec.span_end("job", 2000);

  std::ostringstream os;
  rec.export_chrome_json(os);
  std::string json = os.str();

  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Metadata names the process/thread; the master maps to json pid 0.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Timestamps are microseconds with ns precision: 1000 ns -> 1.000 us.
  EXPECT_NE(json.find("1.000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

struct TracedRun {
  RunReport report;
  std::vector<TraceRecorder::TrackSnapshot> tracks;
};

// One seeded SSSP run on a fresh free cluster, traced end to end.
TracedRun run_traced_sssp(int iterations, int checkpoint_every = 0) {
  auto cluster = testutil::free_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.001, 7);
  Sssp::setup(*cluster, g, 0, "in");
  IterJobConf conf = Sssp::imapreduce("in", "out", iterations);
  conf.num_tasks = 4;
  conf.checkpoint_every = checkpoint_every;
  TracedRun out;
  out.report = IterativeEngine(*cluster).run(conf);
  out.tracks = TraceRecorder::instance().snapshot();
  return out;
}

bool is_map_task(const TraceRecorder::TrackSnapshot& t) {
  return t.pid >= 0 && t.label.find("/m") != std::string::npos &&
         t.label.find("/aux/") == std::string::npos;
}
bool is_reduce_task(const TraceRecorder::TrackSnapshot& t) {
  return t.pid >= 0 && t.label.find("/r") != std::string::npos &&
         t.label.find("/aux/") == std::string::npos;
}

TEST(TraceEngine, SpanNestingIsStackCorrectPerTrack) {
  TraceGuard guard;
  TracedRun run = run_traced_sssp(/*iterations=*/4, /*checkpoint_every=*/2);
  ASSERT_GT(run.report.iterations_run, 0);
  ASSERT_FALSE(run.tracks.empty());

  for (const auto& t : run.tracks) {
    ASSERT_EQ(t.dropped, 0) << "ring wrapped on " << t.label;
    std::vector<const char*> stack;
    for (const auto& e : t.events) {
      if (e.type == TraceEventType::kSpanBegin) {
        stack.push_back(e.name);
      } else if (e.type == TraceEventType::kSpanEnd) {
        ASSERT_FALSE(stack.empty())
            << "unmatched span end '" << e.name << "' on " << t.label;
        EXPECT_STREQ(stack.back(), e.name) << "on track " << t.label;
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty())
        << "unclosed span '" << stack.back() << "' on " << t.label;
  }
}

TEST(TraceEngine, EveryTaskHasPerIterationSpans) {
  TraceGuard guard;
  const int kIterations = 4;
  TracedRun run = run_traced_sssp(kIterations);
  ASSERT_EQ(run.report.iterations_run, kIterations);

  int map_tasks = 0, reduce_tasks = 0;
  std::set<int> map_iters_seen, reduce_iters_seen;
  for (const auto& t : run.tracks) {
    if (!is_map_task(t) && !is_reduce_task(t)) continue;
    const char* want = is_map_task(t) ? "map_iter" : "reduce_iter";
    (is_map_task(t) ? map_tasks : reduce_tasks)++;
    std::set<int> iters;
    for (const auto& e : t.events) {
      if (e.type == TraceEventType::kSpanBegin &&
          std::string(e.name) == want) {
        iters.insert(e.iter);
        (is_map_task(t) ? map_iters_seen : reduce_iters_seen).insert(e.iter);
      }
    }
    // Every persistent task iterates every decided iteration.
    for (int k = 1; k <= run.report.iterations_run; ++k) {
      EXPECT_TRUE(iters.count(k))
          << t.label << " has no " << want << " span for iteration " << k;
    }
  }
  EXPECT_EQ(map_tasks, 4);
  EXPECT_EQ(reduce_tasks, 4);
  // The master decided each iteration and said so.
  std::set<int> decided;
  for (const auto& t : run.tracks) {
    for (const auto& e : t.events) {
      if (e.type == TraceEventType::kInstant &&
          std::string(e.name) == "iteration_decided") {
        decided.insert(e.iter);
      }
    }
  }
  for (int k = 1; k <= kIterations; ++k) EXPECT_TRUE(decided.count(k));
}

TEST(TraceEngine, FlowEventsPairAcrossTasks) {
  TraceGuard guard;
  const int kIterations = 4;
  TracedRun run = run_traced_sssp(kIterations);
  ASSERT_EQ(run.report.iterations_run, kIterations);

  std::multiset<int64_t> starts;
  std::set<int64_t> ends;
  std::set<int> reduce_to_map_iters;
  for (const auto& t : run.tracks) {
    for (const auto& e : t.events) {
      if (e.type == TraceEventType::kFlowStart) {
        starts.insert(e.value);
        if (std::string(e.name) == "reduce_to_map") {
          reduce_to_map_iters.insert(e.iter);
        }
      } else if (e.type == TraceEventType::kFlowEnd) {
        // A message is received exactly once.
        EXPECT_TRUE(ends.insert(e.value).second)
            << "flow id " << e.value << " received twice";
      }
    }
  }
  EXPECT_FALSE(ends.empty()) << "no flow arrows recorded at all";
  // Every receive matches exactly one send. (Dangling sends are legal — a
  // message can still sit in a queue when the run tears down.)
  for (int64_t id : ends) {
    EXPECT_EQ(starts.count(id), 1u) << "flow id " << id;
  }
  // The reduce->map loop is the paper's defining edge. Iteration k's reduce
  // ships state tagged for iteration k+1 (engine.cpp: out_iter = k + 1), so
  // every iteration after the first must have been FED by such a flow.
  for (int k = 2; k <= kIterations; ++k) {
    EXPECT_TRUE(reduce_to_map_iters.count(k))
        << "no reduce_to_map flow feeding iteration " << k;
  }
}

// The determinism contract: same seed, same config => same span/instant
// multiset per (normalized) track. Flow ids and counter samples are excluded
// — ids are handed out in thread arrival order; the EVENTS compared are the
// semantic timeline. The job tag's "#N" process-global counter suffix is
// normalized away.
std::string normalize_label(const std::string& label) {
  std::string out;
  for (std::size_t i = 0; i < label.size(); ++i) {
    out.push_back(label[i]);
    if (label[i] == '#') {
      while (i + 1 < label.size() &&
             std::isdigit(static_cast<unsigned char>(label[i + 1]))) {
        ++i;
      }
    }
  }
  return out;
}

using SemanticEvent = std::tuple<std::string, int, std::string, int, int>;

std::map<std::string, std::multiset<SemanticEvent>> semantic_events(
    const std::vector<TraceRecorder::TrackSnapshot>& tracks) {
  std::map<std::string, std::multiset<SemanticEvent>> out;
  for (const auto& t : tracks) {
    std::string label = normalize_label(t.label);
    for (const auto& e : t.events) {
      if (e.type != TraceEventType::kSpanBegin &&
          e.type != TraceEventType::kSpanEnd &&
          e.type != TraceEventType::kInstant) {
        continue;
      }
      out[label].insert(SemanticEvent(label, static_cast<int>(e.type),
                                      e.name, e.iter, e.gen));
    }
  }
  return out;
}

TEST(TraceEngine, SameSeedRunsProduceIdenticalSemanticEvents) {
  TraceGuard guard;
  TracedRun a = run_traced_sssp(/*iterations=*/3);
  TraceRecorder::instance().reset();
  TracedRun b = run_traced_sssp(/*iterations=*/3);

  EXPECT_EQ(a.report.iterations_run, b.report.iterations_run);
  auto ea = semantic_events(a.tracks);
  auto eb = semantic_events(b.tracks);
  ASSERT_EQ(ea.size(), eb.size());
  for (const auto& [label, events] : ea) {
    auto it = eb.find(label);
    ASSERT_NE(it, eb.end()) << "track " << label << " missing in second run";
    EXPECT_EQ(events.size(), it->second.size()) << "on track " << label;
    EXPECT_TRUE(events == it->second)
        << "event multiset differs on track " << label;
  }
}

TEST(TraceEngine, ExportedEngineTraceIsValidJson) {
  TraceGuard guard;
  TracedRun run = run_traced_sssp(/*iterations=*/3, /*checkpoint_every=*/2);
  ASSERT_EQ(run.report.iterations_run, 3);

  std::ostringstream os;
  TraceRecorder::instance().export_chrome_json(os);
  std::string json = os.str();
  EXPECT_GT(json.size(), 1000u);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("map_iter"), std::string::npos);
  EXPECT_NE(json.find("reduce_iter"), std::string::npos);
  EXPECT_NE(json.find("checkpoint"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chaos integration: a worker death must show up as a fault instant on the
// dying task's timeline, with rollback spans on the survivors and a recovery
// span on the master.
// ---------------------------------------------------------------------------

TEST(TraceChaos, FaultInstantsAndRecoverySpansAppear) {
  // Make sure the harness does not try to export trace files here.
  ::unsetenv("IMR_TRACE");
  TraceGuard guard;

  auto cluster = testutil::free_cluster(3, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.001, 5);
  Sssp::setup(*cluster, g, 0, "in");
  IterJobConf conf = Sssp::imapreduce("in", "out", /*max_iterations=*/6);
  conf.num_tasks = 4;
  conf.checkpoint_every = 2;

  FaultSchedule schedule;
  FaultEvent e;
  e.worker = 1;
  e.at_iteration = 3;
  e.point = FaultPoint::kMidMap;
  schedule.add(e);

  InvariantExpectations expect;
  expect.expected_recoveries = 1;
  expect.expected_parts = 4;
  auto result = chaos::run_chaos_job(*cluster, conf, schedule,
                                     ChannelFaultConfig{}, expect);
  EXPECT_TRUE(result.violations.empty())
      << ::testing::PrintToString(result.violations);

  bool fault_instant = false, failure_instant = false;
  bool rollback_span = false, checkpoint_span = false, recovery_span = false;
  for (const auto& t : TraceRecorder::instance().snapshot()) {
    for (const auto& ev : t.events) {
      std::string name = ev.name;
      if (ev.type == TraceEventType::kInstant) {
        if (name == "fault:mid_map") fault_instant = true;
        if (name == "worker_failure") failure_instant = true;
      } else if (ev.type == TraceEventType::kSpanBegin) {
        if (name == "rollback") rollback_span = true;
        if (name == "checkpoint") checkpoint_span = true;
        if (name == "recovery") recovery_span = true;
      }
    }
  }
  EXPECT_TRUE(fault_instant) << "no fault:mid_map instant recorded";
  EXPECT_TRUE(failure_instant) << "no worker_failure instant recorded";
  EXPECT_TRUE(rollback_span) << "no rollback span recorded";
  EXPECT_TRUE(checkpoint_span) << "no checkpoint span recorded";
  EXPECT_TRUE(recovery_span) << "no recovery span on the master track";
}

// Every injection point, kSpillWrite included, names its trace instant
// after fault_point_name, so a traced fault says which point fired.
TEST(TraceChaos, EveryFaultPointNamesItsInstant) {
  TraceGuard guard;
  auto cluster = testutil::free_cluster(1, 1, 1);
  FaultSchedule schedule;
  for (int p = 0; p < kNumFaultPoints; ++p) {
    schedule.add(0, static_cast<FaultPoint>(p), 1);
  }
  cluster->set_fault_schedule(schedule);
  VClock vt;
  for (int p = 0; p < kNumFaultPoints; ++p) {
    ASSERT_TRUE(cluster->consume_fault(0, static_cast<FaultPoint>(p), 1, &vt));
  }

  std::multiset<std::string> instants;
  for (const auto& t : TraceRecorder::instance().snapshot()) {
    for (const auto& ev : t.events) {
      if (ev.type == TraceEventType::kInstant) instants.insert(ev.name);
    }
  }
  for (int p = 0; p < kNumFaultPoints; ++p) {
    const char* name = fault_point_name(static_cast<FaultPoint>(p));
    EXPECT_EQ(instants.count(std::string("fault:") + name), 1u) << name;
  }
}

}  // namespace
}  // namespace imr
