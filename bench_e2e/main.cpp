// bench_e2e — whole-job benchmark of the iMapReduce runtime.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Closed loop: the driver sets up one job on a fresh cluster, submits it
// through IterativeEngine::run, waits for it, checks it, and only then sets
// up the next. Each job runs in its own forked child process, so no job
// inherits another's heap, threads or peak RSS, and a hung job is killed
// at its deadline instead of blocking the run. The parent generates the
// input and the reference once; children inherit both. The first job of a
// run is a warm-up (and pagerank-spill's budget calibration): checked like
// every job, never sampled, and the output bytes every later job must
// reproduce.
//
//   --trace 0  untraced jobs until `seconds` have passed (at least
//              kMinSamples); every end-to-end metric is the median over them.
//   --trace 1  untraced jobs for half the time, then one job followed by the
//              per-layer replay on its data, one UDF-counting job with
//              telemetry armed, and one traced job; prints the per-layer
//              metrics.
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics; the exit status is non-zero when any job failed.
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bench_e2e.h"
#include "common/hash.h"
#include "common/strings.h"
#include "imapreduce/engine.h"
#include "mapreduce/engine.h"
#include "metrics/telemetry.h"
#include "metrics/trace.h"
#include "net/fabric.h"

namespace imr::e2e {
namespace {

constexpr int kMinSamples = 3;
constexpr int kMinTracedModeSamples = 2;
// Generous: the slowest workload's job takes a few seconds.
constexpr double kJobTimeoutSeconds = 90;
// Large enough that no track of the longest workload (sssp-workset, ~440
// iterations) wraps.
constexpr std::size_t kTraceRingEvents = 1u << 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU of the calling process (every task thread included).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Peak resident memory of the job: free heap is returned to the OS and the
// kernel's high-water mark reset to the current RSS just before the job,
// and VmHWM read right after it.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string json_number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Host-speed reference. The box is shared and its per-core speed drifts by
// 10-30% over minutes, so raw seconds from two runs compare the host's load
// more than the program. Right before each job, a separate short-lived
// process times a fixed, benchmark-owned computation of the record path's
// kind (copy, sort and hash a fixed set of strings; median of
// kReferenceReps passes), and every host-time end-to-end metric is reported
// at reference speed: measured value x kReferenceNominalS / the reference
// time. The factor rescales both sides of a comparison alike, so relative
// changes are kept; the raw values are printed per job.
constexpr int kReferenceStrings = 60000;
constexpr int kReferenceReps = 3;
// About the reference's time on an unloaded 2 GHz Xeon vCPU; it only sets
// the scale of the reported seconds.
constexpr double kReferenceNominalS = 0.05;

double reference_seconds() {
  std::vector<std::string> input;
  input.reserve(kReferenceStrings);
  uint64_t x = 88172645463325252ull;  // xorshift64
  for (int i = 0; i < kReferenceStrings; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    input.push_back(std::to_string(x));
  }
  std::vector<double> t;
  for (int r = 0; r < kReferenceReps; ++r) {
    const double t0 = now_s();
    std::vector<std::string> v = input;
    std::sort(v.begin(), v.end());
    std::unordered_map<std::string, int> counts;
    for (const std::string& s : v) ++counts[s];
    t.push_back(counts.empty() ? 0 : now_s() - t0);
  }
  return median(std::move(t));
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// What a job's child process reports back through its pipe.
struct JobStats {
  char error[480];  // empty when the job passed every per-job check
  double setup_s;
  double wall_s;
  double cpu_s;
  double rss_mb;
  double virtual_s;
  int64_t remote_bytes;
  int64_t map_records;
  int64_t iterations;
  int64_t shuffle_bytes;
  uint64_t output_digest;
  double reference_s;  // host-speed reference, filled in by the parent
};
static_assert(std::is_trivially_copyable_v<JobStats>);

template <typename T>
std::string to_payload(const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::string(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool from_payload(const std::string& payload, T& v) {
  if (payload.size() != sizeof(T)) return false;
  std::memcpy(&v, payload.data(), sizeof(T));
  return true;
}

// Digest of every final part file, in part order, record by record.
uint64_t output_digest(Cluster& cluster, const std::string& path) {
  uint64_t h = fnv1a("");
  for (const auto& part : resolve_input_paths(cluster.dfs(), path)) {
    for (const KV& kv : cluster.dfs().read_all(part, -1, nullptr)) {
      const uint64_t sizes[2] = {kv.key.size(), kv.value.size()};
      h = fnv1a(BytesView(reinterpret_cast<const char*>(sizes), sizeof sizes),
                h);
      h = fnv1a(kv.key, h);
      h = fnv1a(kv.value, h);
    }
  }
  return h;
}

struct JobOptions {
  bool traced = false;
  // Telemetry's hot-key sketch runs inside the timed UDF regions and would
  // inflate the traced job's virtual time, so it is armed on the counting
  // job (whose traffic matrix the invariant checker reconciles) and never on
  // the traced one.
  bool telemetry = false;
  UnitCounts* counts = nullptr;
};

std::string verify(const Workload& w, Job& job, bool with_matrix) {
  Cluster& cluster = *job.cluster;
  InvariantChecker checker(cluster.metrics());
  checker.with_channel_stats(cluster.fabric().channel_stats())
      .with_report(job.report);
  if (with_matrix) {
    checker.with_traffic_matrix(cluster.telemetry().snapshot_matrix());
  }
  std::string err;
  for (const std::string& v : checker.check(w.expectations())) {
    err += (err.empty() ? "invariant: " : "; ") + v;
  }
  if (!err.empty()) return err;
  const int64_t open = job.counters->spill_written -
                       cluster.metrics().count("imr_spill_bytes_read") -
                       cluster.metrics().count("imr_spill_bytes_dropped");
  if (open != 0 || !cluster.dfs().list("spill/").empty()) {
    return "spill ledger left " + std::to_string(open) + " bytes open";
  }
  err = w.check_result(cluster, job.conf);
  return err.empty() ? "" : "result check: " + err;
}

// Child side: one job of `w` on a fresh cluster, measured and checked.
Job run_job(const Workload& w, const JobOptions& opt, JobStats& st) {
  Job job;
  const double t_setup = now_s();
  job.cluster = std::make_unique<Cluster>(bench_cluster_config());
  job.conf = w.setup(*job.cluster);
  st.setup_s = now_s() - t_setup;
  if (opt.counts != nullptr) wrap_counting(job.conf, *opt.counts);
  job.cluster->metrics().reset();
  if (opt.traced) TraceRecorder::instance().enable(kTraceRingEvents);
  if (opt.telemetry) TelemetryRecorder::instance().enable();
  reset_peak_rss();
  const int64_t copies0 = NetMessage::payload_deep_copies();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  job.report = IterativeEngine(*job.cluster).run(job.conf);
  job.wall_s = now_s() - t0;
  st.cpu_s = process_cpu_s() - cpu0;
  st.rss_mb = peak_rss_mb();
  job.deep_copies = NetMessage::payload_deep_copies() - copies0;
  TraceRecorder::instance().disable();
  TelemetryRecorder::instance().disable();

  job.counters.emplace(job.cluster->metrics());
  if (opt.traced) job.spans = span_self_times();
  st.wall_s = job.wall_s;
  st.virtual_s = job.report.total_wall_ms / 1e3;
  st.remote_bytes = job.counters->remote_bytes;
  st.map_records = job.counters->map_records;
  st.iterations = job.report.iterations_run;
  st.shuffle_bytes = job.counters->cat_bytes(TrafficCategory::kShuffle);
  const std::string err = verify(w, job, opt.telemetry);
  std::snprintf(st.error, sizeof st.error, "%s", err.c_str());
  st.output_digest = output_digest(*job.cluster, job.conf.output_path);
  return job;
}

void write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

struct ChildResult {
  JobStats stats{};
  std::string payload;
  std::string error;  // empty when the child ran and the job passed
};

// Runs `body` in a forked child, which sends its JobStats and a payload back
// through a pipe. The child is waited for on every path, and killed when it
// outlives kJobTimeoutSeconds.
ChildResult in_child(const std::function<std::string(JobStats&)>& body) {
  ChildResult out;
  int fds[2];
  if (pipe(fds) != 0) {
    out.error = std::string("pipe: ") + std::strerror(errno);
    return out;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    out.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return out;
  }
  if (pid == 0) {
    close(fds[0]);
    JobStats st{};
    std::string payload;
    try {
      payload = body(st);
    } catch (const std::exception& e) {
      std::snprintf(st.error, sizeof st.error, "job threw: %s", e.what());
    }
    write_all(fds[1], reinterpret_cast<const char*>(&st), sizeof st);
    write_all(fds[1], payload.data(), payload.size());
    _exit(0);
  }
  close(fds[1]);
  std::string buf;
  const double deadline = now_s() + kJobTimeoutSeconds;
  bool timed_out = false;
  while (true) {
    const double left = deadline - now_s();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int ready = poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    char chunk[1 << 16];
    const ssize_t n = read(fds[0], chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (timed_out) kill(pid, SIGKILL);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) {
    out.error = strprintf("job exceeded %.0f s and was killed",
                          kJobTimeoutSeconds);
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
             buf.size() < sizeof(JobStats)) {
    out.error = strprintf("job process died (wait status %d)", status);
  } else {
    std::memcpy(&out.stats, buf.data(), sizeof(JobStats));
    out.stats.error[sizeof out.stats.error - 1] = '\0';
    out.payload = buf.substr(sizeof(JobStats));
    out.error = out.stats.error;
  }
  return out;
}

// One sampled job, as measured, with the host-speed reference timed right
// before it.
struct Sample {
  double wall_s, cpu_s, setup_s, virtual_s, rss_mb, reference_s;
  int64_t remote_bytes, map_records, iterations;
};

// Parent side: runs jobs in children, counts attempts and failures, and
// holds every sampled job to the deterministic counts of the first one.
class Bench {
 public:
  explicit Bench(Workload& w) : w_(w) {}

  // `after` runs in the child on the finished, checked job; its result comes
  // back as the payload. nullopt when the job failed.
  std::optional<ChildResult> run(
      const JobOptions& opt = {},
      const std::function<std::string(Job&)>& after = nullptr) {
    ++attempted_;
    const double reference_s = host_reference();
    ChildResult r = in_child([&](JobStats& st) {
      Job job = run_job(w_, opt, st);
      return after && st.error[0] == '\0' ? after(job) : std::string();
    });
    r.stats.reference_s = reference_s;
    if (r.error.empty() && !(reference_s > 0)) {
      r.error = "host-speed reference process failed";
    }
    if (r.error.empty() && reference_digest_ &&
        r.stats.output_digest != *reference_digest_) {
      r.error = "output bytes differ from the warm-up job's";
    }
    if (!r.error.empty()) {
      fail(r.error);
      return std::nullopt;
    }
    return r;
  }

  // Times the host-speed reference in its own process, so its heap churn
  // reaches no measured job. 0 when that process failed.
  static double host_reference() {
    ChildResult r = in_child(
        [](JobStats&) { return to_payload(reference_seconds()); });
    double seconds = 0;
    return r.error.empty() && from_payload(r.payload, seconds) ? seconds : 0;
  }

  // The first job: never sampled; configures the workload and pins the
  // output bytes every later job must reproduce.
  void warm_up() {
    if (auto r = run()) {
      w_.calibrate(r->stats.shuffle_bytes);
      reference_digest_ = r->stats.output_digest;
    }
  }

  // Adds a finished job to the samples unless its deterministic counts
  // differ from the first sample's: a difference is a determinism failure,
  // never averaged away. pagerank-spill's remote bytes are exempt.
  void add_sample(const JobStats& st) {
    Sample s{st.wall_s,       st.cpu_s,        st.setup_s,
             st.virtual_s,    st.rss_mb,       st.reference_s,
             st.remote_bytes, st.map_records, st.iterations};
    if (!samples_.empty()) {
      const Sample& f = samples_.front();
      if (s.iterations != f.iterations || s.map_records != f.map_records ||
          (w_.exact_remote_bytes() && s.remote_bytes != f.remote_bytes)) {
        fail(strprintf(
            "determinism: iterations/map records/remote bytes "
            "%lld/%lld/%lld, first job %lld/%lld/%lld",
            static_cast<long long>(s.iterations),
            static_cast<long long>(s.map_records),
            static_cast<long long>(s.remote_bytes),
            static_cast<long long>(f.iterations),
            static_cast<long long>(f.map_records),
            static_cast<long long>(f.remote_bytes)));
        return;
      }
    }
    samples_.push_back(s);
    std::printf("  job %2zu: wall %.3f s, cpu %.3f s, setup %.3f s, "
                "virtual %.2f s, rss %.1f MB, reference %.1f ms\n",
                samples_.size(), s.wall_s, s.cpu_s, s.setup_s, s.virtual_s,
                s.rss_mb, s.reference_s * 1e3);
  }

  // Untraced jobs until `seconds` have passed and at least `min_jobs` ran.
  void sample_for(double seconds, int min_jobs) {
    const double deadline = now_s() + seconds;
    for (int n = 0; n < min_jobs || now_s() < deadline; ++n) {
      if (auto r = run()) add_sample(r->stats);
    }
  }

  void fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "FAIL: %s: %s\n", w_.name(), why.c_str());
  }

  template <typename F>
  double median_by(F f) const {
    std::vector<double> v;
    for (const Sample& s : samples_) v.push_back(f(s));
    return median(std::move(v));
  }

  const std::vector<Sample>& samples() const { return samples_; }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  Workload& w_;
  int attempted_ = 0;
  int failed_ = 0;
  std::optional<uint64_t> reference_digest_;
  std::vector<Sample> samples_;
};

// Medians over the sampled jobs. Host times are taken to reference speed
// with the run's median reference time (see kReferenceNominalS): the
// per-job reference is noisier than the drift it corrects.
std::vector<Metric> end_to_end_metrics(const Bench& b) {
  auto med = [&b](auto f) { return b.median_by(f); };
  const double scale =
      kReferenceNominalS / med([](const Sample& s) { return s.reference_s; });
  return {
      {"job_wall_s", "s", scale * med([](const Sample& s) { return s.wall_s; })},
      {"host_cpu_s", "s", scale * med([](const Sample& s) { return s.cpu_s; })},
      {"records_per_s", "1/s", med([](const Sample& s) {
         return static_cast<double>(s.map_records) / s.wall_s;
       }) / scale},
      {"virtual_s", "s",
       scale * med([](const Sample& s) { return s.virtual_s; })},
      {"remote_mb", "MB", med([](const Sample& s) {
         return static_cast<double>(s.remote_bytes) / 1e6;
       })},
      {"iterations", "count", med([](const Sample& s) {
         return static_cast<double>(s.iterations);
       })},
      {"setup_s", "s", scale * med([](const Sample& s) { return s.setup_s; })},
      {"peak_rss_mb", "MB", med([](const Sample& s) { return s.rss_mb; })},
  };
}

// --trace 1: the replay, counting and traced jobs after the untraced ones.
std::vector<Metric> per_layer_run(Bench& bench, const Workload& w) {
  ReplayCosts rc;
  auto replayed = bench.run({}, [&rc](Job& job) {
    rc = replay_layers(*job.cluster, job.conf,
                       job.counters->mean_batch_bytes(),
                       job.conf.max_task_memory_bytes > 0);
    return to_payload(rc);
  });
  if (!replayed || !from_payload(replayed->payload, rc)) return {};
  bench.add_sample(replayed->stats);

  UnitCounts counts;  // each child increments its own copy
  UnitTotals units;
  auto counted = bench.run({.telemetry = true, .counts = &counts},
                           [&counts](Job&) {
                             return to_payload(UnitTotals{
                                 counts.map_calls.load(),
                                 counts.reduce_groups.load(),
                                 counts.reduce_values.load(),
                                 counts.combine_values.load()});
                           });
  if (!counted || !from_payload(counted->payload, units)) return {};

  // The traced job and the replay compare against raw host times of the
  // same run.
  const double wall = bench.median_by([](const Sample& s) { return s.wall_s; });
  const double cpu = bench.median_by([](const Sample& s) { return s.cpu_s; });
  auto traced = bench.run({.traced = true}, [&](Job& job) {
    if (job.spans.unmatched > 0) {
      std::fprintf(stderr, "warning: %lld unmatched trace span events\n",
                   static_cast<long long>(job.spans.unmatched));
    }
    std::string out;
    for (const Metric& m : layer_metrics(w, job, units, rc, wall, cpu)) {
      out += m.name + '\t' + m.unit + '\t' + json_number(m.value) + '\n';
    }
    return out;
  });
  if (!traced) return {};
  std::vector<Metric> metrics;
  std::istringstream lines(traced->payload);
  std::string name, unit, value;
  while (std::getline(lines, name, '\t') && std::getline(lines, unit, '\t') &&
         std::getline(lines, value)) {
    metrics.push_back({name, unit, std::strtod(value.c_str(), nullptr)});
  }
  return metrics;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'; one of:",
                 args.workload.c_str());
    for (const auto& n : workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("bench_e2e %s seed=%llu trace=%d: %d workers, %d task pairs\n",
              w->name(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, kWorkers, kTasks);
  // IMR_TRACE / IMR_TELEMETRY would arm the recorders for every job.
  TraceRecorder::instance().disable();
  TelemetryRecorder::instance().disable();
  const double t_start = now_s();
  Bench bench(*w);
  bench.warm_up();
  std::vector<Metric> metrics;
  if (!args.trace) {
    bench.sample_for(args.seconds, kMinSamples);
    metrics = end_to_end_metrics(bench);
    print_table(strprintf("end-to-end, median of %zu jobs:",
                          bench.samples().size()),
                metrics);
  } else {
    bench.sample_for(args.seconds / 2, kMinTracedModeSamples);
    metrics = per_layer_run(bench, *w);
    print_table("per-layer (traced job, replay, counting job):", metrics);
  }
  const int attempted = bench.attempted();
  const int failed = bench.failed();
  std::printf("  %-40s %16.6g share (%d of %d jobs)\n", "failed_runs",
              static_cast<double>(failed) / attempted, failed, attempted);
  std::printf("  wall time of this run: %.1f s\n", now_s() - t_start);
  const bool correct = failed == 0 && !metrics.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace imr::e2e

int main(int argc, char** argv) {
  imr::e2e::Args args;
  if (!imr::e2e::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return imr::e2e::run(args);
}
