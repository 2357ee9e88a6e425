#include "mapreduce/iterative_driver.h"

#include "cluster/task_context.h"
#include "common/codec.h"
#include "common/log.h"
#include "mapreduce/shuffle_util.h"

namespace imr {

namespace {

constexpr char kPrevTag = 'P';
constexpr char kCurTag = 'C';

// Check-job mapper: tag each record with which iteration output it came from.
class TagMapper : public Mapper {
 public:
  explicit TagMapper(char tag) : tag_(tag) {}
  void map(const Bytes& key, const Bytes& value, Emitter& out) override {
    Bytes tagged;
    tagged.reserve(value.size() + 1);
    tagged.push_back(tag_);
    tagged.append(value);
    out.emit(key, std::move(tagged));
  }

 private:
  char tag_;
};

}  // namespace

RunReport IterativeDriver::run(const IterativeSpec& spec) {
  IMR_CHECK_MSG(!spec.stages.empty(), "iterative spec has no stages");
  for (const auto& s : spec.stages) {
    IMR_CHECK_MSG(s.mapper && s.reducer, "stage missing mapper or reducer");
  }
  if (spec.distance_threshold >= 0) {
    IMR_CHECK_MSG(spec.distance != nullptr,
                  "distance function required for threshold termination");
  }
  if (!spec.iterate_input) {
    IMR_CHECK_MSG(!spec.initial_state.empty(),
                  "initial_state required when input is not iterated");
  }

  RunReport report;
  report.label = spec.name + "/mapreduce";
  int64_t vt = 0;
  double cum_init_ms = 0;
  // The driver thread's trace timeline. Label and pid deliberately match the
  // per-iteration TaskContext below ("<name>-driver", worker 0) so those
  // short-lived contexts collapse onto this one track instead of spawning a
  // fresh track per iteration.
  const bool traced = TraceRecorder::enabled();
  TraceRecorder::TrackHandle prev_track = nullptr;
  if (traced) {
    prev_track =
        TraceRecorder::instance().begin_thread_track(spec.name + "-driver", 0);
  }
  // The iterated stream: previous iteration's final output (seeded by the
  // initial input or the initial state).
  std::string prev_output =
      spec.iterate_input ? spec.initial_input : spec.initial_state;

  for (int k = 1; k <= spec.max_iterations; ++k) {
    if (traced) TraceRecorder::instance().span_begin("iteration", vt, k);
    double iter_init_ms = 0;
    std::string stage_input =
        spec.iterate_input ? prev_output : spec.initial_input;
    std::string iter_output;

    for (std::size_t s = 0; s < spec.stages.size(); ++s) {
      const IterativeSpec::Stage& stage = spec.stages[s];
      JobConf body;
      body.name =
          spec.name + "-it" + std::to_string(k) + "-s" + std::to_string(s);
      body.set_input(stage_input, stage.mapper);
      for (const auto& side : stage.side_inputs) body.inputs.push_back(side);
      // Intermediate stages get a _s<N> suffix; the final stage's output is
      // the iteration output proper.
      body.output_path = spec.work_dir + "/iter" + std::to_string(k) +
                         (s + 1 < spec.stages.size() ? "_s" + std::to_string(s)
                                                     : "");
      if (stage.use_cache) body.cache_path = prev_output;
      body.reducer = stage.reducer;
      body.combiner = stage.combiner;
      body.num_map_tasks = spec.num_map_tasks;
      body.num_reduce_tasks = spec.num_reduce_tasks;
      body.params = spec.params;

      JobResult res = engine_.run_job(body, vt);
      vt = res.end_vt_ns;
      iter_init_ms += static_cast<double>(res.critical_init_ns) / 1e6;

      if (s + 1 < spec.stages.size()) {
        stage_input = body.output_path;
      } else {
        iter_output = body.output_path;
      }
    }

    IterationStat st;
    st.iteration = k;
    st.distance = -1;

    // Convergence-check job (the paper's "additional MapReduce job").
    bool stop = false;
    if (spec.distance_threshold >= 0) {
      DistanceFn dist = spec.distance;
      JobConf check;
      check.name = spec.name + "-check" + std::to_string(k);
      check.inputs.push_back(InputSpec{
          prev_output, [] { return std::make_unique<TagMapper>(kPrevTag); }});
      check.inputs.push_back(InputSpec{
          iter_output, [] { return std::make_unique<TagMapper>(kCurTag); }});
      check.output_path = spec.work_dir + "/check" + std::to_string(k);
      check.reducer = make_reducer([dist](const Bytes& key,
                                          const std::vector<Bytes>& values,
                                          Emitter& out) {
        Bytes prev, cur;
        for (const Bytes& v : values) {
          IMR_CHECK_MSG(!v.empty(), "untagged value in check job");
          if (v[0] == kPrevTag) {
            prev = v.substr(1);
          } else {
            cur = v.substr(1);
          }
        }
        Bytes enc;
        encode_f64(dist(key, prev, cur), enc);
        out.emit(key, std::move(enc));
      });
      check.num_map_tasks = spec.num_map_tasks > 0 ? spec.num_map_tasks : 0;
      check.num_reduce_tasks = spec.num_reduce_tasks;
      check.params = spec.params;

      JobResult cres = engine_.run_job(check, vt);
      vt = cres.end_vt_ns;
      iter_init_ms += static_cast<double>(cres.critical_init_ns) / 1e6;

      // The driver (client program) reads the tiny distance output.
      TaskContext master(cluster_, spec.name + "-driver", 0, vt);
      double total = 0;
      for (const auto& part :
           resolve_input_paths(cluster_.dfs(), check.output_path)) {
        for (const KV& kv : master.dfs_read_all(part)) {
          total += as_f64(kv.value);
        }
      }
      vt = master.vt().now_ns();
      st.distance = total;
      stop = total < spec.distance_threshold;
      for (const auto& f : cluster_.dfs().list(check.output_path + "/")) {
        cluster_.dfs().remove(f);
      }
    }

    cum_init_ms += iter_init_ms;
    st.wall_ms_end = static_cast<double>(vt) / 1e6;
    st.init_ms = iter_init_ms;
    report.iterations.push_back(st);
    report.iterations_run = k;
    if (traced) TraceRecorder::instance().span_end("iteration", vt);

    IMR_INFO << spec.name << " [MapReduce] iteration " << k << " done at "
             << st.wall_ms_end << " ms, distance " << st.distance;

    // Garbage-collect: intermediate stage outputs of this iteration, and
    // whole-iteration outputs older than the previous one (the next check
    // job still needs iter k-1).
    if (spec.gc_intermediate) {
      for (std::size_t s = 0; s + 1 < spec.stages.size(); ++s) {
        std::string mid =
            spec.work_dir + "/iter" + std::to_string(k) + "_s" +
            std::to_string(s);
        for (const auto& f : cluster_.dfs().list(mid + "/")) {
          cluster_.dfs().remove(f);
        }
      }
      if (k >= 3) {
        std::string old = spec.work_dir + "/iter" + std::to_string(k - 2);
        for (const auto& f : cluster_.dfs().list(old + "/")) {
          cluster_.dfs().remove(f);
        }
      }
    }
    prev_output = iter_output;
    final_output_ = iter_output;

    if (stop) {
      report.converged = true;
      break;
    }
  }

  report.total_wall_ms = static_cast<double>(vt) / 1e6;
  report.init_wall_ms = cum_init_ms;
  report.capture(cluster_.metrics());
  if (traced) TraceRecorder::instance().set_thread_track(prev_track);
  return report;
}

}  // namespace imr
