// imr_run — command-line driver for the framework.
//
//   imr_run <algorithm> [flags]
//
// Algorithms: sssp | pagerank | concomp | kmeans | jacobi | logreg | matpower
//
// Common flags:
//   --engine imr|mr|both   which framework to run (default both)
//   --workers N            cluster size (default 4)
//   --tasks N              persistent task pairs (default = workers)
//   --iterations N         max iterations (default 10)
//   --threshold X          distance threshold (default: fixed iterations)
//   --sync                 disable asynchronous map execution
//   --workset              workset (frontier) iteration for the imr engine
//                          (sssp | concomp | pagerank; pagerank switches to
//                          its delta-accumulation formulation)
//   --update-batch PATH    evolving-input session (requires --workset and a
//                          graph algorithm): converge, then replay the graph
//                          edits in PATH against the live session instead of
//                          recomputing from scratch. One edit per line:
//                            add <u> <v> [w] | remove <u> <v> | weight <u> <v> <w>
//                          A line of "---" ends a batch; each batch is one
//                          apply_update() epoch.
//   --delta-threshold X    pagerank --workset share threshold (default 1e-8)
//   --partitioner P        hash | bfs | file — how keys map to task pairs
//                          (graph algorithms; default hash). bfs grows seeded
//                          balanced regions over the graph; file loads a
//                          METIS-style assignment (see --partition-file).
//                          Non-hash partitioners also drive partition-aware
//                          task placement (DESIGN.md §9).
//   --partition-file PATH  vertex->partition file for --partitioner file
//                          (line i = partition of vertex i; '#' comments)
//   --agg-exchange         aggregate remote-destined shuffle output into one
//                          coalesced batch per destination worker, flushed at
//                          the iteration barrier (DESIGN.md §9)
//   --buffer N             reduce->map send buffer records
//   --max-memory B         per-task memory budget in bytes, with optional
//                          k/m/g suffix (binary units, e.g. 64m). A map
//                          over the budget ships the output it holds; a
//                          reduce over it sorts and spills runs to MiniDfs
//                          and streams a k-way merge over them — same
//                          output bytes, bounded footprint (DESIGN.md §10).
//                          Combines with --agg-exchange. Default:
//                          unlimited.
//   --checkpoint N         checkpoint every N iterations
//   --balance              enable load balancing
//   --combiner             enable the map-side combiner (kmeans)
//   --ec2                  use the EC2 cost preset instead of local
//   --data-scale S         cost-model scaling for 1/S-size datasets
//   --seed S               dataset seed
//   --report               dump the metrics report after the run
//   --trace PATH           record a Chrome/Perfetto trace of the run(s) and
//                          write it to PATH (or set IMR_TRACE=<path>)
//   --telemetry PATH       record iteration telemetry (traffic matrix, hot
//                          keys, stragglers) and write the JSONL to PATH
//                          (or set IMR_TELEMETRY=<path>); analyze it with
//                          tools/imr_stat
//
// Dataset flags: --graph <name> --scale <s> (graph algorithms),
//   --points/--dim/--clusters (kmeans), --samples/--lr (logreg),
//   --n/--density (jacobi), --n (matpower).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "algorithms/concomp.h"
#include "algorithms/jacobi.h"
#include "algorithms/kmeans.h"
#include "algorithms/logreg.h"
#include "algorithms/matpower.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "bench_util/harness.h"
#include "common/flags.h"
#include "common/log.h"
#include "common/strings.h"
#include "graph/generator.h"
#include "graph/partition.h"
#include "imapreduce/engine.h"
#include "mapreduce/iterative_driver.h"
#include "metrics/telemetry.h"
#include "metrics/trace.h"

using namespace imr;

namespace {

struct Options {
  std::string engine = "both";
  int workers = 4;
  int tasks = 0;
  int iterations = 10;
  double threshold = -1.0;
  bool sync = false;
  bool workset = false;
  double delta_threshold = 1e-8;
  int buffer = 4096;
  int checkpoint = 0;
  bool balance = false;
  bool combiner = false;
  bool ec2 = false;
  double data_scale = 1.0;
  uint64_t seed = 42;
  bool report = false;
  std::string partitioner = "hash";  // hash | bfs | file
  std::string partition_file;       // METIS-style assignment for "file"
  bool agg = false;                 // aggregated cross-worker exchange
  std::string max_memory_raw;  // --max-memory as given; parsed in main
  int64_t max_memory = 0;      // parsed byte budget; 0 = unlimited
  std::string trace;  // trace export path; empty = no tracing
  std::string telemetry;  // telemetry JSONL export path; empty = disabled
  std::string update_batch;  // graph-edit script; empty = plain run
};

Options parse_options(const Flags& flags) {
  Options o;
  o.engine = flags.get("engine", "both");
  o.workers = flags.get_int("workers", 4);
  o.tasks = flags.get_int("tasks", 0);
  o.iterations = flags.get_int("iterations", 10);
  o.threshold = flags.get_double("threshold", -1.0);
  o.sync = flags.get_bool("sync");
  o.workset = flags.get_bool("workset");
  o.delta_threshold = flags.get_double("delta-threshold", 1e-8);
  o.buffer = flags.get_int("buffer", 4096);
  o.checkpoint = flags.get_int("checkpoint", 0);
  o.balance = flags.get_bool("balance");
  o.combiner = flags.get_bool("combiner");
  o.ec2 = flags.get_bool("ec2");
  o.data_scale = flags.get_double("data-scale", 1.0);
  o.seed = flags.get_int<uint64_t>("seed", 42);
  o.report = flags.get_bool("report");
  o.partitioner = flags.get("partitioner", "hash");
  o.partition_file = flags.get("partition-file", "");
  o.agg = flags.get_bool("agg-exchange");
  o.max_memory_raw = flags.get("max-memory", "");
  o.update_batch = flags.get("update-batch", "");
  o.trace = flags.get("trace", "");
  if (o.trace.empty()) {
    // IMR_TRACE=<path> arms tracing at process start (see metrics/trace.h);
    // honor its value as the export path.
    const char* env = std::getenv("IMR_TRACE");
    if (env != nullptr) o.trace = env;
  }
  o.telemetry = flags.get("telemetry", "");
  if (o.telemetry.empty()) {
    // IMR_TELEMETRY=<path> arms telemetry at process start (see
    // metrics/telemetry.h); honor its value as the export path.
    const char* env = std::getenv("IMR_TELEMETRY");
    if (env != nullptr) o.telemetry = env;
  }
  return o;
}

std::unique_ptr<Cluster> make_cluster(const Options& o) {
  ClusterConfig config = o.ec2 ? bench::ec2_preset(o.workers, o.data_scale)
                               : bench::local_cluster_preset(o.data_scale);
  config.num_workers = o.workers;
  return std::make_unique<Cluster>(config);
}

void apply_common(IterJobConf& conf, const Options& o) {
  conf.num_tasks = o.tasks;
  if (o.sync) conf.async_maps = false;
  conf.workset_mode = o.workset;
  conf.buffer_records = o.buffer;
  conf.checkpoint_every = o.checkpoint;
  conf.load_balancing = o.balance;
  conf.aggregated_shuffle = o.agg;
  conf.max_task_memory_bytes = o.max_memory;
}

// Builds the conf's partitioner from --partitioner/--partition-file (graph
// algorithms only; flag combinations are validated in main). A non-hash
// partitioner pins conf.num_tasks: the partition count must equal the
// engine's task count, so the default ("fill the slots") is resolved here.
void apply_partitioner(IterJobConf& conf, const Options& o, const Graph& g,
                       const Cluster& cluster) {
  if (o.partitioner == "hash") return;
  const int t = o.tasks > 0
                    ? o.tasks
                    : std::min(cluster.map_slots(), cluster.reduce_slots());
  conf.num_tasks = t;
  if (o.partitioner == "bfs") {
    conf.partitioner =
        make_bfs_partitioner(g, static_cast<uint32_t>(t), o.seed);
  } else {  // "file"
    conf.partitioner = make_file_partitioner(
        load_partition_file(o.partition_file, g.num_nodes()), g,
        static_cast<uint32_t>(t));
  }
}

// One parsed batch of graph edits from an --update-batch script.
using EditBatch = std::vector<std::vector<std::string>>;

// Splits the script into batches at "---" lines; "#" starts a comment.
std::vector<EditBatch> parse_update_script(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open update batch: " + path);
  std::vector<EditBatch> batches(1);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tok(line);
    std::vector<std::string> words;
    std::string w;
    while (tok >> w) words.push_back(w);
    if (words.empty()) continue;
    if (words[0] == "---") {
      if (!batches.back().empty()) batches.emplace_back();
      continue;
    }
    batches.back().push_back(std::move(words));
  }
  if (batches.back().empty()) batches.pop_back();
  return batches;
}

uint32_t parse_node(const std::string& s, uint32_t num_nodes) {
  uint32_t v = 0;
  if (!parse_int_strict(s, v) || v >= num_nodes) {
    throw Error("update batch: bad node id '" + s + "'");
  }
  return v;
}

// Applies one batch of edits to a copy of `g` and returns the mutated graph.
Graph apply_edits(const Graph& g, const EditBatch& batch) {
  Graph out = g;
  for (const auto& words : batch) {
    const std::string& op = words[0];
    if ((op == "add" && (words.size() < 3 || words.size() > 4)) ||
        (op == "remove" && words.size() != 3) ||
        (op == "weight" && words.size() != 4)) {
      throw Error("update batch: malformed edit '" + join(words, " ") + "'");
    }
    if (op != "add" && op != "remove" && op != "weight") {
      throw Error("update batch: unknown op '" + op + "'");
    }
    const uint32_t u = parse_node(words[1], out.num_nodes());
    const uint32_t v = parse_node(words[2], out.num_nodes());
    double w = 1.0;
    if (words.size() == 4 && !parse_double_strict(words[3], w)) {
      throw Error("update batch: bad weight '" + words[3] + "'");
    }
    auto& edges = out.adj[u];
    auto it = std::find_if(edges.begin(), edges.end(),
                           [v](const WEdge& e) { return e.dst == v; });
    if (op == "remove") {
      if (it == edges.end()) {
        throw Error("update batch: remove of absent edge " + words[1] + "->" +
                    words[2]);
      }
      edges.erase(it);
    } else if (it != edges.end()) {
      it->weight = w;
    } else {
      edges.push_back(WEdge{v, w});
    }
  }
  return out;
}

void print_outcome(const char* label, const RunReport& r) {
  std::printf("%-22s %3d iterations  %10.1f virtual s  %s\n", label,
              r.iterations_run, r.total_wall_ms / 1e3,
              r.converged ? "(converged)" : "");
}

// Evolving-input session (DESIGN.md §8): converge once, then absorb each
// edit batch through apply_update instead of recomputing from scratch.
RunReport run_update_session(Cluster& cluster, const IterJobConf& conf,
                             Graph g, const std::vector<EditBatch>& batches,
                             StaticDelta (*delta_fn)(const Graph&,
                                                     const Graph&)) {
  IterativeEngine engine(cluster);
  JobSession session = engine.open_session(conf);
  print_outcome("session converge:", session.last_report());
  int n = 0;
  for (const EditBatch& batch : batches) {
    Graph g1 = apply_edits(g, batch);
    const StaticDelta delta = delta_fn(g, g1);
    const RunReport ep = session.apply_update(delta);
    const std::string label =
        "update batch " + std::to_string(++n) + " (" +
        std::to_string(batch.size()) + " edits, " +
        std::to_string(delta.size()) + " ops):";
    print_outcome(label.c_str(), ep);
    g = std::move(g1);
  }
  return session.close();
}

int usage() {
  std::fprintf(stderr,
               "usage: imr_run <sssp|pagerank|concomp|kmeans|jacobi|logreg|"
               "matpower> [flags]\n  (see the header of tools/imr_run.cpp)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.positional().empty()) return usage();
  const std::string algo = flags.positional()[0];
  Options o;
  try {
    o = parse_options(flags);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (flags.get_bool("verbose")) set_log_level(LogLevel::kInfo);
  if (o.workset && algo != "sssp" && algo != "concomp" && algo != "pagerank") {
    std::fprintf(stderr,
                 "error: --workset is wired for sssp|concomp|pagerank (the "
                 "jobs whose reducers implement the monotonic-update merge "
                 "contract)\n");
    return 2;
  }

  if (!o.update_batch.empty() && !o.workset) {
    std::fprintf(stderr,
                 "error: --update-batch needs --workset (sessions reconverge "
                 "from a frontier) and a graph algorithm\n");
    return 2;
  }

  const bool graph_algo =
      algo == "sssp" || algo == "pagerank" || algo == "concomp";
  if (o.partitioner != "hash" && o.partitioner != "bfs" &&
      o.partitioner != "file") {
    std::fprintf(stderr, "error: --partitioner must be hash, bfs, or file\n");
    return 2;
  }
  if (o.partitioner == "file" && o.partition_file.empty()) {
    std::fprintf(stderr,
                 "error: --partitioner file needs --partition-file <path>\n");
    return 2;
  }
  if (!o.partition_file.empty() && o.partitioner != "file") {
    std::fprintf(stderr,
                 "error: --partition-file only applies to --partitioner "
                 "file\n");
    return 2;
  }
  if (o.partitioner != "hash" && !graph_algo) {
    std::fprintf(stderr,
                 "error: --partitioner is wired for the graph algorithms "
                 "(sssp|pagerank|concomp)\n");
    return 2;
  }
  if (!o.max_memory_raw.empty() &&
      !parse_byte_count(o.max_memory_raw, o.max_memory)) {
    std::fprintf(stderr,
                 "error: --max-memory wants a positive byte count with an "
                 "optional k/m/g suffix (e.g. 64m, 1g), got '%s'\n",
                 o.max_memory_raw.c_str());
    return 2;
  }

  if (!o.trace.empty()) TraceRecorder::instance().enable();
  if (!o.telemetry.empty()) TelemetryRecorder::instance().enable();

  auto cluster = make_cluster(o);
  // An update session has no MapReduce counterpart — the baseline for
  // evolving inputs IS the cold recompute, which `--engine imr` without
  // --update-batch gives you.
  const bool session = !o.update_batch.empty();
  const bool run_mr = !session && (o.engine == "mr" || o.engine == "both");
  const bool run_imr = o.engine == "imr" || o.engine == "both";
  RunReport mr, imr;

  try {
    if (algo == "sssp" || algo == "pagerank" || algo == "concomp") {
      const std::string graph_name =
          flags.get("graph", algo == "pagerank" ? "google" : "dblp");
      const double scale = flags.get_double("scale", 0.01);
      Graph g = algo == "pagerank"
                    ? make_pagerank_graph(graph_name, scale, o.seed)
                    : make_sssp_graph(graph_name, scale, o.seed);
      std::printf("graph %s: %u nodes, %llu edges\n", graph_name.c_str(),
                  g.num_nodes(),
                  static_cast<unsigned long long>(g.num_edges()));
      if (algo == "sssp") {
        Sssp::setup(*cluster, g, 0, "data");
        if (run_mr) {
          IterativeDriver driver(*cluster);
          mr = driver.run(
              Sssp::baseline("data", "work", o.iterations, o.threshold));
        }
        if (run_imr) {
          IterJobConf conf =
              Sssp::imapreduce("data", "out", o.iterations, o.threshold);
          apply_common(conf, o);
          apply_partitioner(conf, o, g, *cluster);
          imr = session ? run_update_session(
                              *cluster, conf, g,
                              parse_update_script(o.update_batch),
                              &Sssp::static_delta)
                        : IterativeEngine(*cluster).run(conf);
        }
      } else if (algo == "pagerank") {
        PageRank::setup(*cluster, g, "data");
        if (run_mr) {
          IterativeDriver driver(*cluster);
          mr = driver.run(PageRank::baseline("data", "work", g.num_nodes(),
                                             o.iterations, o.threshold));
        }
        if (run_imr && o.workset) {
          // The plain power-iteration job is not workset-eligible (a node's
          // rank needs ALL in-neighbor shares); switch to the accumulative
          // delta formulation (see algorithms/pagerank.h).
          PageRank::setup_delta(*cluster, g, "data_delta");
          IterJobConf conf = PageRank::imapreduce_delta(
              "data_delta", "out", o.iterations, o.delta_threshold);
          apply_common(conf, o);
          apply_partitioner(conf, o, g, *cluster);
          imr = session ? run_update_session(
                              *cluster, conf, g,
                              parse_update_script(o.update_batch),
                              &PageRank::static_delta)
                        : IterativeEngine(*cluster).run(conf);
        } else if (run_imr) {
          IterJobConf conf = PageRank::imapreduce(
              "data", "out", g.num_nodes(), o.iterations, o.threshold);
          apply_common(conf, o);
          apply_partitioner(conf, o, g, *cluster);
          imr = IterativeEngine(*cluster).run(conf);
        }
      } else {
        ConComp::setup(*cluster, g, "data");
        if (run_mr) {
          IterativeDriver driver(*cluster);
          mr = driver.run(
              ConComp::baseline("data", "work", o.iterations, o.threshold));
        }
        if (run_imr) {
          IterJobConf conf =
              ConComp::imapreduce("data", "out", o.iterations, o.threshold);
          apply_common(conf, o);
          apply_partitioner(conf, o, g, *cluster);
          imr = session ? run_update_session(
                              *cluster, conf, g,
                              parse_update_script(o.update_batch),
                              &ConComp::static_delta)
                        : IterativeEngine(*cluster).run(conf);
        }
      }
    } else if (algo == "kmeans") {
      KMeansDataSpec spec;
      spec.num_points = flags.get_int<uint32_t>("points", 10000);
      spec.dim = flags.get_int("dim", 8);
      spec.num_clusters = flags.get_int("clusters", 10);
      spec.seed = o.seed;
      auto points = KMeans::generate_points(spec);
      KMeans::setup(*cluster, points, spec.num_clusters, "data");
      if (run_mr) {
        IterativeDriver driver(*cluster);
        mr = driver.run(KMeans::baseline("data", "work", o.iterations,
                                         o.threshold, o.combiner));
      }
      if (run_imr) {
        IterJobConf conf = KMeans::imapreduce("data", "out", o.iterations,
                                              o.threshold, o.combiner);
        apply_common(conf, o);
        imr = IterativeEngine(*cluster).run(conf);
      }
    } else if (algo == "jacobi") {
      JacobiSystem sys =
          Jacobi::generate(flags.get_int<uint32_t>("n", 1000),
                           flags.get_double("density", 0.02), o.seed);
      Jacobi::setup(*cluster, sys, "data");
      if (run_mr) {
        IterativeDriver driver(*cluster);
        mr = driver.run(
            Jacobi::baseline("data", "work", o.iterations, o.threshold));
      }
      if (run_imr) {
        IterJobConf conf =
            Jacobi::imapreduce("data", "out", o.iterations, o.threshold);
        apply_common(conf, o);
        imr = IterativeEngine(*cluster).run(conf);
      }
    } else if (algo == "logreg") {
      LogRegDataSpec spec;
      spec.num_samples = flags.get_int<uint32_t>("samples", 5000);
      spec.dim = flags.get_int("dim", 6);
      spec.seed = o.seed;
      double lr = flags.get_double("lr", 0.5);
      auto data = LogReg::generate(spec);
      LogReg::setup(*cluster, data, spec.dim, "data");
      if (run_mr) {
        IterativeDriver driver(*cluster);
        mr = driver.run(LogReg::baseline("data", "work", spec.dim,
                                         o.iterations, lr, o.threshold));
      }
      if (run_imr) {
        IterJobConf conf = LogReg::imapreduce("data", "out", spec.dim,
                                              o.iterations, lr, o.threshold);
        apply_common(conf, o);
        imr = IterativeEngine(*cluster).run(conf);
      }
      if (run_imr) {
        std::printf("accuracy: %.3f\n",
                    LogReg::accuracy(data, LogReg::read_result(*cluster, "out")));
      }
    } else if (algo == "matpower") {
      Matrix m = MatPower::generate(flags.get_int<uint32_t>("n", 64), o.seed);
      MatPower::setup(*cluster, m, "data");
      if (run_mr) {
        IterativeDriver driver(*cluster);
        mr = driver.run(MatPower::baseline("data", "work", o.iterations));
      }
      if (run_imr) {
        IterJobConf conf = MatPower::imapreduce("data", "out", o.iterations);
        conf.num_tasks = o.tasks;
        conf.buffer_records = o.buffer;
        conf.max_task_memory_bytes = o.max_memory;
        imr = IterativeEngine(*cluster).run(conf);
      }
    } else {
      return usage();
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("\n");
  if (run_mr) print_outcome("MapReduce:", mr);
  if (run_imr) print_outcome("iMapReduce:", imr);
  if (run_mr && run_imr && imr.total_wall_ms > 0) {
    std::printf("speedup: %.2fx\n", mr.total_wall_ms / imr.total_wall_ms);
  }
  if (o.report) {
    std::printf("\n%s", cluster->metrics().report().c_str());
  }
  if (!o.trace.empty()) {
    if (TraceRecorder::instance().export_to_file(o.trace)) {
      std::printf("trace written to %s (load in https://ui.perfetto.dev)\n",
                  o.trace.c_str());
    } else {
      std::fprintf(stderr, "error: could not write trace to %s\n",
                   o.trace.c_str());
      return 1;
    }
  }
  if (!o.telemetry.empty()) {
    if (TelemetryRecorder::instance().export_to_file(o.telemetry)) {
      std::printf("telemetry written to %s (analyze with imr_stat)\n",
                  o.telemetry.c_str());
    } else {
      std::fprintf(stderr, "error: could not write telemetry to %s\n",
                   o.telemetry.c_str());
      return 1;
    }
  }
  return 0;
}
