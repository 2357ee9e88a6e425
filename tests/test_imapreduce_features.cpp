// iMapReduce extension & runtime-support tests: one2all broadcast (K-means,
// Jacobi), multi-phase iterations (matrix power), auxiliary phases,
// checkpoint-based fault recovery, and load-balancing migration.
#include <gtest/gtest.h>

#include "algorithms/jacobi.h"
#include "algorithms/kmeans.h"
#include "algorithms/matpower.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "graph/generator.h"
#include "imapreduce/engine.h"
#include "tests/test_util.h"

namespace imr {
namespace {

using testutil::expect_near_vectors;

// ---------------------------------------------------------------------------
// One2all broadcast (§5.1)
// ---------------------------------------------------------------------------

TEST(ImrOne2All, KMeansMatchesReference) {
  auto cluster = testutil::free_cluster();
  KMeansDataSpec dspec;
  dspec.num_points = 800;
  dspec.dim = 4;
  dspec.num_clusters = 5;
  auto points = KMeans::generate_points(dspec);
  KMeans::setup(*cluster, points, 5, "km");

  IterativeEngine engine(*cluster);
  RunReport report = engine.run(KMeans::imapreduce("km", "out", 4));
  EXPECT_EQ(report.iterations_run, 4);

  auto init = KMeans::read_result(*cluster, "km/centroids0", false);
  auto expected = KMeans::reference(points, init, 4);
  auto actual = KMeans::read_result(*cluster, "out", false);
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [cid, c] : expected) {
    ASSERT_TRUE(actual.count(cid));
    for (std::size_t d = 0; d < c.size(); ++d) {
      EXPECT_NEAR(c[d], actual[cid][d], 1e-9);
    }
  }
}

TEST(ImrOne2All, KMeansCombinerSameResultLessShuffle) {
  auto run = [](bool combiner) {
    auto cluster = testutil::costed_cluster();
    KMeansDataSpec dspec;
    dspec.num_points = 600;
    dspec.dim = 4;
    auto points = KMeans::generate_points(dspec);
    KMeans::setup(*cluster, points, 8, "km");
    cluster->metrics().reset();
    IterativeEngine engine(*cluster);
    engine.run(KMeans::imapreduce("km", "out", 3, -1.0, combiner));
    return std::make_pair(
        KMeans::read_result(*cluster, "out", false),
        cluster->metrics().traffic_bytes(TrafficCategory::kShuffle));
  };
  auto [plain, plain_bytes] = run(false);
  auto [combined, combined_bytes] = run(true);
  ASSERT_EQ(plain.size(), combined.size());
  for (const auto& [cid, c] : plain) {
    for (std::size_t d = 0; d < c.size(); ++d) {
      EXPECT_NEAR(c[d], combined.at(cid)[d], 1e-9);
    }
  }
  EXPECT_LT(combined_bytes, plain_bytes);
}

TEST(ImrOne2All, KMeansMatchesBaseline) {
  auto cluster = testutil::free_cluster();
  KMeansDataSpec dspec;
  dspec.num_points = 500;
  dspec.dim = 3;
  auto points = KMeans::generate_points(dspec);
  KMeans::setup(*cluster, points, 6, "km");

  IterativeDriver driver(*cluster);
  driver.run(KMeans::baseline("km", "work", 3));
  auto mr = KMeans::read_result(*cluster, driver.final_output(), false);

  IterativeEngine engine(*cluster);
  engine.run(KMeans::imapreduce("km", "out", 3));
  auto imr = KMeans::read_result(*cluster, "out", false);

  ASSERT_EQ(mr.size(), imr.size());
  for (const auto& [cid, c] : mr) {
    for (std::size_t d = 0; d < c.size(); ++d) {
      EXPECT_NEAR(c[d], imr.at(cid)[d], 1e-9);
    }
  }
}

TEST(ImrOne2All, JacobiConvergesToSolution) {
  auto cluster = testutil::free_cluster();
  JacobiSystem sys = Jacobi::generate(200, 0.05, 13);
  Jacobi::setup(*cluster, sys, "jac");

  IterativeEngine engine(*cluster);
  RunReport report = engine.run(Jacobi::imapreduce("jac", "out", 30, 1e-10));
  EXPECT_TRUE(report.converged);

  auto x = Jacobi::read_result(*cluster, "out", sys.n);
  // Residual check: ||Ax - b|| small.
  for (uint32_t i = 0; i < sys.n; ++i) {
    double lhs = sys.diag[i] * x[i];
    for (const WEdge& e : sys.off_diag[i]) lhs += e.weight * x[e.dst];
    EXPECT_NEAR(lhs, sys.b[i], 1e-6) << "row " << i;
  }
}

TEST(ImrOne2All, JacobiMatchesReferenceAndBaseline) {
  auto cluster = testutil::free_cluster();
  JacobiSystem sys = Jacobi::generate(120, 0.08, 17);
  Jacobi::setup(*cluster, sys, "jac");

  IterativeEngine engine(*cluster);
  engine.run(Jacobi::imapreduce("jac", "out", 8));
  auto imr = Jacobi::read_result(*cluster, "out", sys.n);
  expect_near_vectors(Jacobi::reference(sys, 8), imr, 1e-10);

  IterativeDriver driver(*cluster);
  driver.run(Jacobi::baseline("jac", "work", 8));
  auto mr = Jacobi::read_result(*cluster, driver.final_output(), sys.n);
  expect_near_vectors(imr, mr, 1e-12);
}

TEST(ImrOne2All, RequiresStaticData) {
  auto cluster = testutil::free_cluster();
  JacobiSystem sys = Jacobi::generate(20, 0.2, 1);
  Jacobi::setup(*cluster, sys, "jac");
  IterJobConf conf = Jacobi::imapreduce("jac", "out", 2);
  conf.phases[0].static_path.clear();
  EXPECT_THROW(conf.validate(), ConfigError);
  IterativeEngine engine(*cluster);
  EXPECT_THROW(engine.run(conf), ConfigError);
}

// ---------------------------------------------------------------------------
// Multi-phase iterations (§5.2)
// ---------------------------------------------------------------------------

TEST(ImrMultiPhase, MatrixPowerMatchesReference) {
  auto cluster = testutil::free_cluster();
  Matrix m = MatPower::generate(24, 31);
  MatPower::setup(*cluster, m, "mat");

  IterativeEngine engine(*cluster);
  RunReport report = engine.run(MatPower::imapreduce("mat", "out", 3));
  EXPECT_EQ(report.iterations_run, 3);

  Matrix expected = MatPower::reference(m, 3);
  Matrix actual = MatPower::read_result(*cluster, "out", m.n);
  for (uint32_t i = 0; i < m.n; ++i) {
    for (uint32_t k = 0; k < m.n; ++k) {
      EXPECT_NEAR(expected.at(i, k), actual.at(i, k), 1e-12)
          << i << "," << k;
    }
  }
}

TEST(ImrMultiPhase, MatrixPowerMatchesBaseline) {
  auto cluster = testutil::free_cluster();
  Matrix m = MatPower::generate(16, 33);
  MatPower::setup(*cluster, m, "mat");

  IterativeDriver driver(*cluster);
  driver.run(MatPower::baseline("mat", "work", 2));
  Matrix mr = MatPower::read_result(*cluster, driver.final_output(), m.n);

  IterativeEngine engine(*cluster);
  engine.run(MatPower::imapreduce("mat", "out", 2));
  Matrix imr = MatPower::read_result(*cluster, "out", m.n);

  for (uint32_t i = 0; i < m.n; ++i) {
    for (uint32_t k = 0; k < m.n; ++k) {
      EXPECT_NEAR(mr.at(i, k), imr.at(i, k), 1e-12);
    }
  }
}

TEST(ImrMultiPhase, CheckpointingRejectedForMultiPhase) {
  auto cluster = testutil::free_cluster();
  Matrix m = MatPower::generate(8, 1);
  MatPower::setup(*cluster, m, "mat");
  IterJobConf conf = MatPower::imapreduce("mat", "out", 2);
  conf.checkpoint_every = 1;
  IterativeEngine engine(*cluster);
  EXPECT_THROW(engine.run(conf), ConfigError);
}

// ---------------------------------------------------------------------------
// Auxiliary phase (§5.3)
// ---------------------------------------------------------------------------

TEST(ImrAux, KMeansConvergenceDetectionTerminates) {
  auto cluster = testutil::free_cluster();
  KMeansDataSpec dspec;
  dspec.num_points = 600;
  dspec.dim = 4;
  dspec.num_clusters = 4;
  dspec.spread = 0.05;  // well-separated: assignments stabilize fast
  auto points = KMeans::generate_points(dspec);
  KMeans::setup(*cluster, points, 4, "km");

  IterativeEngine engine(*cluster);
  RunReport report =
      engine.run(KMeans::imapreduce_with_aux("km", "out", 30,
                                             /*move_threshold=*/1));
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.iterations_run, 30);
  EXPECT_GE(cluster->metrics().count("imr_aux_signals"), 1);
}

TEST(ImrAux, WithoutAuxRunsToMaxIter) {
  auto cluster = testutil::free_cluster();
  KMeansDataSpec dspec;
  dspec.num_points = 300;
  dspec.dim = 3;
  auto points = KMeans::generate_points(dspec);
  KMeans::setup(*cluster, points, 4, "km");
  IterativeEngine engine(*cluster);
  RunReport report = engine.run(KMeans::imapreduce("km", "out", 6));
  EXPECT_EQ(report.iterations_run, 6);
  EXPECT_EQ(cluster->metrics().count("imr_aux_signals"), 0);
}

// ---------------------------------------------------------------------------
// Fault tolerance (§3.4.1)
// ---------------------------------------------------------------------------

TEST(ImrFaultTolerance, RecoversFromWorkerFailure) {
  auto cluster = testutil::free_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 5);
  Sssp::setup(*cluster, g, 0, "sssp");

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 8);
  conf.checkpoint_every = 2;
  cluster->schedule_worker_failure(/*worker=*/1, /*at_iteration=*/4);

  IterativeEngine engine(*cluster);
  RunReport report = engine.run(conf);
  EXPECT_EQ(report.iterations_run, 8);
  EXPECT_EQ(cluster->metrics().count("imr_recoveries"), 1);
  EXPECT_FALSE(cluster->worker_alive(1));

  // The recovered run must produce exactly the failure-free result.
  auto expected = Sssp::reference(g, 0, 8);
  expect_near_vectors(expected,
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

TEST(ImrFaultTolerance, RecoveryWithoutCheckpointRestartsFromInitialState) {
  auto cluster = testutil::free_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.001, 7);
  Sssp::setup(*cluster, g, 0, "sssp");

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 6);
  conf.checkpoint_every = 100;  // never checkpoints within the run
  cluster->schedule_worker_failure(2, 3);

  IterativeEngine engine(*cluster);
  RunReport report = engine.run(conf);
  EXPECT_EQ(report.iterations_run, 6);
  auto expected = Sssp::reference(g, 0, 6);
  expect_near_vectors(expected,
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

TEST(ImrFaultTolerance, SurvivesTwoFailures) {
  auto cluster = testutil::free_cluster(6, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.002, 9);
  Sssp::setup(*cluster, g, 0, "sssp");

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 10);
  conf.num_tasks = 6;
  conf.checkpoint_every = 2;
  cluster->schedule_worker_failure(0, 3);
  cluster->schedule_worker_failure(5, 7);

  IterativeEngine engine(*cluster);
  RunReport report = engine.run(conf);
  EXPECT_EQ(report.iterations_run, 10);
  EXPECT_EQ(cluster->metrics().count("imr_recoveries"), 2);
  auto expected = Sssp::reference(g, 0, 10);
  expect_near_vectors(expected,
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

TEST(ImrFaultTolerance, CheckpointsAreWritten) {
  auto cluster = testutil::free_cluster();
  Graph g = make_sssp_graph("dblp", 0.001, 3);
  Sssp::setup(*cluster, g, 0, "sssp");
  IterJobConf conf = Sssp::imapreduce("sssp", "out", 6);
  conf.num_tasks = 5;
  conf.checkpoint_every = 2;
  IterativeEngine engine(*cluster);
  engine.run(conf);
  // 3 checkpoint rounds x num_tasks part files.
  EXPECT_EQ(cluster->metrics().count("imr_checkpoints"), 3 * 5);
  EXPECT_GT(cluster->metrics().traffic_bytes(TrafficCategory::kCheckpoint), 0);
}

// ---------------------------------------------------------------------------
// Load balancing (§3.4.2)
// ---------------------------------------------------------------------------

TEST(ImrLoadBalance, MigratesFromSlowWorkerAndStaysCorrect) {
  auto cluster = testutil::costed_cluster(4, 4, 4);
  cluster->set_worker_speed(0, 0.05);  // heterogeneous cluster: worker 0 slow
  // Large enough that per-iteration compute dominates the fixed network/DFS
  // charges — otherwise the slow worker is not measurably slower.
  Graph g = make_sssp_graph("facebook", 0.01, 19);
  Sssp::setup(*cluster, g, 0, "sssp");
  cluster->metrics().reset();

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 10);
  conf.checkpoint_every = 1;
  conf.load_balancing = true;
  conf.migration_threshold = 0.5;

  IterativeEngine engine(*cluster);
  RunReport report = engine.run(conf);
  EXPECT_EQ(report.iterations_run, 10);
  EXPECT_GE(cluster->metrics().count("imr_migrations"), 1);
  // A Kill is not a Terminate: a migrated pair's killed reduce dumps no part
  // and sends no Done, so the Done notices come from the 16 live pairs
  // alone, each at the final iteration.
  EXPECT_EQ(report.final_part_iterations,
            std::vector<int>(16, report.iterations_run));

  auto expected = Sssp::reference(g, 0, 10);
  expect_near_vectors(expected,
                      Sssp::read_result_imr(*cluster, "out", g.num_nodes()),
                      1e-12);
}

TEST(ImrLoadBalance, NoMigrationOnHomogeneousCluster) {
  auto cluster = testutil::costed_cluster(4, 4, 4);
  Graph g = make_sssp_graph("dblp", 0.001, 23);
  Sssp::setup(*cluster, g, 0, "sssp");
  cluster->metrics().reset();

  IterJobConf conf = Sssp::imapreduce("sssp", "out", 8);
  conf.checkpoint_every = 1;
  conf.load_balancing = true;
  conf.migration_threshold = 3.0;  // generous: noise never triggers it

  IterativeEngine engine(*cluster);
  engine.run(conf);
  EXPECT_EQ(cluster->metrics().count("imr_migrations"), 0);
}

}  // namespace
}  // namespace imr
