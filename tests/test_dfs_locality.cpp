// DFS locality & placement behaviour: replica placement, split preferences,
// partitioned-read charging, and the block-size knob.
#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/hash.h"
#include "tests/test_util.h"

namespace imr {
namespace {

KVVec sized_records(int n, std::size_t value_size) {
  KVVec recs;
  for (int i = 0; i < n; ++i) {
    recs.emplace_back(u32_key(static_cast<uint32_t>(i)),
                      Bytes(value_size, 'v'));
  }
  return recs;
}

TEST(DfsLocality, WriterAlwaysHoldsAReplica) {
  ClusterConfig cfg;
  cfg.num_workers = 10;
  cfg.cost = CostModel::local_cluster();
  cfg.cost.dfs_replication = 2;
  Cluster cluster(cfg);
  for (int w = 0; w < 10; ++w) {
    std::string path = "f" + std::to_string(w);
    cluster.dfs().write_file(path, sized_records(200, 64), w, nullptr);
    // Reading from the writer must be at the local rate: compare with a
    // reader that cannot hold a replica... identify by cost.
    VClock as_writer, as_other;
    cluster.dfs().read_all(path, w, &as_writer);
    // Worst case reader: probe all others, take the max (some may hold the
    // second replica).
    int64_t worst = 0;
    for (int r = 0; r < 10; ++r) {
      if (r == w) continue;
      VClock c;
      cluster.dfs().read_all(path, r, &c);
      worst = std::max(worst, c.now_ns());
    }
    EXPECT_LT(as_writer.now_ns(), worst);
  }
}

TEST(DfsLocality, SplitsPreferReplicaHolders) {
  ClusterConfig cfg;
  cfg.num_workers = 6;
  cfg.cost = CostModel::local_cluster();
  cfg.cost.dfs_block_size = 2048;
  Cluster cluster(cfg);
  cluster.dfs().write_file("f", sized_records(2000, 64), 2, nullptr);
  auto splits = cluster.dfs().make_splits("f", 4);
  for (const auto& s : splits) {
    // Single-block-group splits must carry the block's replica set.
    for (int w : s.preferred_workers) {
      EXPECT_GE(w, 0);
      EXPECT_LT(w, 6);
    }
  }
  // At least one split should have preferences (replication factor 3 > 0).
  bool any = false;
  for (const auto& s : splits) any = any || !s.preferred_workers.empty();
  EXPECT_TRUE(any);
}

TEST(DfsLocality, PartitionedReadChargesOnlySelectedBytes) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.cost = CostModel::local_cluster();
  Cluster cluster(cfg);
  cluster.dfs().write_file("f", sized_records(4000, 64), 0, nullptr);

  VClock full, part;
  cluster.dfs().read_all("f", 1, &full);
  cluster.dfs().read_partition(
      "f", 0, [](BytesView k) { return partition_of(k, 8); }, 1, &part);
  // One of eight partitions costs roughly an eighth of the full read.
  EXPECT_LT(part.now_ns(), full.now_ns() / 4);
  EXPECT_GT(part.now_ns(), 0);
}

TEST(DfsLocality, PartitionsOfOneIsFullFile) {
  auto cluster = testutil::free_cluster();
  KVVec recs = sized_records(100, 16);
  cluster->dfs().write_file("f", recs, 0, nullptr);
  EXPECT_EQ(cluster->dfs().read_partition(
                "f", 0, [](BytesView k) { return partition_of(k, 1); }, 0,
                nullptr),
            recs);
}

TEST(DfsLocality, SmallerBlocksMeanMoreSplits) {
  auto count_splits = [](std::size_t block_size) {
    ClusterConfig cfg;
    cfg.num_workers = 8;
    cfg.cost = CostModel::free();
    cfg.cost.dfs_block_size = block_size;
    Cluster cluster(cfg);
    cluster.dfs().write_file("f", sized_records(1000, 64), 0, nullptr);
    return cluster.dfs().make_splits("f", 1000).size();
  };
  EXPECT_GT(count_splits(1024), count_splits(16384));
}

TEST(DfsLocality, ScaledForDataShrinksBlocks) {
  CostModel base = CostModel::local_cluster();
  CostModel scaled = base.scaled_for_data(100.0);
  EXPECT_EQ(scaled.dfs_block_size, base.dfs_block_size / 100);
  // Floors at a sane minimum.
  CostModel tiny = base.scaled_for_data(1e9);
  EXPECT_GE(tiny.dfs_block_size, 4096u);
}

TEST(DfsLocality, ReplicationCappedByClusterSize) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.cost = CostModel::local_cluster();  // replication 3 > 2 workers
  Cluster cluster(cfg);
  cluster.dfs().write_file("f", sized_records(10, 16), 0, nullptr);
  // Both workers hold replicas; any reader is local.
  VClock c0, c1;
  cluster.dfs().read_all("f", 0, &c0);
  cluster.dfs().read_all("f", 1, &c1);
  EXPECT_EQ(c0.now_ns(), c1.now_ns());
}

}  // namespace
}  // namespace imr
