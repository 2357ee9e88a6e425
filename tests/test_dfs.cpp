// MiniDfs tests: namespace, blocks, replicas, locality cost, splits,
// partitioned reads, and traffic accounting.
#include <gtest/gtest.h>

#include "common/codec.h"

#include "common/hash.h"
#include "tests/test_util.h"

namespace imr {
namespace {

KVVec make_records(int n, std::size_t value_size = 16) {
  KVVec recs;
  for (int i = 0; i < n; ++i) {
    Bytes key;
    encode_u32(static_cast<uint32_t>(i), key);
    recs.emplace_back(std::move(key), Bytes(value_size, 'v'));
  }
  return recs;
}

TEST(MiniDfs, WriteReadRoundTrip) {
  auto cluster = testutil::free_cluster();
  KVVec recs = make_records(100);
  cluster->dfs().write_file("f", recs, 0, nullptr);
  EXPECT_TRUE(cluster->dfs().exists("f"));
  EXPECT_EQ(cluster->dfs().read_all("f", 0, nullptr), recs);
  EXPECT_EQ(cluster->dfs().file_records("f"), 100u);
}

TEST(MiniDfs, MissingFileThrows) {
  auto cluster = testutil::free_cluster();
  EXPECT_THROW(cluster->dfs().read_all("nope", 0, nullptr), DfsError);
  EXPECT_THROW(cluster->dfs().file_bytes("nope"), DfsError);
}

TEST(MiniDfs, RemoveAndList) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("dir/a", make_records(1), 0, nullptr);
  cluster->dfs().write_file("dir/b", make_records(1), 0, nullptr);
  cluster->dfs().write_file("other", make_records(1), 0, nullptr);
  EXPECT_EQ(cluster->dfs().list("dir/"),
            (std::vector<std::string>{"dir/a", "dir/b"}));
  cluster->dfs().remove("dir/a");
  EXPECT_FALSE(cluster->dfs().exists("dir/a"));
  EXPECT_EQ(cluster->dfs().list("dir/").size(), 1u);
}

TEST(MiniDfs, OverwriteReplaces) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("f", make_records(10), 0, nullptr);
  cluster->dfs().write_file("f", make_records(3), 0, nullptr);
  EXPECT_EQ(cluster->dfs().file_records("f"), 3u);
}

TEST(MiniDfs, SplitsCoverFileDisjointly) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.cost = CostModel::free();
  cfg.cost.dfs_block_size = 512;  // force many blocks
  Cluster cluster(cfg);
  cluster.dfs().write_file("f", make_records(1000, 32), 0, nullptr);

  for (int want : {1, 2, 3, 7}) {
    auto splits = cluster.dfs().make_splits("f", want);
    ASSERT_GE(splits.size(), 1u);
    ASSERT_LE(static_cast<int>(splits.size()), want);
    std::size_t cursor = 0;
    std::size_t total = 0;
    for (const auto& s : splits) {
      EXPECT_EQ(s.begin, cursor);
      EXPECT_GT(s.end, s.begin);
      cursor = s.end;
      total += s.end - s.begin;
    }
    EXPECT_EQ(cursor, 1000u);
    EXPECT_EQ(total, 1000u);
  }
}

TEST(MiniDfs, ReadSplitReturnsExactRange) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.cost = CostModel::free();
  cfg.cost.dfs_block_size = 256;
  Cluster cluster(cfg);
  KVVec recs = make_records(500, 32);
  cluster.dfs().write_file("f", recs, 0, nullptr);
  auto splits = cluster.dfs().make_splits("f", 4);
  KVVec reassembled;
  for (const auto& s : splits) {
    KVVec part = cluster.dfs().read_split(s, 0, nullptr);
    reassembled.insert(reassembled.end(), part.begin(), part.end());
  }
  EXPECT_EQ(reassembled, recs);
}

TEST(MiniDfs, ReadPartitionMatchesHashPartitioner) {
  auto cluster = testutil::free_cluster();
  KVVec recs = make_records(1000);
  cluster->dfs().write_file("f", recs, 0, nullptr);
  std::size_t total = 0;
  for (uint32_t p = 0; p < 7; ++p) {
    KVVec part = cluster->dfs().read_partition(
        "f", p, [](BytesView k) { return partition_of(k, 7); }, 0, nullptr);
    for (const KV& kv : part) {
      EXPECT_EQ(partition_of(kv.key, 7), p);
    }
    total += part.size();
  }
  EXPECT_EQ(total, 1000u);
}

TEST(MiniDfs, LocalReadCheaperThanRemote) {
  ClusterConfig cfg;
  cfg.num_workers = 8;
  cfg.cost = CostModel::local_cluster();
  cfg.cost.dfs_replication = 1;  // exactly one replica: on the writer
  Cluster cluster(cfg);
  cluster.dfs().write_file("f", make_records(5000, 64), /*writer=*/2, nullptr);

  VClock local, remote;
  cluster.dfs().read_all("f", 2, &local);
  cluster.dfs().read_all("f", 3, &remote);
  EXPECT_LT(local.now_ns(), remote.now_ns());
  // The local read stays on the reader's diagonal; the remote one comes
  // from the block's primary replica, worker 2.
  const auto bytes = static_cast<int64_t>(cluster.dfs().file_bytes("f"));
  const TrafficMatrixSnapshot m = cluster.metrics().traffic_matrix();
  EXPECT_EQ(m.cell(2, 2, TrafficCategory::kDfsRead).bytes, bytes);
  EXPECT_EQ(m.cell(2, 3, TrafficCategory::kDfsRead).bytes, bytes);
  EXPECT_EQ(m.category_bytes(TrafficCategory::kDfsRead), 2 * bytes);
  EXPECT_EQ(m.category_remote_bytes(TrafficCategory::kDfsRead), bytes);
}

TEST(MiniDfs, WriteChargesReplicationTraffic) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.cost = CostModel::local_cluster();  // replication = 3
  Cluster cluster(cfg);
  KVVec recs = make_records(100, 64);
  std::size_t bytes = wire_size(recs);
  cluster.dfs().write_file("f", std::move(recs), 0, nullptr);
  // 2 remote copies of every byte.
  EXPECT_EQ(cluster.metrics().traffic_remote_bytes(TrafficCategory::kDfsWrite),
            static_cast<int64_t>(2 * bytes));
  // The writer's own copy is one transfer on its diagonal; the two copies
  // are one more, from the writer to the other replicas.
  const TrafficMatrixSnapshot m = cluster.metrics().traffic_matrix();
  EXPECT_EQ(m.cell(0, 0, TrafficCategory::kDfsWrite).bytes,
            static_cast<int64_t>(bytes));
  EXPECT_EQ(m.category_bytes(TrafficCategory::kDfsWrite),
            static_cast<int64_t>(3 * bytes));
  EXPECT_EQ(m.category_msgs(TrafficCategory::kDfsWrite), 2);
  int copies = 0;
  for (int to = 1; to < 4; ++to) {
    const TrafficCell& c = m.cell(0, to, TrafficCategory::kDfsWrite);
    EXPECT_TRUE(c.bytes == 0 || c.bytes == static_cast<int64_t>(bytes));
    copies += c.bytes > 0 ? 1 : 0;
  }
  EXPECT_EQ(copies, 2);
}

TEST(MiniDfs, CheckpointCategoryTracked) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("ckpt/1", make_records(10), 0, nullptr,
                            TrafficCategory::kCheckpoint);
  EXPECT_GT(cluster->metrics().traffic_bytes(TrafficCategory::kCheckpoint), 0);
  EXPECT_EQ(cluster->metrics().traffic_bytes(TrafficCategory::kDfsWrite), 0);
}

TEST(MiniDfs, EmptyFileReadable) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("empty", {}, 0, nullptr);
  EXPECT_TRUE(cluster->dfs().read_all("empty", 0, nullptr).empty());
  auto splits = cluster->dfs().make_splits("empty", 3);
  EXPECT_EQ(splits.size(), 1u);
}

}  // namespace
}  // namespace imr
