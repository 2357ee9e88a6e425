// Baseline-engine edge cases: empty inputs, silent mappers, multi-record
// reducers, many-small-files packing, mapper flush, chained jobs.
#include <gtest/gtest.h>

#include "common/codec.h"
#include "mapreduce/engine.h"
#include "tests/test_util.h"

namespace imr {
namespace {

MapperFactory identity_mapper() {
  return make_mapper([](const Bytes& k, const Bytes& v, Emitter& out) {
    out.emit(k, v);
  });
}

ReducerFactory identity_reducer() {
  return make_reducer(
      [](const Bytes& k, const std::vector<Bytes>& vs, Emitter& out) {
        for (const Bytes& v : vs) out.emit(k, v);
      });
}

KVVec numbered_records(int n) {
  KVVec recs;
  for (int i = 0; i < n; ++i) {
    recs.emplace_back(u32_key(static_cast<uint32_t>(i)),
                      u64_key(static_cast<uint64_t>(i) * 3));
  }
  return recs;
}

KVVec read_output(Cluster& cluster, const std::string& path) {
  KVVec all;
  for (const auto& part : resolve_input_paths(cluster.dfs(), path)) {
    KVVec p = cluster.dfs().read_all(part, -1, nullptr);
    all.insert(all.end(), p.begin(), p.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

TEST(MapReduceMore, IdentityJobRoundTrips) {
  auto cluster = testutil::free_cluster();
  KVVec recs = numbered_records(500);
  cluster->dfs().write_file("in", recs, 0, nullptr);
  JobConf job;
  job.set_input("in", identity_mapper());
  job.output_path = "out";
  job.reducer = identity_reducer();
  MapReduceEngine engine(*cluster);
  engine.run_job(job);
  std::sort(recs.begin(), recs.end());
  EXPECT_EQ(read_output(*cluster, "out"), recs);
}

TEST(MapReduceMore, EmptyInputProducesEmptyOutput) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("in", {}, 0, nullptr);
  JobConf job;
  job.set_input("in", identity_mapper());
  job.output_path = "out";
  job.reducer = identity_reducer();
  MapReduceEngine engine(*cluster);
  JobResult res = engine.run_job(job);
  EXPECT_EQ(res.map_input_records, 0);
  EXPECT_EQ(res.reduce_output_records, 0);
  EXPECT_TRUE(read_output(*cluster, "out").empty());
}

TEST(MapReduceMore, SilentMapperIsFine) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("in", numbered_records(100), 0, nullptr);
  JobConf job;
  job.set_input("in", make_mapper([](const Bytes&, const Bytes&, Emitter&) {}));
  job.output_path = "out";
  job.reducer = identity_reducer();
  MapReduceEngine engine(*cluster);
  JobResult res = engine.run_job(job);
  EXPECT_EQ(res.map_output_records, 0);
  EXPECT_TRUE(read_output(*cluster, "out").empty());
}

TEST(MapReduceMore, ReducerMayEmitManyRecordsPerKey) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("in", numbered_records(10), 0, nullptr);
  JobConf job;
  job.set_input("in", identity_mapper());
  job.output_path = "out";
  job.reducer = make_reducer(
      [](const Bytes& k, const std::vector<Bytes>& vs, Emitter& out) {
        for (const Bytes& v : vs) {
          out.emit(k, v);
          out.emit(k + Bytes("#dup"), v);
        }
      });
  MapReduceEngine engine(*cluster);
  JobResult res = engine.run_job(job);
  EXPECT_EQ(res.reduce_output_records, 20);
}

TEST(MapReduceMore, ManySmallFilesPackIntoSlotLimit) {
  // 40 part files on a cluster with 16 map slots: the engine must combine
  // them (CombineFileInputFormat behaviour) instead of refusing.
  auto cluster = testutil::free_cluster(4, 4, 4);
  KVVec expected;
  for (int f = 0; f < 40; ++f) {
    KVVec recs;
    recs.emplace_back(u32_key(static_cast<uint32_t>(f)), Bytes("v"));
    expected.emplace_back(u32_key(static_cast<uint32_t>(f)), Bytes("v"));
    cluster->dfs().write_file("dir/part-" + std::to_string(1000 + f),
                              std::move(recs), f % 4, nullptr);
  }
  JobConf job;
  job.set_input("dir", identity_mapper());
  job.output_path = "out";
  job.reducer = identity_reducer();
  MapReduceEngine engine(*cluster);
  JobResult res = engine.run_job(job);
  EXPECT_EQ(res.map_input_records, 40);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(read_output(*cluster, "out"), expected);
}

TEST(MapReduceMore, MapperFlushEmitsPerTaskAggregates) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("in", numbered_records(64), 0, nullptr);

  class CountingMapper : public Mapper {
   public:
    void map(const Bytes&, const Bytes&, Emitter&) override { ++count_; }
    void flush(Emitter& out) override {
      out.emit(Bytes("total"), u64_key(count_));
    }

   private:
    uint64_t count_ = 0;
  };

  JobConf job;
  job.set_input("in", [] { return std::make_unique<CountingMapper>(); });
  job.output_path = "out";
  job.num_map_tasks = 4;
  job.num_reduce_tasks = 1;
  job.reducer = make_reducer(
      [](const Bytes& k, const std::vector<Bytes>& vs, Emitter& out) {
        uint64_t total = 0;
        for (const Bytes& v : vs) total += as_u64(v);
        out.emit(k, u64_key(total));
      });
  MapReduceEngine engine(*cluster);
  engine.run_job(job);
  KVVec out = read_output(*cluster, "out");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(as_u64(out[0].value), 64u);
}

TEST(MapReduceMore, SingleReduceTaskCollectsEverything) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("in", numbered_records(200), 0, nullptr);
  JobConf job;
  job.set_input("in", identity_mapper());
  job.output_path = "out";
  job.num_reduce_tasks = 1;
  job.reducer = identity_reducer();
  MapReduceEngine engine(*cluster);
  engine.run_job(job);
  auto parts = cluster->dfs().list("out/");
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(cluster->dfs().file_records(parts[0]), 200u);
}

TEST(MapReduceMore, ChainedJobsShareNoState) {
  auto cluster = testutil::free_cluster();
  cluster->dfs().write_file("in", numbered_records(50), 0, nullptr);
  MapReduceEngine engine(*cluster);
  JobConf job;
  job.set_input("in", identity_mapper());
  job.output_path = "mid";
  job.reducer = identity_reducer();
  JobResult r1 = engine.run_job(job, 0);

  JobConf job2;
  job2.set_input("mid", identity_mapper());
  job2.output_path = "out";
  job2.reducer = identity_reducer();
  JobResult r2 = engine.run_job(job2, r1.end_vt_ns);
  EXPECT_EQ(read_output(*cluster, "out"), read_output(*cluster, "mid"));
  EXPECT_GE(r2.end_vt_ns, r1.end_vt_ns);
}

}  // namespace
}  // namespace imr
