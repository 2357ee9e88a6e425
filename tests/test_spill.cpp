// Memory-governance / out-of-core suite — DESIGN.md §10.
//
// The load-bearing property: a run with a task memory budget — whose maps
// ship over-budget output early and whose reduces sort and spill
// over-budget input to MiniDfs, then stream a k-way merge over the runs —
// must produce the SAME final state, byte for byte, as the unlimited run of
// the same job, across algorithms, iteration modes (bulk, workset,
// session), map modes (async, sync, aggregated exchange), and injected
// worker deaths at the spill write itself. Budgets here are deliberately
// tiny (smaller than one arena block), so every map batch flushes what the
// map holds, every collected reduce batch degrades to disk, and every
// reduce iteration runs the merge path.
//
// Also here: MemoryBudget/RecordArena units, the MergeCursor-vs-sort_records
// identity property, the SpillSet ledger (invariant 11: bytes/runs written ==
// read + dropped on every exit path, torn writes included), the conf
// validation gates, and the classic engine's budgeted reduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/concomp.h"
#include "algorithms/matpower.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "cluster/fault_schedule.h"
#include "cluster/task_context.h"
#include "common/arena.h"
#include "common/codec.h"
#include "common/error.h"
#include "common/record_source.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "dfs/spill.h"
#include "graph/generator.h"
#include "imapreduce/conf.h"
#include "imapreduce/engine.h"
#include "mapreduce/engine.h"
#include "mapreduce/reduce_input.h"
#include "mapreduce/shuffle_util.h"
#include "metrics/invariants.h"
#include "tests/chaos_harness.h"
#include "tests/test_util.h"

namespace imr {
namespace {

using chaos::run_chaos_job;

// Smaller than one arena block: after the first sort maps a block the budget
// is permanently over, so every collected reduce batch spills. The hostile
// extreme — maximum run counts, maximum merge fan-in.
constexpr int64_t kTinyBudget = 512;

constexpr double kPrTheta = 1e-4;

// ---------------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------------

TEST(MemoryBudget, UnlimitedNeverFiresButTracksHwm) {
  MemoryBudget b;  // limit 0
  EXPECT_FALSE(b.limited());
  b.charge(1 << 30);
  EXPECT_FALSE(b.over());
  b.release(1 << 20);
  EXPECT_EQ(b.hwm(), 1 << 30);
  EXPECT_EQ(b.used(), (1 << 30) - (1 << 20));
}

TEST(MemoryBudget, OverOnlyAfterExceedingTheLimit) {
  MemoryBudget b(100);
  EXPECT_TRUE(b.limited());
  b.charge(100);
  EXPECT_FALSE(b.over()) << "at the limit is not over it";
  b.charge(1);
  EXPECT_TRUE(b.over());
  b.release(1);
  EXPECT_FALSE(b.over());
  EXPECT_EQ(b.hwm(), 101);
}

TEST(MemoryBudget, ReleaseClampsAtZero) {
  MemoryBudget b(10);
  b.charge(5);
  b.release(50);
  EXPECT_EQ(b.used(), 0);
  EXPECT_FALSE(b.over());
}

// ---------------------------------------------------------------------------
// RecordArena
// ---------------------------------------------------------------------------

TEST(RecordArena, BlocksArePooledAcrossReset) {
  RecordArena arena;
  for (int i = 0; i < 3; ++i) arena.alloc_array<uint64_t>(5000);  // ~40 KiB
  const std::size_t mapped = arena.block_bytes();
  EXPECT_GE(mapped, 3 * 5000 * sizeof(uint64_t));
  // Same allocation pattern after reset() must not map new blocks.
  for (int round = 0; round < 4; ++round) {
    arena.reset();
    for (int i = 0; i < 3; ++i) arena.alloc_array<uint64_t>(5000);
    EXPECT_EQ(arena.block_bytes(), mapped) << "round " << round;
  }
}

TEST(RecordArena, ChargesAndReleasesTheBudget) {
  MemoryBudget budget(1 << 20);
  {
    RecordArena arena(&budget);
    arena.alloc_array<char>(10);
    EXPECT_EQ(budget.used(), static_cast<int64_t>(arena.block_bytes()));
    EXPECT_GT(budget.used(), 0);
    arena.reset();  // blocks stay mapped — and stay charged
    EXPECT_EQ(budget.used(), static_cast<int64_t>(arena.block_bytes()));
  }
  EXPECT_EQ(budget.used(), 0) << "arena death must release its charge";
  EXPECT_GT(budget.hwm(), 0);
}

TEST(RecordArena, OversizedRequestGetsDedicatedBlock) {
  RecordArena arena;
  const std::size_t big = 3 * RecordArena::kBlockBytes;
  auto* p = arena.alloc_array<char>(big);
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[big - 1] = 2;  // whole range writable
  EXPECT_GE(arena.block_bytes(), big);
}

TEST(RecordArena, ArrayAllocationIsAligned) {
  RecordArena arena;
  arena.alloc_array<char>(1);  // misalign the bump pointer
  auto* p = arena.alloc_array<uint64_t>(4);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(uint64_t), 0u);
}

// ---------------------------------------------------------------------------
// MergeCursor vs sort_records: the identity the out-of-core reduce rests on.
// Records split into chunks IN ARRIVAL ORDER, each chunk sorted the way the
// engines sort runs, merged — must equal sorting the whole buffer, including
// the position tiebreak on exact (key, value) duplicates.
// ---------------------------------------------------------------------------

Bytes nasty_key(Rng& rng, std::size_t n) {
  const uint64_t r = rng.next_u64();
  switch (r % 5) {
    case 0:
      return u64_key(r % (n / 4 + 1));  // duplicate-heavy
    case 1:
      return Bytes();  // empty key
    case 2:
      return u64_key(r).substr(0, 1 + r % 7);  // shorter than the prefix
    case 3:
      return Bytes("shared-prefix") + u64_key(r % (n / 8 + 1));
    default:
      return u64_key(r);
  }
}

KVVec nasty_corpus(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  KVVec out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes key = nasty_key(rng, n);
    // Few distinct values -> plenty of exact (key, value) duplicates, so the
    // cross-run position tiebreak is actually exercised.
    out.emplace_back(std::move(key), f64_value(static_cast<double>(i % 7)));
  }
  return out;
}

// Records built to land on every edge of MergeCursor's 16-byte head code
// (the key's 8-byte prefix; its length code, then the top 60 bits of the
// value's prefix), mixed with nasty_corpus records.
KVVec head_code_corpus(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  KVVec out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const uint64_t r = rng.next_u64();
    const uint64_t s = rng.next_u64();
    const Bytes short_key = u32_key(static_cast<uint32_t>(s % 4));
    switch (r % 7) {
      case 0:  // values longer than 8 bytes that tie on their first 8
        out.emplace_back(short_key,
                         Bytes("tiedfirs") + u64_key(s).substr(0, 1 + s % 9));
        break;
      case 1:  // 8-byte values that differ only in the low 4 bits of byte 8
        out.emplace_back(
            short_key,
            Bytes("seven-b") + static_cast<char>(0x40 | ((s >> 8) & 0xf)));
        break;
      case 2: {  // keys past the prefix whose values order the other way
        const auto j = static_cast<unsigned char>(s % 16);
        out.emplace_back(Bytes("longkey!") + static_cast<char>(j),
                         Bytes(1, static_cast<char>(255 - j)));
        break;
      }
      case 3:  // all-0xFF keys and values, across the prefix length
        out.emplace_back(Bytes(s % 11, '\xff'), Bytes((s >> 8) % 11, '\xff'));
        break;
      case 4:  // keys that differ only by trailing 0x00 bytes
        out.emplace_back(Bytes("k0") + Bytes(s % 10, '\0'),
                         f64_value(static_cast<double>(s % 3)));
        break;
      default:
        out.emplace_back(nasty_key(rng, n),
                         f64_value(static_cast<double>(i % 7)));
    }
  }
  return out;
}

void expect_identical(const KVVec& a, const KVVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "record " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "record " << i;
  }
}

// Copies every record the cursor returns, in order.
KVVec drain(MergeCursor& merge) {
  KVVec out;
  while (const KV* rec = merge.next()) out.push_back(*rec);
  return out;
}

// Splits `whole` into k contiguous runs in arrival order (uneven on
// purpose), each sorted the way the engines sort runs: chunk c's records
// all precede chunk c+1's, the precondition under which the merge's
// source-index tiebreak equals the position tiebreak.
std::vector<KVVec> arrival_runs(const KVVec& whole, std::size_t k,
                                bool compare_values) {
  std::vector<KVVec> runs(k);
  std::size_t at = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t take =
        whole.size() / k + ((c < whole.size() % k) ? 1 : 0);
    for (std::size_t i = 0; i < take; ++i) runs[c].push_back(whole[at++]);
    sort_records(runs[c], compare_values);
  }
  return runs;
}

TEST(MergeCursor, MatchesWholeBufferSortAcrossChunkings) {
  for (std::size_t n : {0u, 1u, 17u, 256u, 1500u}) {
    for (std::size_t k : {1u, 2u, 3u, 7u, 24u, 33u}) {
      for (bool compare_values : {false, true}) {
        for (bool head_codes : {false, true}) {
          for (bool empty_between : {false, true}) {
            const uint64_t seed = n * 31 + k;
            KVVec whole = head_codes ? head_code_corpus(seed, n)
                                     : nasty_corpus(seed, n);
            std::vector<KVVec> runs = arrival_runs(whole, k, compare_values);
            sort_records(whole, compare_values);

            // An empty run between live ones holds no records, so it
            // cannot move the arrival order the tiebreak reproduces.
            KVVec empty;
            std::vector<std::unique_ptr<VecSource>> vs;
            std::vector<RecordSource*> sources;
            for (auto& run : runs) {
              if (empty_between && !sources.empty()) {
                vs.push_back(std::make_unique<VecSource>(empty));
                sources.push_back(vs.back().get());
              }
              vs.push_back(std::make_unique<VecSource>(run));
              sources.push_back(vs.back().get());
            }
            MergeCursor merge(sources, compare_values);
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " k=" << k
                         << " compare_values=" << compare_values
                         << " head_codes=" << head_codes
                         << " empty_between=" << empty_between);
            expect_identical(whole, drain(merge));
          }
        }
      }
    }
  }
}

TEST(MergeCursor, ReturnedRecordCanBeMovedFrom) {
  // Keys and values past the small-string buffer, so a move empties them:
  // a cursor that read a head after handing it out would see "" and
  // misorder the stream.
  KVVec whole = head_code_corpus(77, 4000);
  for (KV& kv : whole) {
    kv.key += Bytes(16, '~');
    kv.value += Bytes(16, '~');
  }
  std::vector<KVVec> runs = arrival_runs(whole, 24, /*compare_values=*/true);
  sort_records(whole, /*compare_values=*/true);

  std::vector<std::unique_ptr<VecSource>> vs;
  std::vector<RecordSource*> sources;
  for (auto& run : runs) {
    vs.push_back(std::make_unique<VecSource>(run));
    sources.push_back(vs.back().get());
  }
  MergeCursor merge(sources, /*compare_values=*/true);
  KVVec merged;
  while (KV* rec = merge.next()) {
    merged.emplace_back(std::move(rec->key), std::move(rec->value));
  }
  expect_identical(whole, merged);
  EXPECT_EQ(merge.next(), nullptr) << "an exhausted cursor stays exhausted";
}

TEST(MergeCursor, NoSourcesAndEmptySourcesDrainImmediately) {
  MergeCursor empty({}, /*compare_values=*/true);
  KV rec;
  EXPECT_FALSE(empty.next(rec));

  KVVec a, b;
  VecSource sa(a), sb(b);
  MergeCursor two({&sa, &sb}, /*compare_values=*/true);
  EXPECT_FALSE(two.next(rec));
}

// ---------------------------------------------------------------------------
// SpillSet: ledger balance on every exit path.
// ---------------------------------------------------------------------------

KVVec numbered_records(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  KVVec out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(u64_key(rng.next_u64() % 64), u64_key(i));
  }
  sort_records(out, /*sort_values=*/true);
  return out;
}

struct SpillLedger {
  int64_t bytes_written, bytes_read, bytes_dropped;
  int64_t runs_written, runs_read, runs_dropped;
};

SpillLedger ledger(Cluster& c) {
  auto& m = c.metrics();
  return {m.count("imr_spill_bytes_written"), m.count("imr_spill_bytes_read"),
          m.count("imr_spill_bytes_dropped"), m.count("imr_spill_runs_written"),
          m.count("imr_spill_runs_read"), m.count("imr_spill_runs_dropped")};
}

void expect_balanced(Cluster& c) {
  SpillLedger l = ledger(c);
  EXPECT_EQ(l.bytes_written, l.bytes_read + l.bytes_dropped);
  EXPECT_EQ(l.runs_written, l.runs_read + l.runs_dropped);
}

TEST(SpillSet, SourcesThenConsumeRoundTripsThroughChunkedCursors) {
  auto cluster = testutil::free_cluster(1, 1, 1);
  VClock vt;
  SpillSet spills(cluster->dfs(), cluster->metrics(), "t/u2", 0);
  // > 1024 records per run so the DfsRunSource chunk boundary is crossed.
  KVVec whole = nasty_corpus(9, 3300);
  std::vector<KVVec> runs(3);
  for (std::size_t c = 0, at = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 1100; ++i) runs[c].push_back(whole[at++]);
    sort_records(runs[c], /*sort_values=*/true);
    spills.write_run(0, runs[c], &vt);
  }
  sort_records(whole, /*sort_values=*/true);

  auto cursors = spills.sources(0, &vt);
  ASSERT_EQ(cursors.size(), 3u);
  std::vector<RecordSource*> sources;
  for (auto& c : cursors) sources.push_back(c.get());
  MergeCursor merge(sources, /*compare_values=*/true);
  KVVec merged;
  KV rec;
  while (merge.next(rec)) merged.push_back(std::move(rec));
  expect_identical(whole, merged);

  spills.consume(0);
  expect_balanced(*cluster);
  EXPECT_EQ(ledger(*cluster).runs_read, 3);
  EXPECT_TRUE(cluster->dfs().list("spill/").empty());
}

TEST(SpillSet, MergesTwentyFourRunsAcrossChunkBoundaries) {
  // A reduce's merge fan-in at pagerank-spill's run counts, every run
  // spanning two or more 1024-record read chunks, two of them ending
  // exactly on a chunk boundary. Keys and values move out of the chunks as
  // ReduceInput::group moves them.
  auto cluster = testutil::free_cluster(1, 1, 1);
  VClock vt;
  SpillSet spills(cluster->dfs(), cluster->metrics(), "t/u24", 0);
  constexpr std::size_t kRuns = 24;
  std::vector<std::size_t> sizes(kRuns);
  std::size_t total = 0;
  for (std::size_t c = 0; c < kRuns; ++c) {
    sizes[c] = c == 0 ? 2048 : c == 1 ? 3072 : 2049 + (c * 131) % 1500;
    total += sizes[c];
  }
  KVVec whole = head_code_corpus(24, total);
  for (std::size_t c = 0, at = 0; c < kRuns; ++c) {
    KVVec run(whole.begin() + static_cast<std::ptrdiff_t>(at),
              whole.begin() + static_cast<std::ptrdiff_t>(at + sizes[c]));
    at += sizes[c];
    sort_records(run, /*sort_values=*/true);
    spills.write_run(0, std::move(run), &vt);
  }
  sort_records(whole, /*sort_values=*/true);

  auto cursors = spills.sources(0, &vt);
  ASSERT_EQ(cursors.size(), kRuns);
  std::vector<RecordSource*> sources;
  for (auto& c : cursors) sources.push_back(c.get());
  MergeCursor merge(sources, /*compare_values=*/true);
  KVVec merged;
  while (KV* rec = merge.next()) {
    merged.emplace_back(std::move(rec->key), std::move(rec->value));
  }
  expect_identical(whole, merged);

  cursors.clear();
  spills.consume(0);
  expect_balanced(*cluster);
  EXPECT_EQ(ledger(*cluster).runs_read, static_cast<int64_t>(kRuns));
}

TEST(SpillSet, DestructorAbandonsAndBalancesTheLedger) {
  auto cluster = testutil::free_cluster(1, 1, 1);
  VClock vt;
  {
    SpillSet spills(cluster->dfs(), cluster->metrics(), "t/u3", 0);
    spills.write_run(0, numbered_records(3, 40), &vt);
    spills.write_run(1, numbered_records(4, 10), &vt);
    EXPECT_EQ(cluster->dfs().list("spill/").size(), 2u);
  }
  expect_balanced(*cluster);
  EXPECT_EQ(ledger(*cluster).runs_dropped, 2);
  EXPECT_TRUE(cluster->dfs().list("spill/").empty());
}

TEST(SpillSet, TornRunWritesHalfAndIsDroppedOnUnwind) {
  auto cluster = testutil::free_cluster(1, 1, 1);
  VClock vt;
  KVVec records = numbered_records(5, 50);
  {
    SpillSet spills(cluster->dfs(), cluster->metrics(), "t/u4", 0);
    spills.write_torn_run(0, records, &vt);
    auto files = cluster->dfs().list("spill/");
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(cluster->dfs().file_records(files[0]), records.size() / 2)
        << "a torn run must hold only the first half of its records";
  }
  EXPECT_EQ(cluster->metrics().count("imr_torn_spills"), 1);
  expect_balanced(*cluster);
  EXPECT_TRUE(cluster->dfs().list("spill/").empty());
}

// ---------------------------------------------------------------------------
// ReduceInput across iterations: one stage, as a persistent reduce keeps it,
// collects iterations of different sizes into the buffer it keeps (and a
// rollback's reset in between), and each iteration groups exactly what
// that iteration's input alone would.
// ---------------------------------------------------------------------------

// The groups ReduceInput feeds group(), flattened to one record per value,
// checking that consecutive groups have distinct keys.
KVVec collect_groups(ReduceInput& input) {
  KVVec out;
  input.sort();
  input.group([&out](const Bytes& key, const std::vector<Bytes>& values) {
    EXPECT_FALSE(values.empty());
    if (!out.empty()) {
      EXPECT_NE(out.back().key, key) << "split group";
    }
    for (const Bytes& v : values) out.emplace_back(key, v);
  });
  return out;
}

// Adds `records` in 1,000-record batches, as a shuffle delivers them.
void add_batches(ReduceInput& input, const KVVec& records) {
  for (std::size_t off = 0; off < records.size(); off += 1000) {
    const auto begin = records.begin() + static_cast<std::ptrdiff_t>(off);
    const auto end =
        records.begin() +
        static_cast<std::ptrdiff_t>(std::min(records.size(), off + 1000));
    ASSERT_TRUE(input.add(KVVec(begin, end)));
  }
}

void expect_iterations_group_alone(int64_t budget) {
  auto cluster = testutil::free_cluster(1, 1, 1);
  TaskContext ctx(*cluster, "reduce", 0, 0);
  {
    ReduceInput input(ctx, "t/ri", budget);
    // Large, small, then larger than the first; a partial iteration is
    // collected and reset before the small one.
    const std::vector<std::size_t> sizes = {20000, 500, 40000};
    for (std::size_t it = 0; it < sizes.size(); ++it) {
      if (it == 1) {
        add_batches(input, nasty_corpus(900, 7000));
        input.reset();
      }
      const KVVec records = nasty_corpus(910 + it, sizes[it]);
      add_batches(input, records);
      KVVec expected = records;
      sort_records(expected, /*sort_values=*/true);
      expect_identical(expected, collect_groups(input));
    }
  }
  expect_balanced(*cluster);
  const int64_t spills = cluster->metrics().count("imr_reduce_spills");
  const int64_t merges = cluster->metrics().count("imr_reduce_merges");
  if (budget == 0) {
    EXPECT_EQ(spills, 0);
    EXPECT_EQ(merges, 0);
  } else {
    // Each large iteration collects ~10x the budget.
    EXPECT_GT(spills, 0);
    EXPECT_GE(merges, 2);
    EXPECT_GT(cluster->metrics().count("imr_spill_runs_dropped"), 0)
        << "the reset must drop the partial iteration's runs";
  }
}

TEST(ReduceInput, IterationsGroupAloneUnlimited) {
  expect_iterations_group_alone(0);
}

TEST(ReduceInput, IterationsGroupAloneSpilling) {
  expect_iterations_group_alone(64 << 10);
}

// ---------------------------------------------------------------------------
// Conf validation gates.
// ---------------------------------------------------------------------------

TEST(SpillConf, RejectsNegativeBudget) {
  IterJobConf conf = Sssp::imapreduce("in", "out", 5);
  conf.max_task_memory_bytes = -1;
  EXPECT_THROW(conf.validate(), ConfigError);
}

TEST(SpillConf, ClassicEngineEnforcesTheSameGates) {
  auto cluster = testutil::free_cluster(1, 1, 1);
  cluster->dfs().write_file("in", numbered_records(6, 4), 0, nullptr);
  JobConf job;
  job.set_input("in", make_mapper([](const Bytes& k, const Bytes& v,
                                     Emitter& out) { out.emit(k, v); }));
  job.output_path = "out";
  job.reducer = make_reducer([](const Bytes& key,
                                const std::vector<Bytes>& values,
                                Emitter& out) {
    for (const Bytes& v : values) out.emit(key, v);
  });
  MapReduceEngine engine(*cluster);
  job.max_task_memory_bytes = -5;
  EXPECT_THROW(engine.run_job(job), ConfigError);
}

// ---------------------------------------------------------------------------
// Classic engine: budgeted reduce is byte-identical and actually spills.
// ---------------------------------------------------------------------------

TEST(ClassicSpill, BudgetedReduceMatchesUnlimitedByteForByte) {
  auto cluster = testutil::free_cluster(3, 4, 4);
  KVVec input;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    input.emplace_back(u64_key(rng.next_u64() % 300), u64_key(i));
  }
  cluster->dfs().write_file("in", input, 0, nullptr);

  auto identity_job = [&](const std::string& out, int64_t budget) {
    JobConf job;
    job.set_input("in", make_mapper([](const Bytes& k, const Bytes& v,
                                       Emitter& out_e) { out_e.emit(k, v); }));
    job.output_path = out;
    job.num_reduce_tasks = 3;
    job.max_task_memory_bytes = budget;
    job.reducer = make_reducer([](const Bytes& key,
                                  const std::vector<Bytes>& values,
                                  Emitter& out_e) {
      for (const Bytes& v : values) out_e.emit(key, v);
    });
    MapReduceEngine engine(*cluster);
    engine.run_job(job);
  };

  identity_job("out_ref", 0);
  const int64_t runs_before = cluster->metrics().count("imr_spill_runs_written");
  EXPECT_EQ(runs_before, 0) << "unlimited run must not spill";
  identity_job("out_budget", kTinyBudget);
  EXPECT_GE(cluster->metrics().count("imr_spill_runs_written"), 2);
  // The shared reduce-input stage counts classic spills and merges too.
  EXPECT_GE(cluster->metrics().count("imr_reduce_spills"), 2);
  EXPECT_GE(cluster->metrics().count("imr_reduce_merges"), 1);
  EXPECT_GE(cluster->metrics().gauge("imr_arena_hwm"), 1);
  expect_balanced(*cluster);
  EXPECT_TRUE(cluster->dfs().list("spill/").empty());

  // part-for-part byte identity (same partitioner, same sorted reduce).
  for (int r = 0; r < 3; ++r) {
    KVVec ref = cluster->dfs().read_all(
        "out_ref/part-" + std::to_string(r), -1, nullptr);
    KVVec got = cluster->dfs().read_all(
        "out_budget/part-" + std::to_string(r), -1, nullptr);
    expect_identical(ref, got);
  }
}

// ---------------------------------------------------------------------------
// Iterative engine: the byte-identity property suite. Bulk and workset modes
// share a parameterized sweep; sessions get their own case below. Matrix
// power (bulk only) is the sweep's multi-phase job and the one whose map
// side ships over-budget output through a combiner.
// ---------------------------------------------------------------------------

enum class SpAlgo { kSssp, kConComp, kPrDelta, kMatPower };

// How the maps take their input and ship their output: async maps map each
// batch as it arrives, sync maps defer the batches that beat the master's
// go, and the aggregated exchange holds remote-bound output to the barrier
// frame (DESIGN.md §9). The budget governs the output of all three.
enum class MapMode { kAsync, kSync, kAgg };

// Async is the default and keeps the case names it always had.
const char* mode_suffix(MapMode m) {
  switch (m) {
    case MapMode::kAsync:
      return "";
    case MapMode::kSync:
      return "_sync";
    case MapMode::kAgg:
      return "_agg";
  }
  return "?";
}

void apply_mode(MapMode m, IterJobConf& conf) {
  conf.async_maps = m != MapMode::kSync;
  conf.aggregated_shuffle = m == MapMode::kAgg;
}

const auto kMapModes =
    ::testing::Values(MapMode::kAsync, MapMode::kSync, MapMode::kAgg);

const char* algo_name(SpAlgo a) {
  switch (a) {
    case SpAlgo::kSssp:
      return "Sssp";
    case SpAlgo::kConComp:
      return "ConComp";
    case SpAlgo::kPrDelta:
      return "PrDelta";
    case SpAlgo::kMatPower:
      return "MatPower";
  }
  return "?";
}

std::map<Bytes, Bytes> read_state(Cluster& cluster, const std::string& path) {
  std::map<Bytes, Bytes> state;
  for (const auto& part : resolve_input_paths(cluster.dfs(), path)) {
    for (const KV& kv : cluster.dfs().read_all(part, -1, nullptr)) {
      state[kv.key] = kv.value;
    }
  }
  return state;
}

Graph spill_graph(SpAlgo algo, uint64_t seed) {
  LogNormalGraphSpec spec;
  spec.num_nodes = 70 + static_cast<uint32_t>((seed * 29) % 90);
  spec.degree_mu = 0.8;
  spec.degree_sigma = 0.7;
  spec.weighted = algo == SpAlgo::kSssp;
  spec.seed = 5000 + 19 * seed + static_cast<uint64_t>(algo);
  return generate_lognormal_graph(spec);
}

void setup_algo(SpAlgo algo, Cluster& cluster, const Graph& g,
                const std::string& base) {
  switch (algo) {
    case SpAlgo::kSssp:
      Sssp::setup(cluster, g, 0, base);
      break;
    case SpAlgo::kConComp:
      ConComp::setup(cluster, g, base);
      break;
    case SpAlgo::kPrDelta:
      PageRank::setup_delta(cluster, g, base);
      break;
    case SpAlgo::kMatPower:
      ADD_FAILURE() << "matrix power takes a matrix, not a graph";
      break;
  }
}

// Writes the identity sweep's input for (algo, seed) under `base` and
// returns the final state's record count.
int64_t setup_input(SpAlgo algo, uint64_t seed, Cluster& cluster,
                    const std::string& base) {
  if (algo == SpAlgo::kMatPower) {
    const Matrix m =
        MatPower::generate(static_cast<uint32_t>(8 + 4 * seed), 7000 + seed);
    MatPower::setup(cluster, m, base);
    return static_cast<int64_t>(m.n) * m.n;
  }
  const Graph g = spill_graph(algo, seed);
  setup_algo(algo, cluster, g, base);
  return static_cast<int64_t>(g.num_nodes());
}

IterJobConf make_conf(SpAlgo algo, const std::string& base,
                      const std::string& out) {
  switch (algo) {
    case SpAlgo::kSssp:
      return Sssp::imapreduce(base, out, /*max_iterations=*/60,
                              /*threshold=*/0.5);
    case SpAlgo::kConComp:
      return ConComp::imapreduce(base, out, /*max_iterations=*/60,
                                 /*threshold=*/0.5);
    case SpAlgo::kPrDelta:
      return PageRank::imapreduce_delta(base, out, /*max_iterations=*/80,
                                        kPrTheta);
    case SpAlgo::kMatPower:
      return MatPower::imapreduce(base, out, /*max_iterations=*/3);
  }
  return {};
}

using SpillIdentityParam =
    std::tuple<uint64_t, SpAlgo, bool /*workset*/, MapMode>;

class SpillIdentity : public ::testing::TestWithParam<SpillIdentityParam> {};

std::string identity_case_name(
    const ::testing::TestParamInfo<SpillIdentityParam>& info) {
  return std::string("seed") + std::to_string(std::get<0>(info.param)) + "_" +
         algo_name(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_workset" : "_bulk") +
         mode_suffix(std::get<3>(info.param));
}

TEST_P(SpillIdentity, BudgetedRunMatchesUnlimitedByteForByte) {
  const auto [seed, algo, workset, mode] = GetParam();
  const int tasks = 3;
  // Matrix power runs its fixed iteration count; the graph jobs converge.
  const bool converges = algo != SpAlgo::kMatPower;

  auto cluster = testutil::free_cluster(3, 4, 4);
  const int64_t n = setup_input(algo, seed, *cluster, "in");

  IterJobConf ref_conf = make_conf(algo, "in", "out_ref");
  ref_conf.num_tasks = tasks;
  IterJobConf budget_conf = make_conf(algo, "in", "out_budget");
  budget_conf.num_tasks = tasks;
  budget_conf.max_task_memory_bytes = kTinyBudget;
  for (IterJobConf* c : {&ref_conf, &budget_conf}) {
    apply_mode(mode, *c);
    if (workset) {
      c->workset_mode = true;
      c->distance_threshold = -1.0;
    }
  }

  InvariantExpectations expect;
  expect.expected_state_records = n;
  if (workset) expect.workset_mode = true;

  auto ref_run = run_chaos_job(*cluster, ref_conf, FaultSchedule{},
                               ChannelFaultConfig{}, expect);
  EXPECT_TRUE(ref_run.violations.empty())
      << ::testing::PrintToString(ref_run.violations);
  ASSERT_EQ(ref_run.report.converged, converges);
  EXPECT_EQ(cluster->metrics().count("imr_spill_runs_written"), 0)
      << "unlimited run must not spill";
  EXPECT_EQ(cluster->metrics().count("imr_map_budget_flushes"), 0);

  auto budget_run = run_chaos_job(*cluster, budget_conf, FaultSchedule{},
                                  ChannelFaultConfig{}, expect);
  EXPECT_TRUE(budget_run.violations.empty())
      << ::testing::PrintToString(budget_run.violations);
  ASSERT_EQ(budget_run.report.converged, converges);

  // Identical bytes AND identical iteration count: per-iteration state is
  // the same, so the convergence decision lands on the same k*.
  EXPECT_EQ(budget_run.report.iterations_run, ref_run.report.iterations_run);
  EXPECT_EQ(read_state(*cluster, "out_ref"), read_state(*cluster, "out_budget"))
      << "budgeted run diverged (seed=" << seed << ", algo=" << algo_name(algo)
      << ", workset=" << workset << ")";

  // The budget actually bit: over-budget maps shipped what they held,
  // multiple runs spilled, merged reduces ran, the arena high-water mark
  // registered, and the ledger closed balanced with no files left behind.
  const int64_t flushes = cluster->metrics().count("imr_map_budget_flushes");
  EXPECT_GE(flushes, 1);
  if (mode == MapMode::kSync && !workset) {
    // Every iteration's deferred batches are mapped one at a time under the
    // governor, not only the first iteration's loaded state.
    EXPECT_GE(flushes, budget_run.report.iterations_run);
  }
  EXPECT_GE(cluster->metrics().count("imr_spill_runs_written"), 2);
  EXPECT_GE(cluster->metrics().count("imr_reduce_spills"), 1);
  EXPECT_GE(cluster->metrics().count("imr_reduce_merges"), 1);
  EXPECT_GE(cluster->metrics().gauge("imr_arena_hwm"), 1);
  EXPECT_EQ(cluster->metrics().count("imr_spill_leaks"), 0);
  expect_balanced(*cluster);
  EXPECT_TRUE(cluster->dfs().list("spill/").empty());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByAlgosByModes, SpillIdentity,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}),
                       ::testing::Values(SpAlgo::kSssp, SpAlgo::kConComp,
                                         SpAlgo::kPrDelta),
                       ::testing::Bool(), kMapModes),
    identity_case_name);

// Workset mode needs a single-phase job, so matrix power runs bulk only.
INSTANTIATE_TEST_SUITE_P(
    MatPowerSeeds, SpillIdentity,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}),
                       ::testing::Values(SpAlgo::kMatPower),
                       ::testing::Values(false), kMapModes),
    identity_case_name);

// Session mode: a budgeted session over the same converge -> mutate ->
// reconverge -> close sequence must close on the same bytes as the unlimited
// session.
TEST(SpillIdentity, SessionEpochsMatchUnlimited) {
  for (SpAlgo algo : {SpAlgo::kSssp, SpAlgo::kConComp, SpAlgo::kPrDelta}) {
    const Graph g0 = spill_graph(algo, 4);
    Graph g1 = g0;
    // A refining mutation: add a few fresh edges (node universe unchanged).
    for (uint32_t u = 0; u + 7 < g1.num_nodes(); u += 7) {
      g1.adj[u].push_back(WEdge{u + 7, 1.0});
    }
    StaticDelta delta;
    switch (algo) {
      case SpAlgo::kSssp:
        delta = Sssp::static_delta(g0, g1);
        break;
      case SpAlgo::kConComp:
        delta = ConComp::static_delta(g0, g1);
        break;
      case SpAlgo::kPrDelta:
        delta = PageRank::static_delta(g0, g1);
        break;
      case SpAlgo::kMatPower:
        break;
    }

    auto run_session = [&](int64_t budget, const std::string& out) {
      auto cluster = testutil::free_cluster(3, 4, 4);
      setup_algo(algo, *cluster, g0, "in");
      IterJobConf conf = make_conf(algo, "in", out);
      conf.num_tasks = 3;
      conf.workset_mode = true;
      conf.distance_threshold = -1.0;
      conf.max_task_memory_bytes = budget;
      IterativeEngine engine(*cluster);
      JobSession session = engine.open_session(conf);
      EXPECT_TRUE(session.last_report().converged);
      EXPECT_TRUE(session.apply_update(delta).converged);
      session.close();
      if (budget > 0) {
        EXPECT_GE(cluster->metrics().count("imr_spill_runs_written"), 2)
            << algo_name(algo);
        expect_balanced(*cluster);
        EXPECT_TRUE(cluster->dfs().list("spill/").empty());
      }
      return read_state(*cluster, out);
    };

    EXPECT_EQ(run_session(0, "out"), run_session(kTinyBudget, "out"))
        << "budgeted session diverged (algo=" << algo_name(algo) << ")";
  }
}

// ---------------------------------------------------------------------------
// Chaos at the spill machinery: worker deaths at the spill write itself
// (torn half-run on disk), and at points where spilled runs are live but not
// yet merged (mid-shuffle, iteration boundary). Recovery must land on the
// unlimited clean run's bytes with the ledger balanced.
// ---------------------------------------------------------------------------

using SpillChaosParam = std::tuple<uint64_t, FaultPoint, SpAlgo, MapMode>;

class SpillChaosSweep : public ::testing::TestWithParam<SpillChaosParam> {};

TEST_P(SpillChaosSweep, RecoversToUnlimitedRunBytes) {
  const auto [seed, point, algo, mode] = GetParam();
  constexpr int kWorkers = 3;
  constexpr int kTasks = 4;
  const Graph g = spill_graph(algo, seed + 10);
  const auto n = static_cast<int64_t>(g.num_nodes());

  // Bulk mode: every iteration moves the full state, so with a tiny budget
  // every reduce task spills at every iteration — any (worker, iteration)
  // the fault derives to is guaranteed a live spill write to die in.
  IterJobConf conf = make_conf(algo, "in", "out");
  conf.num_tasks = kTasks;
  conf.checkpoint_every = 2;
  apply_mode(mode, conf);

  InvariantExpectations expect;
  expect.expected_state_records = n;

  // Failure-free UNLIMITED reference: chains identity and recovery in one
  // equality.
  auto clean = testutil::free_cluster(kWorkers, 4, 4);
  setup_algo(algo, *clean, g, "in");
  auto clean_run = run_chaos_job(*clean, conf, FaultSchedule{},
                                 ChannelFaultConfig{}, expect);
  EXPECT_TRUE(clean_run.violations.empty())
      << ::testing::PrintToString(clean_run.violations);
  ASSERT_TRUE(clean_run.report.converged);
  const int k_star = clean_run.report.iterations_run;
  ASSERT_GE(k_star, 3);
  const auto reference = read_state(*clean, "out");

  auto faulty = testutil::free_cluster(kWorkers, 4, 4);
  setup_algo(algo, *faulty, g, "in");
  IterJobConf budget_conf = conf;
  budget_conf.output_path = "out";
  budget_conf.max_task_memory_bytes = kTinyBudget;
  FaultSchedule schedule;
  schedule.add(chaos::derive_fault(seed, kWorkers,
                                   /*max_iteration=*/k_star - 1, point));
  InvariantExpectations faulty_expect = expect;
  faulty_expect.expected_recoveries = 1;
  auto result = run_chaos_job(*faulty, budget_conf, schedule,
                              ChannelFaultConfig{}, faulty_expect);
  EXPECT_TRUE(result.violations.empty())
      << "invariant violations (seed=" << seed
      << ", point=" << fault_point_name(point)
      << ", algo=" << algo_name(algo) << "):\n  "
      << ::testing::PrintToString(result.violations);
  ASSERT_TRUE(result.report.converged);
  EXPECT_EQ(result.report.iterations_run, k_star);
  chaos::expect_all_faults_consumed(*faulty);

  EXPECT_EQ(reference, read_state(*faulty, "out"))
      << "recovered budgeted run diverged from the unlimited bytes (seed="
      << seed << ", point=" << fault_point_name(point)
      << ", algo=" << algo_name(algo) << ")";

  if (point == FaultPoint::kSpillWrite) {
    // The death happened mid spill-write: a torn half-run hit the disk and
    // was dropped by the dying task's unwind. (At the other points the task
    // may die with its runs already merged and consumed — nothing left to
    // abandon.)
    EXPECT_GE(faulty->metrics().count("imr_torn_spills"), 1);
    EXPECT_GE(faulty->metrics().count("imr_spill_runs_dropped"), 1)
        << "the dying task should have abandoned the torn run";
  }
  EXPECT_EQ(faulty->metrics().count("imr_spill_leaks"), 0);
  expect_balanced(*faulty);
  EXPECT_TRUE(faulty->dfs().list("spill/").empty());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPointsByAlgos, SpillChaosSweep,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2}),
                       ::testing::Values(FaultPoint::kSpillWrite,
                                         FaultPoint::kMidShuffle,
                                         FaultPoint::kIterationBoundary),
                       ::testing::Values(SpAlgo::kSssp, SpAlgo::kConComp,
                                         SpAlgo::kPrDelta),
                       kMapModes),
    [](const ::testing::TestParamInfo<SpillChaosParam>& info) {
      return std::string("seed") + std::to_string(std::get<0>(info.param)) +
             "_" + fault_point_name(std::get<1>(info.param)) + "_" +
             algo_name(std::get<2>(info.param)) +
             mode_suffix(std::get<3>(info.param));
    });

// Default random fault schedules must never draw kSpillWrite: unbudgeted
// jobs have no spill writes, so a drawn event could never be consumed.
TEST(SpillChaos, RandomSchedulesExcludeTheSpillPoint) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FaultSchedule s = FaultSchedule::random(seed, /*num_workers=*/4,
                                            /*max_iteration=*/10,
                                            /*num_events=*/3);
    for (const FaultEvent& e : s.events()) {
      EXPECT_NE(e.point, FaultPoint::kSpillWrite)
          << "seed " << seed << " drew the opt-in-only spill point";
    }
  }
}

}  // namespace
}  // namespace imr
