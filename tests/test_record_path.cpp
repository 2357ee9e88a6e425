// Record-path equivalence properties: the overhauled sort / group / join /
// combine primitives must be indistinguishable from the implementations they
// replaced. Each test pits the new code against a VERBATIM copy of the old
// one over generated corpora that stress the tricky inputs: duplicate keys,
// empty keys, keys absent from the static data, keys sharing a >8-byte
// prefix (so the prefix fast path ties and must fall back correctly),
// values and whole records that tie on every byte the sort entry carries,
// and values that tie chunk after chunk of the value radix.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/codec.h"
#include "common/hash.h"
#include "common/key_index.h"
#include "common/rng.h"
#include "imapreduce/static_store.h"
#include "mapreduce/engine.h"
#include "mapreduce/shuffle_util.h"
#include "tests/test_util.h"

namespace imr {
namespace {

// --- Verbatim pre-overhaul implementations (the oracles) --------------------

void sort_records_reference(KVVec& records, bool sort_values) {
  if (sort_values) {
    std::sort(records.begin(), records.end());
  } else {
    std::stable_sort(records.begin(), records.end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
  }
}

void for_each_group_reference(
    const KVVec& sorted,
    const std::function<void(const Bytes& key,
                             const std::vector<Bytes>& values)>& fn) {
  std::size_t i = 0;
  std::vector<Bytes> values;
  while (i < sorted.size()) {
    std::size_t j = i;
    values.clear();
    while (j < sorted.size() && sorted[j].key == sorted[i].key) {
      values.push_back(sorted[j].value);
      ++j;
    }
    fn(sorted[i].key, values);
    i = j;
  }
}

const Bytes* lower_bound_join(const KVVec& static_sorted, const Bytes& key) {
  auto it = std::lower_bound(
      static_sorted.begin(), static_sorted.end(), key,
      [](const KV& kv, const Bytes& k) { return kv.key < k; });
  if (it == static_sorted.end() || it->key != key) return nullptr;
  return &it->value;
}

// --- Corpus generation ------------------------------------------------------

// A deliberately nasty key mix: dup-heavy numeric keys, empty keys, short
// (<8 byte) keys, and long keys whose first 12 bytes are shared so the
// 8-byte prefix cannot distinguish them.
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
    out.emplace_back(std::move(key), f64_value(static_cast<double>(i)));
  }
  return out;
}

// Built to reach every tie-break of the sort: most values share their first
// 3 bytes (lengths 0-12 over one stem, with a tail drawn from 0x00, 0x01,
// 'z' and 0xff), others are "v", "v\0" and "v\0\0"; keys include "k",
// "k\0", "k\0\0", the empty key and 17-byte keys sharing 16 bytes; a fifth of
// the records repeat an earlier record exactly; and one hot key holds far
// more values than a bucket the radix pass leaves to insertion sort.
KVVec tie_corpus(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  const char kTail[] = {'\0', '\x01', 'z', '\xff'};
  KVVec out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const uint64_t r = rng.next_u64();
    if (i >= 8 && r % 5 == 0) {
      out.push_back(out[rng.next_u64() % i]);
      continue;
    }
    Bytes key;
    if (i < 40 || r % 3 == 0) {
      key = u32_key(7);
    } else if ((r >> 8) % 4 == 0) {
      key = u32_key(static_cast<uint32_t>((r >> 16) % (n / 16 + 1)));
    } else if ((r >> 8) % 4 == 1) {
      key = Bytes("k\0\0", 1 + (r >> 16) % 3);
    } else if ((r >> 8) % 4 == 2) {
      key = Bytes("long-shared-key/") + static_cast<char>('a' + (r >> 16) % 3);
    }
    Bytes value;
    if ((r >> 24) % 4 == 0) {
      value = Bytes("v\0\0", 1 + (r >> 32) % 3);
    } else {
      const std::size_t len = (r >> 32) % 13;
      value = Bytes("abc").substr(0, len);
      while (value.size() < len) value += kTail[rng.next_u64() % 4];
    }
    out.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

// K-means-shaped ties, built to reach every step of the value radix: from
// n = 4,096 up each key holds far more values than a bucket the radix pass
// leaves to insertion sort, and the values share stems of 2, 3, 8, 11, 16
// or 20 bytes (a combiner partial's two varints, then f64 bytes). Their
// lengths fall on each side of 8, 16 and 24 and are cut from a few long
// tails per stem, so many values are prefixes of others across a chunk
// boundary; half of them then have one byte changed. Keys are u32 centroid
// ids plus "k", "k\0" and "k\0\0", which share one prefix bucket and
// split on their length code; a fifth of the records repeat an earlier
// record exactly.
KVVec kmeans_tie_corpus(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  const Bytes kStem("\x01\x10\xbf\xf0\x12\x34\x56\x78\x9a\xbc\xde\xf0\x11\x22"
                    "\x33\x44\x55\x66\x77\x88",
                    20);
  const std::size_t kStemBytes[] = {2, 3, 8, 11, 16, 20};
  const std::size_t kLengths[] = {0, 2,  3,  7,  8,  9,  11, 15,
                                  16, 17, 20, 23, 24, 25, 130};
  const char kTail[] = {'\0', '\x01', 'z', '\xff'};
  std::vector<Bytes> tails(3);
  for (Bytes& t : tails) {
    while (t.size() < 130) t += kTail[rng.next_u64() % 4];
  }
  KVVec out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const uint64_t r = rng.next_u64();
    if (i >= 8 && r % 5 == 0) {
      out.push_back(out[rng.next_u64() % i]);
      continue;
    }
    Bytes key = (r >> 8) % 7 < 4
                    ? u32_key(static_cast<uint32_t>((r >> 8) % 7))
                    : Bytes("k\0\0", (r >> 8) % 7 - 3);
    const std::size_t stem = kStemBytes[(r >> 16) % 6];
    Bytes value = kStem.substr(0, stem) + tails[(r >> 24) % 3];
    value.resize(kLengths[(r >> 32) % 15]);
    if ((r >> 40) % 2 == 0 && !value.empty()) {
      value[(r >> 44) % value.size()] = kTail[(r >> 60) % 4];
    }
    out.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

// Position of the first record where a and b differ; -1 if they are equal.
std::ptrdiff_t first_difference(const KVVec& a, const KVVec& b) {
  if (a == b) return -1;
  return std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
         a.begin();
}

void expect_identical(const KVVec& a, const KVVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "record " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "record " << i;
  }
}

// --- Sort -------------------------------------------------------------------

TEST(RecordPathSort, MatchesReferenceAcrossCorpora) {
  // Sizes fall on both sides of the radix cutoff (32) on purpose.
  for (std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 500u, 4096u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      for (bool sort_values : {false, true}) {
        KVVec expected = nasty_corpus(seed, n);
        KVVec actual = expected;
        sort_records_reference(expected, sort_values);
        sort_records(actual, sort_values);
        expect_identical(expected, actual);
      }
    }
  }
}

TEST(RecordPathSort, TieBreaksMatchReference) {
  for (std::size_t n : {63u, 64u, 65u, 4096u, 70000u}) {
    for (auto corpus : {tie_corpus, kmeans_tie_corpus}) {
      for (bool sort_values : {false, true}) {
        const bool kmeans = corpus == kmeans_tie_corpus;
        KVVec expected = corpus(n, n);
        sort_records_reference(expected, sort_values);
        KVVec plain = corpus(n, n);
        sort_records(plain, sort_values);
        EXPECT_EQ(first_difference(expected, plain), -1)
            << "plain overload, n=" << n << " kmeans=" << kmeans
            << " sort_values=" << sort_values;
        RecordArena arena;
        KVVec pooled = corpus(n, n);
        sort_records(pooled, sort_values, arena);
        EXPECT_EQ(first_difference(expected, pooled), -1)
            << "arena overload, n=" << n << " kmeans=" << kmeans
            << " sort_values=" << sort_values;
      }
    }
  }
}

TEST(RecordPathSort, KeyOnlySortOfSortedInputIsIdentity) {
  // The one2all fast path skips the re-sort when the buffer is already
  // key-sorted; that is only sound if sorting sorted input is a no-op.
  KVVec records = nasty_corpus(7, 2000);
  sort_records(records, /*sort_values=*/false);
  KVVec again = records;
  sort_records(again, /*sort_values=*/false);
  expect_identical(records, again);
  EXPECT_TRUE(std::is_sorted(
      records.begin(), records.end(),
      [](const KV& a, const KV& b) { return a.key < b.key; }));
}

TEST(RecordPathSort, PrefixCollisionsFallBackToFullCompare) {
  // All keys share a 16-byte prefix: every prefix comparison ties.
  Rng rng(11);
  KVVec records;
  for (int i = 0; i < 1000; ++i) {
    records.emplace_back(Bytes("0123456789abcdef") + u64_key(rng.next_u64() % 50),
                         f64_value(static_cast<double>(i)));
  }
  KVVec expected = records;
  sort_records_reference(expected, true);
  sort_records(records, true);
  expect_identical(expected, records);
}

// --- Grouping ---------------------------------------------------------------

using GroupList = std::vector<std::pair<Bytes, std::vector<Bytes>>>;

GroupList reference_groups(const KVVec& sorted) {
  GroupList out;
  for_each_group_reference(
      sorted, [&](const Bytes& key, const std::vector<Bytes>& values) {
        out.emplace_back(key, values);
      });
  return out;
}

TEST(RecordPathGroup, CursorViewMatchesReference) {
  for (std::size_t n : {0u, 1u, 100u, 3000u}) {
    KVVec sorted = nasty_corpus(21, n);
    sort_records(sorted, true);
    GroupList expected = reference_groups(sorted);

    GroupList actual;
    GroupCursor groups(sorted);
    GroupValues vals;
    while (groups.next()) {
      actual.emplace_back(groups.key(), vals.view(groups));
      EXPECT_EQ(groups.size(), actual.back().second.size());
    }
    EXPECT_EQ(expected, actual);
  }
}

TEST(RecordPathGroup, SortOrderWalkMatchesReference) {
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 4096u, 70000u}) {
    for (auto corpus : {nasty_corpus, tie_corpus, kmeans_tie_corpus}) {
      KVVec sorted = corpus(n, n);
      sort_records_reference(sorted, true);
      const GroupList expected = reference_groups(sorted);

      // take_groups walks the unsorted buffer through sort_order's
      // permutation: no record moves, and the keys stay put.
      KVVec records = corpus(n, n);
      const KVVec arrival = records;
      RecordArena arena;
      GroupList actual;
      take_groups(records, sort_order(records, true, arena),
                  [&](const Bytes& key, const std::vector<Bytes>& values) {
                    actual.emplace_back(key, values);
                  });
      EXPECT_TRUE(expected == actual)
          << "n=" << n << " ties=" << (corpus == tie_corpus)
          << " kmeans=" << (corpus == kmeans_tie_corpus);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(records[i].key, arrival[i].key) << "record " << i;
      }
    }
  }
}

TEST(RecordPathGroup, CursorTakeMatchesReference) {
  KVVec sorted = nasty_corpus(22, 3000);
  sort_records(sorted, true);
  GroupList expected = reference_groups(sorted);

  GroupList actual;
  GroupCursor groups(sorted);
  GroupValues vals;
  while (groups.next()) {
    // take() moves values out of `sorted`; keys stay intact for the cursor.
    actual.emplace_back(groups.key(), vals.take(sorted, groups));
  }
  EXPECT_EQ(expected, actual);
}

// --- Static join index ------------------------------------------------------

// n records whose keys the hash partitioner routes to partition 0 of 64:
// they share fnv1a's low 6 bits, which a join index must not take its home
// slot from.
KVVec one_partition_corpus(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  KVVec out;
  while (out.size() < n) {
    Bytes key = u64_key(rng.next_u64() % (4 * 64 * n));
    if (partition_of(key, 64) != 0) continue;
    out.emplace_back(std::move(key), f64_value(static_cast<double>(out.size())));
  }
  return out;
}

TEST(RecordPathJoin, IndexMatchesLowerBound) {
  for (uint64_t seed : {31u, 32u, 33u, 34u}) {
    KVVec static_data = seed == 34 ? one_partition_corpus(seed, 2000)
                                   : nasty_corpus(seed, 2000);
    sort_records(static_data, /*sort_values=*/false);
    StaticStore store;
    store.build(static_data);  // copy: the vector doubles as the oracle

    Rng rng(seed + 100);
    // Present keys, absent keys, and the empty key all probe identically.
    std::vector<Bytes> probes;
    for (const KV& kv : static_data) probes.push_back(kv.key);
    for (int i = 0; i < 2000; ++i) probes.push_back(nasty_key(rng, 2000));
    for (const KV& kv : one_partition_corpus(seed + 200, 2000)) {
      probes.push_back(kv.key);
    }
    probes.push_back(Bytes());

    for (const Bytes& key : probes) {
      const Bytes* expected = lower_bound_join(static_data, key);
      const Bytes* actual = store.find(key);
      ASSERT_EQ(expected == nullptr, actual == nullptr) << "key probe";
      if (expected) {
        EXPECT_EQ(*expected, *actual);
      }
    }
  }
}

TEST(RecordPathJoin, EmptyStoreFindsNothing) {
  StaticStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.find("anything"), nullptr);
  store.build(KVVec{});
  EXPECT_EQ(store.find(Bytes()), nullptr);
}

TEST(RecordPathJoin, DuplicateKeysResolveToFirstSortedRecord) {
  KVVec static_data;
  static_data.emplace_back(u64_key(5), f64_value(1.0));
  static_data.emplace_back(u64_key(5), f64_value(2.0));
  static_data.emplace_back(u64_key(9), f64_value(3.0));
  StaticStore store;
  store.build(static_data);
  ASSERT_NE(store.find(u64_key(5)), nullptr);
  EXPECT_EQ(*store.find(u64_key(5)), f64_value(1.0));
  EXPECT_EQ(*store.find(u64_key(9)), f64_value(3.0));
  EXPECT_EQ(store.find(u64_key(6)), nullptr);
}

// --- The reduce state table -------------------------------------------------

// Inserts each key once, checking that each is new and that every earlier
// key still maps to its value, then finds every key again.
void expect_table_holds(FlatTable& table, const std::vector<Bytes>& keys) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto [rec, fresh] = table.find_or_insert(keys[i]);
    ASSERT_TRUE(fresh) << "key " << i;
    EXPECT_EQ(rec.key, keys[i]);
    EXPECT_TRUE(rec.value.empty());
    rec.value = u64_key(i);
  }
  ASSERT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const KV* found = table.find(keys[i]);
    ASSERT_NE(found, nullptr) << "key " << i;
    EXPECT_EQ(found->value, u64_key(i));
    auto [rec, fresh] = table.find_or_insert(keys[i]);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(&rec, found);
  }
  EXPECT_EQ(table.size(), keys.size());
}

// The records' keys, each once, in first-appearance order.
std::vector<Bytes> distinct_keys(const KVVec& records) {
  std::vector<Bytes> keys;
  std::set<Bytes> seen;
  for (const KV& kv : records) {
    if (seen.insert(kv.key).second) keys.push_back(kv.key);
  }
  return keys;
}

TEST(FlatTable, FindOrInsertAcrossGrowth) {
  FlatTable table;
  EXPECT_EQ(table.find(u64_key(1)), nullptr);
  std::vector<Bytes> keys;
  for (uint32_t i = 0; i < (1u << 17) + 1000; ++i) keys.push_back(u32_key(i));
  expect_table_holds(table, keys);
  EXPECT_EQ(table.find(u32_key(1u << 20)), nullptr);
}

TEST(FlatTable, IteratesInInsertionOrder) {
  FlatTable table;
  Rng rng(41);
  std::vector<Bytes> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(u64_key(rng.next_u64()));
  expect_table_holds(table, keys);
  std::size_t i = 0;
  for (const KV& kv : table) {
    ASSERT_LT(i, keys.size());
    EXPECT_EQ(kv.key, keys[i]);
    EXPECT_EQ(kv.value, u64_key(i));
    ++i;
  }
  EXPECT_EQ(i, keys.size());
}

TEST(FlatTable, ClearThenReuse) {
  FlatTable table;
  std::vector<Bytes> first, second;
  for (uint32_t i = 0; i < 3000; ++i) first.push_back(u32_key(i));
  for (uint32_t i = 0; i < 100; ++i) second.push_back(u32_key(5000 + 3 * i));
  expect_table_holds(table, first);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.begin(), table.end());
  for (const Bytes& key : first) ASSERT_EQ(table.find(key), nullptr);
  expect_table_holds(table, second);
  EXPECT_EQ(table.begin()->key, second.front());
  table.clear();
  expect_table_holds(table, first);
}

TEST(FlatTable, EmptyKeyAndKeysLongerThanEightBytes) {
  FlatTable table;
  // nasty keys: the empty key, keys shorter than 8 bytes, and 21-byte keys
  // sharing their first 13 bytes.
  std::vector<Bytes> keys = distinct_keys(nasty_corpus(43, 4000));
  ASSERT_NE(std::find(keys.begin(), keys.end(), Bytes()), keys.end());
  expect_table_holds(table, keys);
  EXPECT_EQ(table.find(Bytes("shared-prefix")), nullptr);
}

TEST(FlatTable, KeysOfOnePartitionOf64) {
  FlatTable table;
  const std::vector<Bytes> keys =
      distinct_keys(one_partition_corpus(44, 20000));
  expect_table_holds(table, keys);
  const std::set<Bytes> present(keys.begin(), keys.end());
  for (const KV& kv : one_partition_corpus(45, 2000)) {
    if (present.count(kv.key) == 0) {
      EXPECT_EQ(table.find(kv.key), nullptr);
    }
  }
}

// --- Combining --------------------------------------------------------------

// Order-sensitive combiner: records the exact value sequence it was fed, so
// any within-key reordering shows up in the output bytes.
CombineFn concat_combiner() {
  return [](const Bytes& key, const std::vector<Bytes>& values, KVVec& out) {
    Bytes all;
    for (const Bytes& v : values) {
      all += v;
      all += '|';
    }
    out.emplace_back(key, std::move(all));
  };
}

TEST(RecordPathCombine, SortedPathMatchesOldSortPlusGroupPipeline) {
  const KVVec inputs[] = {nasty_corpus(41, 3000), nasty_corpus(42, 3000),
                          kmeans_tie_corpus(43, 4096)};
  for (const KVVec& input : inputs) {
    CombineFn fn = concat_combiner();

    KVVec expected_buf = input;
    sort_records_reference(expected_buf, true);
    KVVec expected;
    for_each_group_reference(
        expected_buf, [&](const Bytes& key, const std::vector<Bytes>& values) {
          fn(key, values, expected);
        });

    KVVec actual = input;
    sort_records(actual, /*sort_values=*/true);
    std::size_t saved = combine_sorted(actual, fn);
    expect_identical(expected, actual);
    EXPECT_EQ(saved, input.size() - actual.size());

    // The engines' entry point: the same bytes from a walk of the order.
    KVVec walked = input;
    RecordArena arena;
    const CombineRun run = combine_records(walked, fn, arena);
    expect_identical(expected, walked);
    EXPECT_EQ(run.saved, input.size() - walked.size());
  }
}

TEST(RecordPathCombine, EmptyBufferIsNoop) {
  KVVec empty;
  sort_records(empty, /*sort_values=*/true);
  EXPECT_EQ(combine_sorted(empty, concat_combiner()), 0u);
  EXPECT_TRUE(empty.empty());
}

// --- Engine-level equivalence -----------------------------------------------

// A classic job whose final output must be byte-identical whether a
// map-side combiner runs or not.
TEST(RecordPathEngine, CombinerPathChoiceDoesNotChangeJobOutput) {
  auto cluster = testutil::free_cluster();
  Rng rng(61);
  KVVec in;
  for (uint32_t i = 0; i < 400; ++i) {
    in.emplace_back(u32_key(i), u64_key(rng.next_u64() % 32));
  }
  cluster->dfs().write_file("in", in, 0, nullptr);

  MapperFactory fanout = make_mapper(
      [](const Bytes&, const Bytes& value, Emitter& out) {
        // Dup-heavy: 32 distinct intermediate keys.
        out.emit(value, u64_key(1));
      });
  ReducerFactory summer = make_reducer(
      [](const Bytes& key, const std::vector<Bytes>& values, Emitter& out) {
        uint64_t n = 0;
        for (const Bytes& v : values) {
          std::size_t pos = 0;
          n += decode_u64(v, pos);
        }
        out.emit(key, u64_key(n));
      });

  auto run = [&](bool combiner, const std::string& out) {
    JobConf job;
    job.set_input("in", fanout);
    job.output_path = out;
    job.reducer = summer;
    if (combiner) job.combiner = summer;
    MapReduceEngine engine(*cluster);
    engine.run_job(job);
    std::map<Bytes, Bytes> result;
    for (const auto& part : resolve_input_paths(cluster->dfs(), out)) {
      for (const KV& kv : cluster->dfs().read_all(part, -1, nullptr)) {
        result[kv.key] = kv.value;
      }
    }
    return result;
  };

  EXPECT_EQ(run(false, "out_plain"), run(true, "out_combine"));
}

}  // namespace
}  // namespace imr
