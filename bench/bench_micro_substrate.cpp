// Micro-benchmarks (google-benchmark) for the substrate hot paths: codecs,
// partitioning, sort/group, fabric send/receive, DFS round-trips.
//
// These measure REAL nanoseconds (not virtual time); they guard the
// constant factors that the compute_scale calibration in the cost model
// assumes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/codec.h"
#include "common/hash.h"
#include "common/key_index.h"
#include "common/rng.h"
#include "imapreduce/static_store.h"
#include "mapreduce/shuffle_util.h"
#include "metrics/telemetry.h"
#include "metrics/trace.h"

namespace imr {
namespace {

void BM_EncodeF64(benchmark::State& state) {
  Bytes out;
  double v = 1.234567;
  for (auto _ : state) {
    out.clear();
    encode_f64(v, out);
    benchmark::DoNotOptimize(out);
    v += 0.1;
  }
}
BENCHMARK(BM_EncodeF64);

void BM_DecodeWEdges(benchmark::State& state) {
  std::vector<WEdge> edges;
  for (uint32_t i = 0; i < static_cast<uint32_t>(state.range(0)); ++i) {
    edges.push_back(WEdge{i * 7, 1.5 * i});
  }
  Bytes enc;
  encode_wedges(edges, enc);
  for (auto _ : state) {
    auto decoded = decode_wedges(enc);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeWEdges)->Arg(8)->Arg(64)->Arg(512);

void BM_Partition(benchmark::State& state) {
  Rng rng(1);
  std::vector<Bytes> keys;
  for (int i = 0; i < 1024; ++i) {
    keys.push_back(u64_key(rng.next_u64()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_of(keys[i++ & 1023], 64));
  }
}
BENCHMARK(BM_Partition);

void BM_SortRecords(benchmark::State& state) {
  Rng rng(2);
  KVVec base;
  for (int i = 0; i < state.range(0); ++i) {
    base.emplace_back(u64_key(rng.next_u64()), f64_value(1.0));
  }
  for (auto _ : state) {
    KVVec copy = base;
    sort_records(copy, true);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortRecords)->Arg(1024)->Arg(16384);

// Arena-backed overload (DESIGN.md §10): the (prefix, index) scratch comes
// from pooled blocks instead of the global allocator — after the first
// iteration the sort path performs zero heap allocations. A/B against
// BM_SortRecords above (same seed, same shape) measures the allocator's
// share of the per-iteration sort.
void BM_SortRecordsArena(benchmark::State& state) {
  Rng rng(2);
  KVVec base;
  for (int i = 0; i < state.range(0); ++i) {
    base.emplace_back(u64_key(rng.next_u64()), f64_value(1.0));
  }
  RecordArena arena;
  for (auto _ : state) {
    KVVec copy = base;
    sort_records(copy, true, arena);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortRecordsArena)->Arg(1024)->Arg(16384);

// --- Record-path A/B series -------------------------------------------------
// The machine drifts between benchmark runs, so the pre-overhaul
// implementations are kept VERBATIM inside this binary: one run of the suite
// is an interleaved before/after comparison on identical machine state.

// Reference: sort_records as it was before the prefix pass.
void sort_records_reference(KVVec& records, bool sort_values) {
  if (sort_values) {
    std::sort(records.begin(), records.end());
  } else {
    std::stable_sort(records.begin(), records.end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
  }
}

void BM_SortRecordsStd(benchmark::State& state) {
  Rng rng(2);  // same seed/shape as BM_SortRecords: A/B on identical input
  KVVec base;
  for (int i = 0; i < state.range(0); ++i) {
    base.emplace_back(u64_key(rng.next_u64()), f64_value(1.0));
  }
  for (auto _ : state) {
    KVVec copy = base;
    sort_records_reference(copy, true);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortRecordsStd)->Arg(1024)->Arg(16384);

// --- Radix order A/B on the shapes the workloads sort -----------------------
// The series above sort unique random keys with one constant value, which
// never reaches a tie. These use the buffers the engines actually sort:
//   - a PageRank reduce input: u32 keys with ~5 f64 values each, in arrival
//     order (every late comparison ties on the key prefix);
//   - a K-means map-side combine buffer: 10 u32 keys, 130-byte partials
//     whose first 3 bytes nearly always agree (the path the value bytes in
//     the sort entry cannot shortcut).
// Each is timed with the shipping arena sort_records and with the kernel it
// replaced, kept verbatim below; BM_SortOrder{PageRank,KMeans} time
// sort_order alone, which is all an in-memory reduce or a map-side combine
// computes before walking the records.

// Reference: sort_records' arena overload before the radix order — a
// comparison sort of (prefix, index) pairs whose comparator reads both
// records on every prefix tie, then the in-place cycle apply. Verbatim but
// for its small-buffer fallback, which was sort_records_reference above.
constexpr std::size_t kPrefixSortThreshold = 64;

struct PrefixEntry {
  uint64_t prefix;
  uint32_t index;
};

void sort_records_prefix(KVVec& records, bool sort_values, RecordArena& arena) {
  const std::size_t n = records.size();
  if (n < kPrefixSortThreshold || n > UINT32_MAX) {
    sort_records_reference(records, sort_values);
    return;
  }

  arena.reset();
  PrefixEntry* order = arena.alloc_array<PrefixEntry>(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = PrefixEntry{key_prefix_u64(records[i].key),
                           static_cast<uint32_t>(i)};
  }
  std::sort(order, order + n,
            [&records, sort_values](const PrefixEntry& a,
                                    const PrefixEntry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              const KV& x = records[a.index];
              const KV& y = records[b.index];
              int c = x.key.compare(y.key);
              if (c != 0) return c < 0;
              if (sort_values) {
                c = x.value.compare(y.value);
                if (c != 0) return c < 0;
              }
              return a.index < b.index;
            });
  // Apply the permutation in place, cycle by cycle: position i must receive
  // records[order[i].index]. Each cycle rotates through one saved tmp; a
  // placed slot is marked by pointing its index at itself, so every record
  // moves exactly once and no scratch KVVec is needed.
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t src = order[i].index;
    if (src == i) continue;
    KV tmp = std::move(records[i]);
    std::size_t dst = i;
    while (src != i) {
      records[dst] = std::move(records[src]);
      order[dst].index = static_cast<uint32_t>(dst);
      dst = src;
      src = order[dst].index;
    }
    records[dst] = std::move(tmp);
    order[dst].index = static_cast<uint32_t>(dst);
  }
}

// n records over n/5 node ids drawn the way a hash partition draws them
// (one id in each run of 8), each carrying a rank share.
KVVec pagerank_reduce_shape(std::size_t n) {
  Rng rng(5);
  const std::size_t nodes = n / 5;
  std::vector<Bytes> ids;
  ids.reserve(nodes);
  for (std::size_t v = 0; v < nodes; ++v) {
    ids.push_back(u32_key(static_cast<uint32_t>(v * 8 + rng.uniform(8))));
  }
  KVVec out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(ids[rng.uniform(nodes)],
                     f64_value(rng.uniform_real(0.0, 1.0) / nodes));
  }
  return out;
}

// n partials of 16-dimensional points over 10 centroids: varint count 1,
// varint length 16, 16 f64s (130 bytes, the K-means combiner's input).
KVVec kmeans_combine_shape(std::size_t n) {
  Rng rng(6);
  KVVec out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> point(16);
    for (double& x : point) x = rng.uniform_real(0.0, 100.0);
    Bytes partial;
    encode_varint(1, partial);
    encode_f64_vec(point, partial);
    out.emplace_back(u32_key(static_cast<uint32_t>(rng.uniform(10))),
                     std::move(partial));
  }
  return out;
}

template <typename Sort>
void time_arena_sort(benchmark::State& state, const KVVec& base, Sort sort) {
  RecordArena arena;
  for (auto _ : state) {
    state.PauseTiming();
    KVVec copy = base;
    state.ResumeTiming();
    sort(copy, arena);
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(base.size()));
}

void BM_SortRecordsPageRank(benchmark::State& state) {
  time_arena_sort(state,
                  pagerank_reduce_shape(static_cast<std::size_t>(state.range(0))),
                  [](KVVec& b, RecordArena& a) { sort_records(b, true, a); });
}
BENCHMARK(BM_SortRecordsPageRank)->Arg(16384)->Arg(262144);

void BM_SortRecordsPageRankPrefix(benchmark::State& state) {
  time_arena_sort(
      state, pagerank_reduce_shape(static_cast<std::size_t>(state.range(0))),
      [](KVVec& b, RecordArena& a) { sort_records_prefix(b, true, a); });
}
BENCHMARK(BM_SortRecordsPageRankPrefix)->Arg(16384)->Arg(262144);

void BM_SortOrderPageRank(benchmark::State& state) {
  time_arena_sort(state,
                  pagerank_reduce_shape(static_cast<std::size_t>(state.range(0))),
                  [](KVVec& b, RecordArena& a) {
                    benchmark::DoNotOptimize(sort_order(b, true, a).data());
                  });
}
BENCHMARK(BM_SortOrderPageRank)->Arg(16384)->Arg(262144);

void BM_SortRecordsKMeans(benchmark::State& state) {
  time_arena_sort(state,
                  kmeans_combine_shape(static_cast<std::size_t>(state.range(0))),
                  [](KVVec& b, RecordArena& a) { sort_records(b, true, a); });
}
BENCHMARK(BM_SortRecordsKMeans)->Arg(75000);

void BM_SortRecordsKMeansPrefix(benchmark::State& state) {
  time_arena_sort(
      state, kmeans_combine_shape(static_cast<std::size_t>(state.range(0))),
      [](KVVec& b, RecordArena& a) { sort_records_prefix(b, true, a); });
}
BENCHMARK(BM_SortRecordsKMeansPrefix)->Arg(75000);

void BM_SortOrderKMeans(benchmark::State& state) {
  time_arena_sort(state,
                  kmeans_combine_shape(static_cast<std::size_t>(state.range(0))),
                  [](KVVec& b, RecordArena& a) {
                    benchmark::DoNotOptimize(sort_order(b, true, a).data());
                  });
}
BENCHMARK(BM_SortOrderKMeans)->Arg(75000);

// The K-means map-side combine on the same buffer: the shipping
// combine_records (the order, then a walk that feeds each key group to the
// combiner) against what the combine ran before the radix order, the
// prefix kernel's in-place sort followed by combine_sorted. The combiner
// sums partials per centroid, as KMeans' does.
void sum_partials(const Bytes& key, const std::vector<Bytes>& values,
                  KVVec& out) {
  uint64_t count = 0;
  std::vector<double> sum;
  for (const Bytes& v : values) {
    std::size_t pos = 0;
    count += decode_varint(v, pos);
    const std::vector<double> point = decode_f64_vec(v, pos);
    if (sum.empty()) sum.assign(point.size(), 0.0);
    for (std::size_t i = 0; i < point.size(); ++i) sum[i] += point[i];
  }
  Bytes partial;
  encode_varint(count, partial);
  encode_f64_vec(sum, partial);
  out.emplace_back(key, std::move(partial));
}

void BM_CombineKMeans(benchmark::State& state) {
  time_arena_sort(
      state, kmeans_combine_shape(static_cast<std::size_t>(state.range(0))),
      [](KVVec& b, RecordArena& a) { combine_records(b, sum_partials, a); });
}
BENCHMARK(BM_CombineKMeans)->Arg(75000);

void BM_CombineKMeansPrefix(benchmark::State& state) {
  time_arena_sort(
      state, kmeans_combine_shape(static_cast<std::size_t>(state.range(0))),
      [](KVVec& b, RecordArena& a) {
        sort_records_prefix(b, true, a);
        combine_sorted(b, sum_partials);
      });
}
BENCHMARK(BM_CombineKMeansPrefix)->Arg(75000);

// --- Merge A/B: the budgeted reduce's group pass ---------------------------
// A reduce over budget merges its sorted spill runs and in-memory tail
// (ReduceInput::group); pagerank-spill's reduces merge about 20 runs of
// ~14k records per iteration. These split a 262,144-record PageRank reduce
// buffer in arrival order into k runs, each sorted as a spill sorts it, and
// time the merge plus ReduceInput::group's group loop over them (the reduce
// UDF only counts values). BM_MergeRunsPageRank runs the shipping
// MergeCursor, which compares 16-byte head codes and hands out each head in
// place, so the loop moves the key and values straight out of the run.
// BM_MergeRunsPageRankCompare runs the loser tree it replaced, kept
// verbatim below over the record-at-a-time source interface of its time:
// it string-compares two heads at every level, and each record moves into
// a head, then into the loop's record, then into the group.
namespace moved_head {

// next() MOVES the next record into `out` and returns false once the run is
// exhausted (after which it keeps returning false).
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  virtual bool next(KV& out) = 0;
};

// Streams a sorted KVVec, moving records out of the donated buffer.
class VecSource : public RecordSource {
 public:
  explicit VecSource(KVVec& records) : records_(&records) {}
  bool next(KV& out) override {
    if (pos_ >= records_->size()) return false;
    out = std::move((*records_)[pos_++]);
    return true;
  }

 private:
  KVVec* records_;
  std::size_t pos_ = 0;
};

class MergeCursor {
 public:
  MergeCursor(std::vector<RecordSource*> sources, bool compare_values);

  // Moves the globally-smallest head into `out`; false when all sources are
  // exhausted.
  bool next(KV& out);

 private:
  bool source_less(int a, int b) const;

  std::vector<RecordSource*> sources_;
  bool compare_values_;
  int padded_;              // next_pow2(sources): full-tree leaf count
  std::vector<KV> heads_;   // current head record per leaf
  std::vector<char> alive_; // leaf has a head (padding leaves never do)
  std::vector<int> tree_;   // tree_[0] = winner; tree_[1..] = loser nodes
};

bool MergeCursor::source_less(int a, int b) const {
  // An exhausted leaf loses to any live one (and ties with another
  // exhausted leaf resolve arbitrarily — next() checks alive_ before use).
  if (!alive_[static_cast<std::size_t>(a)]) return false;
  if (!alive_[static_cast<std::size_t>(b)]) return true;
  const KV& x = heads_[static_cast<std::size_t>(a)];
  const KV& y = heads_[static_cast<std::size_t>(b)];
  int c = x.key.compare(y.key);
  if (c != 0) return c < 0;
  if (compare_values_) {
    c = x.value.compare(y.value);
    if (c != 0) return c < 0;
  }
  return a < b;  // arrival-order tiebreak == sort_records' index tiebreak
}

MergeCursor::MergeCursor(std::vector<RecordSource*> sources,
                         bool compare_values)
    : sources_(std::move(sources)), compare_values_(compare_values) {
  const std::size_t k = sources_.size();
  padded_ = static_cast<int>(next_pow2(k == 0 ? 1 : k));
  heads_.resize(static_cast<std::size_t>(padded_));
  alive_.assign(static_cast<std::size_t>(padded_), 0);
  for (std::size_t i = 0; i < k; ++i) {
    alive_[i] = sources_[i]->next(heads_[i]) ? 1 : 0;
  }
  // Build the loser tree bottom-up: winner[node] propagates the smaller
  // head toward the root, each internal node keeping the loser. Leaves are
  // virtual nodes [padded_, 2*padded_) mapping to leaf index node - padded_.
  tree_.assign(static_cast<std::size_t>(padded_), 0);
  std::vector<int> winner(static_cast<std::size_t>(2 * padded_), 0);
  for (int i = 0; i < padded_; ++i) winner[static_cast<std::size_t>(padded_ + i)] = i;
  for (int node = padded_ - 1; node >= 1; --node) {
    int a = winner[static_cast<std::size_t>(2 * node)];
    int b = winner[static_cast<std::size_t>(2 * node + 1)];
    if (source_less(a, b)) {
      winner[static_cast<std::size_t>(node)] = a;
      tree_[static_cast<std::size_t>(node)] = b;
    } else {
      winner[static_cast<std::size_t>(node)] = b;
      tree_[static_cast<std::size_t>(node)] = a;
    }
  }
  tree_[0] = padded_ > 1 ? winner[1] : 0;
}

bool MergeCursor::next(KV& out) {
  const int w = tree_[0];
  if (!alive_[static_cast<std::size_t>(w)]) return false;
  out = std::move(heads_[static_cast<std::size_t>(w)]);
  alive_[static_cast<std::size_t>(w)] =
      sources_[static_cast<std::size_t>(w)]->next(
          heads_[static_cast<std::size_t>(w)])
          ? 1
          : 0;
  // Replay the path from w's leaf to the root: the new head fights each
  // stored loser; the winner bubbles up.
  int cur = w;
  for (int node = (padded_ + w) / 2; node >= 1; node /= 2) {
    int& loser = tree_[static_cast<std::size_t>(node)];
    if (source_less(loser, cur)) std::swap(cur, loser);
  }
  tree_[0] = cur;
  return true;
}

}  // namespace moved_head

// ReduceInput::group's loop over a merge: `next` returns each record in
// merge order, or nullptr at the end. Returns the number of groups.
template <typename Next>
std::size_t group_merged(Next next) {
  std::size_t groups = 0;
  std::size_t values_seen = 0;
  auto fn = [&](const Bytes&, const std::vector<Bytes>& values) {
    ++groups;
    values_seen += values.size();
  };
  Bytes key;
  std::vector<Bytes> values;
  bool in_group = false;
  while (KV* rec = next()) {
    if (!in_group || rec->key != key) {
      if (in_group) fn(key, values);
      key = std::move(rec->key);
      values.clear();
      in_group = true;
    }
    values.push_back(std::move(rec->value));
  }
  if (in_group) fn(key, values);
  benchmark::DoNotOptimize(values_seen);
  return groups;
}

// Times one merge-and-group pass over `k` runs of a 262,144-record
// PageRank reduce buffer; `merge_runs` gets fresh copies of the runs.
template <typename MergeRuns>
void time_merge(benchmark::State& state, MergeRuns merge_runs) {
  constexpr std::size_t kRecords = 262144;
  const auto k = static_cast<std::size_t>(state.range(0));
  const KVVec whole = pagerank_reduce_shape(kRecords);
  std::vector<KVVec> base(k);
  for (std::size_t c = 0, at = 0; c < k; ++c) {
    const std::size_t take = kRecords / k + (c < kRecords % k ? 1 : 0);
    base[c].assign(whole.begin() + static_cast<std::ptrdiff_t>(at),
                   whole.begin() + static_cast<std::ptrdiff_t>(at + take));
    at += take;
    sort_records(base[c], /*sort_values=*/true);
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<KVVec> runs = base;
    state.ResumeTiming();
    benchmark::DoNotOptimize(merge_runs(runs));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRecords));
}

void BM_MergeRunsPageRank(benchmark::State& state) {
  time_merge(state, [](std::vector<KVVec>& runs) {
    std::vector<std::unique_ptr<VecSource>> owned;
    std::vector<RecordSource*> sources;
    for (KVVec& run : runs) {
      owned.push_back(std::make_unique<VecSource>(run));
      sources.push_back(owned.back().get());
    }
    MergeCursor merge(sources, /*compare_values=*/true);
    return group_merged([&] { return merge.next(); });
  });
}
BENCHMARK(BM_MergeRunsPageRank)->Arg(5)->Arg(24);

void BM_MergeRunsPageRankCompare(benchmark::State& state) {
  time_merge(state, [](std::vector<KVVec>& runs) {
    std::vector<std::unique_ptr<moved_head::VecSource>> owned;
    std::vector<moved_head::RecordSource*> sources;
    for (KVVec& run : runs) {
      owned.push_back(std::make_unique<moved_head::VecSource>(run));
      sources.push_back(owned.back().get());
    }
    moved_head::MergeCursor merge(sources, /*compare_values=*/true);
    KV rec;
    return group_merged(
        [&]() -> KV* { return merge.next(rec) ? &rec : nullptr; });
  });
}
BENCHMARK(BM_MergeRunsPageRankCompare)->Arg(5)->Arg(24);

// --- Codec A/B: one K-means partial -----------------------------------------
// The fixed-width codec before one-append writes and whole-word reads,
// verbatim: each write pushes one byte at a time, each read assembles one
// byte at a time.
namespace bytewise {

void require(bool ok, const char* what) {
  if (!ok) throw FormatError(what);
}

void put_be(uint64_t v, int nbytes, Bytes& out) {
  for (int i = nbytes - 1; i >= 0; --i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t get_be(BytesView in, std::size_t& pos, int nbytes) {
  require(pos + static_cast<std::size_t>(nbytes) <= in.size(),
          "buffer underflow in fixed-width decode");
  uint64_t v = 0;
  for (int i = 0; i < nbytes; ++i) {
    v = (v << 8) | static_cast<unsigned char>(in[pos + i]);
  }
  pos += static_cast<std::size_t>(nbytes);
  return v;
}

void encode_f64(double v, Bytes& out) {
  uint64_t bits = std::bit_cast<uint64_t>(v);
  // Standard order-preserving transform for IEEE-754.
  if (bits >> 63) {
    bits = ~bits;  // negative: flip everything
  } else {
    bits |= (1ull << 63);  // positive: set sign bit
  }
  put_be(bits, 8, out);
}

double decode_f64(BytesView in, std::size_t& pos) {
  uint64_t bits = get_be(in, pos, 8);
  if (bits >> 63) {
    bits &= ~(1ull << 63);
  } else {
    bits = ~bits;
  }
  return std::bit_cast<double>(bits);
}

void encode_f64_vec(const std::vector<double>& v, Bytes& out) {
  encode_varint(v.size(), out);
  for (double d : v) encode_f64(d, out);
}

std::vector<double> decode_f64_vec(BytesView in, std::size_t& pos) {
  uint64_t n = decode_varint(in, pos);
  std::vector<double> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) v.push_back(decode_f64(in, pos));
  return v;
}

}  // namespace bytewise

// A 16-dimensional point, encoded as KMeans::encode_partial encodes one
// point's partial: a fresh string, varint count 1, then the f64 vector.
std::vector<double> partial_point() {
  Rng rng(7);
  std::vector<double> point(16);
  for (double& x : point) x = rng.uniform_real(0.0, 1.0);
  return point;
}

template <typename Encode>
void time_encode(benchmark::State& state, Encode encode_vec) {
  const std::vector<double> point = partial_point();
  for (auto _ : state) {
    Bytes partial;
    encode_varint(1, partial);
    encode_vec(point, partial);
    benchmark::DoNotOptimize(partial.data());
    benchmark::ClobberMemory();
  }
}

template <typename Decode>
void time_decode(benchmark::State& state, Decode decode_vec) {
  Bytes partial;
  encode_varint(1, partial);
  encode_f64_vec(partial_point(), partial);
  for (auto _ : state) {
    std::size_t pos = 0;
    benchmark::DoNotOptimize(decode_varint(partial, pos));
    std::vector<double> point = decode_vec(partial, pos);
    benchmark::DoNotOptimize(point.data());
  }
}

void BM_EncodeF64Vec(benchmark::State& state) {
  time_encode(state, [](const std::vector<double>& v, Bytes& out) {
    encode_f64_vec(v, out);
  });
}
BENCHMARK(BM_EncodeF64Vec);

void BM_EncodeF64VecBytewise(benchmark::State& state) {
  time_encode(state, [](const std::vector<double>& v, Bytes& out) {
    bytewise::encode_f64_vec(v, out);
  });
}
BENCHMARK(BM_EncodeF64VecBytewise);

void BM_DecodeF64Vec(benchmark::State& state) {
  time_decode(state, [](BytesView in, std::size_t& pos) {
    return decode_f64_vec(in, pos);
  });
}
BENCHMARK(BM_DecodeF64Vec);

void BM_DecodeF64VecBytewise(benchmark::State& state) {
  time_decode(state, [](BytesView in, std::size_t& pos) {
    return bytewise::decode_f64_vec(in, pos);
  });
}
BENCHMARK(BM_DecodeF64VecBytewise);

// Static-data join: the per-record state->static lookup of iterative map
// (§3.2.2). 16k static records, probed with every key once per iteration, in
// shuffled (arrival-like) order.
struct JoinFixture {
  KVVec sorted;
  std::vector<Bytes> probes;

  explicit JoinFixture(int n) {
    Rng rng(3);
    for (int i = 0; i < n; ++i) {
      sorted.emplace_back(u64_key(rng.next_u64()), f64_value(1.0));
    }
    sort_records(sorted, false);
    for (const KV& kv : sorted) probes.push_back(kv.key);
    for (std::size_t i = probes.size(); i > 1; --i) {
      std::swap(probes[i - 1], probes[rng.next_u64() % i]);
    }
  }
};

// Reference: the binary-search join the engine used before StaticStore.
void BM_StaticJoinLowerBound(benchmark::State& state) {
  JoinFixture fx(static_cast<int>(state.range(0)));
  const KVVec& static_sorted = fx.sorted;
  auto static_value = [&](const Bytes& key) -> const Bytes* {
    auto it = std::lower_bound(
        static_sorted.begin(), static_sorted.end(), key,
        [](const KV& kv, const Bytes& k) { return kv.key < k; });
    if (it == static_sorted.end() || it->key != key) return nullptr;
    return &it->value;
  };
  for (auto _ : state) {
    for (const Bytes& k : fx.probes) {
      benchmark::DoNotOptimize(static_value(k));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StaticJoinLowerBound)->Arg(1024)->Arg(16384);

void BM_StaticJoinIndex(benchmark::State& state) {
  JoinFixture fx(static_cast<int>(state.range(0)));
  StaticStore store;
  store.build(fx.sorted);  // copy in: fixture keeps the probe source
  for (auto _ : state) {
    for (const Bytes& k : fx.probes) {
      benchmark::DoNotOptimize(store.find(k));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StaticJoinIndex)->Arg(1024)->Arg(16384);

// The join as one of T hash-partitioned map tasks sees it: 20,000 keys that
// partition_of routes to partition 0 of T, so for T = 2^b they all share
// fnv1a's low b bits. The index takes its home slot from a remix of the
// hash; one taken from the low bits left 1/T of the slots as homes, and a
// probe at T = 64 cost 3.8x one at T = 1.
void BM_StaticJoinIndexPartitioned(benchmark::State& state) {
  const auto tasks = static_cast<uint32_t>(state.range(0));
  Rng rng(3);
  KVVec sorted;
  while (sorted.size() < 20000) {
    Bytes key = u64_key(rng.next_u64());
    if (partition_of(key, tasks) != 0) continue;
    sorted.emplace_back(std::move(key), f64_value(1.0));
  }
  sort_records(sorted, false);
  std::vector<Bytes> probes;
  for (const KV& kv : sorted) probes.push_back(kv.key);
  for (std::size_t i = probes.size(); i > 1; --i) {
    std::swap(probes[i - 1], probes[rng.next_u64() % i]);
  }
  StaticStore store;
  store.build(std::move(sorted));
  for (auto _ : state) {
    for (const Bytes& k : probes) benchmark::DoNotOptimize(store.find(k));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_StaticJoinIndexPartitioned)->Arg(1)->Arg(64);

// --- Reduce state A/B: one PageRank iteration's reconcile -------------------
// A persistent reduce reconciles each record it produces against its key's
// previous state: find-or-insert, the distance, then the assign. These run
// one iteration of it over n node ids of one of two hash partitions, in key
// order as the grouped reduce emits them, against a state that already holds
// every key (the steady state); successive runs alternate two rank vectors.
// BM_ReduceStateReconcile times the shipping FlatTable;
// BM_ReduceStateReconcileUnorderedMap the node-based map it replaced, with
// the reconcile verbatim.
struct ReconcileFixture {
  KVVec produced[2];

  explicit ReconcileFixture(std::size_t n) {
    Rng rng(7);
    std::vector<Bytes> keys;  // big-endian, so ascending ids are key order
    for (uint32_t v = 0; keys.size() < n; ++v) {
      if (partition_of(u32_key(v), 2) == 0) keys.push_back(u32_key(v));
    }
    for (KVVec& ranks : produced) {
      for (const Bytes& key : keys) {
        ranks.emplace_back(key, f64_value(rng.uniform_real(0.0, 1.0) / n));
      }
    }
  }
};

double rank_distance(const Bytes& prev, const Bytes& cur) {
  const double rp = prev.empty() ? 0.0 : as_f64(prev);
  const double rc = cur.empty() ? 0.0 : as_f64(cur);
  return std::abs(rp - rc);
}

void BM_ReduceStateReconcile(benchmark::State& state) {
  ReconcileFixture fx(static_cast<std::size_t>(state.range(0)));
  FlatTable table;
  for (const KV& kv : fx.produced[1]) {
    table.find_or_insert(kv.key).first.value = kv.value;
  }
  int run = 0;
  for (auto _ : state) {
    double distance = 0;
    for (const KV& kv : fx.produced[run++ & 1]) {
      auto [prev, fresh] = table.find_or_insert(kv.key);
      distance += rank_distance(prev.value, kv.value);
      prev.value = kv.value;
    }
    benchmark::DoNotOptimize(distance);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceStateReconcile)->Arg(50000);

void BM_ReduceStateReconcileUnorderedMap(benchmark::State& state) {
  ReconcileFixture fx(static_cast<std::size_t>(state.range(0)));
  std::unordered_map<Bytes, Bytes> state_map;
  for (const KV& kv : fx.produced[1]) state_map[kv.key] = kv.value;
  int run = 0;
  for (auto _ : state) {
    double distance = 0;
    for (const KV& kv : fx.produced[run++ & 1]) {
      auto [prev, fresh] = state_map.try_emplace(kv.key);
      distance += rank_distance(prev->second, kv.value);
      prev->second = kv.value;
    }
    benchmark::DoNotOptimize(distance);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceStateReconcileUnorderedMap)->Arg(50000);

// Group iteration over a sorted reduce buffer: 8 values per key, f64 values
// (the PageRank/SSSP shape). The "work" per group is a byte sum so neither
// side can dead-code the values away.
struct GroupFixture {
  KVVec sorted;

  explicit GroupFixture(int n) {
    Rng rng(4);
    for (int i = 0; i < n; ++i) {
      sorted.emplace_back(u64_key(rng.next_u64() % (n / 8 + 1)),
                          f64_value(static_cast<double>(i)));
    }
    sort_records(sorted, true);
  }
};

// Reference: for_each_group as it was — a fresh std::vector<Bytes> of copied
// values per group.
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

void BM_GroupIterateCopy(benchmark::State& state) {
  GroupFixture fx(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::size_t bytes = 0;
    for_each_group_reference(
        fx.sorted, [&](const Bytes& key, const std::vector<Bytes>& values) {
          bytes += key.size();
          for (const Bytes& v : values) bytes += v.size();
        });
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupIterateCopy)->Arg(1024)->Arg(16384);

void BM_GroupIterateCursor(benchmark::State& state) {
  GroupFixture fx(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::size_t bytes = 0;
    GroupCursor groups(fx.sorted);
    while (groups.next()) {
      bytes += groups.key().size();
      for (const KV& kv : groups.run()) bytes += kv.value.size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupIterateCursor)->Arg(1024)->Arg(16384);

// Map-side combining: 16k records onto 2k keys with a summing combiner —
// sorted run-length combining, with the sort it requires.
struct CombineFixture {
  KVVec base;
  CombineFn sum = [](const Bytes& key, const std::vector<Bytes>& values,
                     KVVec& out) {
    double total = 0;
    for (const Bytes& v : values) {
      std::size_t pos = 0;
      total += decode_f64(v, pos);
    }
    out.emplace_back(key, f64_value(total));
  };

  explicit CombineFixture(int n) {
    Rng rng(5);
    for (int i = 0; i < n; ++i) {
      base.emplace_back(u64_key(rng.next_u64() % (n / 8 + 1)),
                        f64_value(1.0));
    }
  }
};

void BM_CombineSorted(benchmark::State& state) {
  CombineFixture fx(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    KVVec buf = fx.base;
    sort_records(buf, true);
    benchmark::DoNotOptimize(combine_sorted(buf, fx.sum));
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CombineSorted)->Arg(1024)->Arg(16384);

void BM_FabricSendReceive(benchmark::State& state) {
  ClusterConfig cfg;
  cfg.cost = CostModel::free();
  Cluster cluster(cfg);
  auto ep = cluster.fabric().create_endpoint("bm", 0);
  VClock sender, receiver;
  KVVec payload;
  for (int i = 0; i < state.range(0); ++i) {
    payload.emplace_back(u32_key(static_cast<uint32_t>(i)), f64_value(1.0));
  }
  for (auto _ : state) {
    NetMessage msg;
    msg.set_records(payload);
    cluster.fabric().send(1, sender, *ep, std::move(msg),
                          TrafficCategory::kShuffle);
    auto got = ep->receive(receiver);
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FabricSendReceive)->Arg(1)->Arg(256);

// Multi-threaded send throughput: N task threads hammering one fabric, each
// into its own mailbox (the engine's shape: per-task endpoints, shared
// fabric). This is the series that exposes per-send global locking — with
// faults disarmed the hot path should touch no mutex besides the target
// queue's own.
struct MtSendEnv {
  Cluster cluster;
  std::vector<std::shared_ptr<Endpoint>> eps;

  explicit MtSendEnv(double drop_rate) : cluster(free_config()) {
    if (drop_rate > 0) {
      ChannelFaultConfig faults;
      faults.drop_rate = drop_rate;
      faults.seed = 7;
      cluster.fabric().set_channel_faults(faults);
    }
    for (int t = 0; t < 64; ++t) {
      eps.push_back(cluster.fabric().create_endpoint(
          "mt" + std::to_string(t), 0));
    }
  }

  static ClusterConfig free_config() {
    ClusterConfig cfg;
    cfg.cost = CostModel::free();
    return cfg;
  }
};

void mt_send_loop(benchmark::State& state, MtSendEnv& env) {
  Endpoint& ep =
      *env.eps[static_cast<std::size_t>(state.thread_index()) % env.eps.size()];
  KVVec payload;
  for (int i = 0; i < 4; ++i) {
    payload.emplace_back(u32_key(static_cast<uint32_t>(i)), f64_value(1.0));
  }
  VClock sender, receiver;
  for (auto _ : state) {
    NetMessage msg;
    msg.set_records(payload);
    env.cluster.fabric().send(1, sender, ep, std::move(msg),
                              TrafficCategory::kShuffle);
    auto got = ep.receive(receiver);
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FabricSendMTDisarmed(benchmark::State& state) {
  static MtSendEnv env(/*drop_rate=*/0.0);  // magic static: init-once, shared
  mt_send_loop(state, env);
}
BENCHMARK(BM_FabricSendMTDisarmed)->Threads(1)->Threads(4)->Threads(8);

void BM_FabricSendMTArmed(benchmark::State& state) {
  static MtSendEnv env(/*drop_rate=*/0.01);  // seeded slow path engaged
  mt_send_loop(state, env);
}
BENCHMARK(BM_FabricSendMTArmed)->Threads(1)->Threads(4)->Threads(8);

// Broadcast of one payload to T endpoints (the one2all reduce->map shape).
// Guards the payload-copy behavior: time here is dominated by how many deep
// copies of the records the fabric makes per broadcast.
void BM_BroadcastPayload(benchmark::State& state) {
  ClusterConfig cfg;
  cfg.cost = CostModel::free();
  Cluster cluster(cfg);
  const int T = static_cast<int>(state.range(0));
  std::vector<std::shared_ptr<Endpoint>> eps;
  for (int t = 0; t < T; ++t) {
    eps.push_back(cluster.fabric().create_endpoint("bc" + std::to_string(t),
                                                   t % 2));
  }
  KVVec payload;
  for (int i = 0; i < 1024; ++i) {
    payload.emplace_back(u32_key(static_cast<uint32_t>(i)), f64_value(1.0));
  }
  VClock sender, receiver;
  for (auto _ : state) {
    NetMessage msg;
    msg.set_records(payload);
    cluster.fabric().broadcast(0, sender, eps, msg,
                               TrafficCategory::kBroadcast);
    for (auto& ep : eps) {
      while (ep->pending() > 0) {
        auto got = ep->receive(receiver);
        benchmark::DoNotOptimize(got);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * T);
}
BENCHMARK(BM_BroadcastPayload)->Arg(4)->Arg(16);

void BM_DfsWriteRead(benchmark::State& state) {
  ClusterConfig cfg;
  cfg.cost = CostModel::free();
  Cluster cluster(cfg);
  KVVec records;
  for (int i = 0; i < state.range(0); ++i) {
    records.emplace_back(u32_key(static_cast<uint32_t>(i)), Bytes(64, 'x'));
  }
  for (auto _ : state) {
    cluster.dfs().write_file("bm", records, 0, nullptr);
    auto back = cluster.dfs().read_all("bm", 1, nullptr);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DfsWriteRead)->Arg(1024);

// Tracing-overhead series. Disabled tracing is the default everywhere, so
// BM_FabricSendMTDisarmed above IS the disabled-tracing baseline — its
// numbers must not move when the trace probes are in the tree. This series
// measures the armed recorder on the same send/receive loop: flow stamping,
// ring writes, in-flight counters. Registered LAST: enable() is global and
// sticky, and must not leak into the other series (benchmarks run in
// registration order).
void BM_FabricSendMTTraceEnabled(benchmark::State& state) {
  // The lambda-initialized magic static doubles as a cross-thread barrier:
  // no thread reaches the loop until tracing is armed.
  static MtSendEnv& env = []() -> MtSendEnv& {
    static MtSendEnv e(/*drop_rate=*/0.0);
    TraceRecorder::instance().enable();
    return e;
  }();
  mt_send_loop(state, env);
}
BENCHMARK(BM_FabricSendMTTraceEnabled)->Threads(1)->Threads(4)->Threads(8);

// Telemetry-overhead series, same discipline as the tracing series above:
// BM_FabricSendMTDisarmed is the disabled-telemetry baseline (one relaxed
// atomic load per probe; the registry's traffic matrix is charged on both
// sides), and this measures the armed ledger — a per-iteration bucket add
// under the sending thread's own shard mutex — on the same loop. Registered
// after the tracing series; the init lambda swaps the sticky trace gate off
// so the two armed costs are not conflated.
void BM_FabricSendMTTelemetryEnabled(benchmark::State& state) {
  static MtSendEnv& env = []() -> MtSendEnv& {
    static MtSendEnv e(/*drop_rate=*/0.0);
    TraceRecorder::instance().disable();
    TelemetryRecorder::instance().enable();
    return e;
  }();
  mt_send_loop(state, env);
}
BENCHMARK(BM_FabricSendMTTelemetryEnabled)->Threads(1)->Threads(4)->Threads(8);

}  // namespace
}  // namespace imr

BENCHMARK_MAIN();
