#include "mapreduce/shuffle_util.h"

#include <algorithm>
#include <cstdint>

#include "common/hash.h"

namespace imr {

namespace {

// Below this size the indirection of the prefix pass costs more than the
// string compares it saves; fall back to a direct comparison sort.
constexpr std::size_t kPrefixSortThreshold = 64;

void sort_records_direct(KVVec& records, bool sort_values) {
  if (sort_values) {
    std::sort(records.begin(), records.end());
  } else {
    std::stable_sort(records.begin(), records.end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
  }
}

struct PrefixEntry {
  uint64_t prefix;
  uint32_t index;
};

}  // namespace

void sort_records(KVVec& records, bool sort_values) {
  const std::size_t n = records.size();
  if (n < kPrefixSortThreshold || n > UINT32_MAX) {
    sort_records_direct(records, sort_values);
    return;
  }

  std::vector<PrefixEntry> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = PrefixEntry{key_prefix_u64(records[i].key),
                           static_cast<uint32_t>(i)};
  }
  // Prefix inequality decides without touching the strings; ties (keys
  // sharing their first 8 bytes, or short keys colliding with pad bytes)
  // fall back to the full compare. The index tiebreak makes the key-only
  // mode stable and the full mode a deterministic permutation even among
  // bitwise-equal records.
  std::sort(order.begin(), order.end(),
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
  KVVec sorted;
  sorted.reserve(n);
  for (const PrefixEntry& e : order) {
    sorted.push_back(std::move(records[e.index]));
  }
  records = std::move(sorted);
}

void sort_records(KVVec& records, bool sort_values, RecordArena& arena) {
  const std::size_t n = records.size();
  if (n < kPrefixSortThreshold || n > UINT32_MAX) {
    sort_records_direct(records, sort_values);
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
  // moves exactly once and no scratch KVVec is needed (this is where the
  // arena overload beats the plain one even before allocator reuse).
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

// ---------------------------------------------------------------------------
// MergeCursor
// ---------------------------------------------------------------------------

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

void merge_sorted_runs(const std::vector<RecordSource*>& sources,
                       bool compare_values, KVVec& out) {
  MergeCursor merge(sources, compare_values);
  KV kv;
  while (merge.next(kv)) out.push_back(std::move(kv));
}

std::size_t combine_sorted(KVVec& sorted, const CombineFn& fn) {
  KVVec combined;
  combined.reserve(sorted.size() / 2 + 1);
  GroupCursor groups(sorted);
  GroupValues vals;
  while (groups.next()) {
    fn(groups.key(), vals.take(sorted, groups), combined);
  }
  std::size_t saved = sorted.size() - combined.size();
  sorted = std::move(combined);
  return saved;
}

CombineFn combine_fn(Reducer& combiner) {
  return [&combiner](const Bytes& key, const std::vector<Bytes>& values,
                     KVVec& out) {
    VectorEmitter emitter(out);
    combiner.reduce(key, values, emitter);
  };
}

}  // namespace imr
