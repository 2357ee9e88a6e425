#include "mapreduce/shuffle_util.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "common/sim_time.h"

namespace imr {

namespace {

// One record's 16-byte sort entry. It summarizes one 8-byte chunk of its
// record at a time: the key's first 8 bytes, then, once a bucket's keys all
// tie and the order needs the values, the value's bytes [at, at + 8) for
// at = 0, 8, 16, ... `prefix` is the chunk as a big-endian integer
// (zero-padded). The top byte of `tie` is the chunk's length code,
// min(bytes of the field from the chunk's start, 9); at the key chunk in
// sort_values mode the bytes below it hold the value's first 3 bytes
// (zero-padded). Each field orders like the bytes it summarizes: a pad byte
// only ties with a real 0x00, and of two fields with one chunk, a field that
// ends within it is a prefix of the other.
struct SortEntry {
  uint64_t prefix;
  uint32_t index;
  uint32_t tie;
};
static_assert(sizeof(SortEntry) == 16, "the arena charge assumes 16 bytes");

// Names the chunk an entry summarizes: the key's first 8 bytes, or else
// the value's bytes from offset `at` on.
constexpr int kKeyChunk = -1;

uint32_t length_code(std::size_t field_bytes) {
  return static_cast<uint32_t>(std::min<std::size_t>(field_bytes, 9)) << 24;
}

SortEntry make_entry(const KV& kv, uint32_t index, bool sort_values) {
  uint32_t tie = length_code(kv.key.size());
  if (sort_values) {
    const std::size_t vlen = std::min<std::size_t>(kv.value.size(), 3);
    for (std::size_t i = 0; i < vlen; ++i) {
      tie |= static_cast<uint32_t>(static_cast<unsigned char>(kv.value[i]))
             << (16 - 8 * i);
    }
  }
  return SortEntry{key_prefix_u64(kv.key), index, tie};
}

// (key, [value,] arrival index) over entries that summarize chunk `at` of
// records tying on everything before it. A record is read only when both
// fields run past the chunk, or, at the key chunk, two values tie on their
// first 3 bytes.
class EntryLess {
 public:
  EntryLess(const KV* records, bool sort_values, int at)
      : records_(records), sort_values_(sort_values), at_(at) {}

  bool operator()(const SortEntry& a, const SortEntry& b) const {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    const uint32_t alen = a.tie >> 24;
    if (alen != b.tie >> 24) return alen < b.tie >> 24;
    const KV& x = records_[a.index];
    const KV& y = records_[b.index];
    if (at_ != kKeyChunk) {
      if (alen > 8) {
        const auto tail = static_cast<std::size_t>(at_) + 8;
        const int c = BytesView(x.value).substr(tail).compare(
            BytesView(y.value).substr(tail));
        if (c != 0) return c < 0;
      }
      return a.index < b.index;
    }
    if (alen > 8) {
      const int c = x.key.compare(y.key);
      if (c != 0) return c < 0;
    }
    if (sort_values_) {
      if (a.tie != b.tie) return a.tie < b.tie;
      const int c = x.value.compare(y.value);
      if (c != 0) return c < 0;
    }
    return a.index < b.index;
  }

 private:
  const KV* records_;
  bool sort_values_;
  int at_;
};

// Buckets this small are finished by insertion sort: a 256-way histogram
// costs more than the comparisons it would save.
constexpr std::size_t kRadixCutoff = 32;

void insertion_sort(SortEntry* e, std::size_t n, const EntryLess& less) {
  for (std::size_t i = 1; i < n; ++i) {
    const SortEntry x = e[i];
    std::size_t j = i;
    for (; j > 0 && less(x, e[j - 1]); --j) e[j] = e[j - 1];
    e[j] = x;
  }
}

// A radix digit: the chunk's bytes 0..7, most significant first, then its
// length code.
constexpr int kDigits = 9;

// Orders one buffer's entries by in-place MSD radix sort (American flag
// sort). The radix pass need not be stable: the index tiebreak of the
// comparator that finishes each bucket makes the order unique.
class RadixOrder {
 public:
  RadixOrder(const KV* records, bool sort_values)
      : records_(records), sort_values_(sort_values) {}

  // Sorts e[0, n), which tie on every chunk before `at` and on digits
  // 0..digit-1 of chunk `at`. A digit constant within the bucket is
  // skipped without moving anything. A bucket that ties on a whole chunk
  // and its length code moves on to the next chunk when there is one: the
  // value's first when the keys ended there (and values are sorted), the
  // value's next when it runs past this one. Each entry is re-keyed from
  // one read of its record and the bucket is radixed again.
  void sort(SortEntry* e, std::size_t n, int digit, int at) const {
    while (n > kRadixCutoff) {
      if (digit == kDigits) {
        const int next = next_chunk(e[0], at);
        if (next == kKeyChunk) break;
        rekey(e, n, next);
        digit = 0;
        at = next;
      }
      const int shift = 56 - 8 * digit;
      auto bucket = [digit, shift](const SortEntry& x) {
        return digit < 8 ? static_cast<unsigned>(x.prefix >> shift) & 0xffu
                         : x.tie >> 24;
      };
      uint32_t count[256] = {};
      for (std::size_t i = 0; i < n; ++i) ++count[bucket(e[i])];
      if (count[bucket(e[0])] == n) {
        ++digit;
        continue;
      }

      uint32_t head[256];
      uint32_t end[256];
      uint32_t sum = 0;
      for (unsigned b = 0; b < 256; ++b) {
        head[b] = sum;
        sum += count[b];
        end[b] = sum;
      }
      // Each entry is swapped straight into the next free slot of its
      // bucket.
      for (unsigned b = 0; b < 256; ++b) {
        while (head[b] < end[b]) {
          SortEntry x = e[head[b]];
          for (unsigned d = bucket(x); d != b; d = bucket(x)) {
            std::swap(x, e[head[d]++]);
          }
          e[head[b]++] = x;
        }
      }
      // Every bucket but `last` is sorted by a recursive call. At a value
      // chunk `last` is the largest bucket, which this loop goes on with,
      // so a call gets at most half the entries and the stack stays
      // O(log n) deep however many chunks tie; at the key chunk the digits
      // bound the depth.
      unsigned last = 256;
      if (at != kKeyChunk) {
        last = 0;
        for (unsigned b = 1; b < 256; ++b) {
          if (count[b] > count[last]) last = b;
        }
      }
      std::size_t from = 0;
      for (unsigned b = 0; b < 256; ++b) {
        if (b != last && count[b] > 1) sort(e + from, count[b], digit + 1, at);
        from += count[b];
      }
      if (last == 256) return;
      e += end[last] - count[last];
      n = count[last];
      ++digit;
    }
    const EntryLess less(records_, sort_values_, at);
    if (n <= kRadixCutoff) {
      insertion_sort(e, n, less);
    } else {
      std::sort(e, e + n, less);
    }
  }

 private:
  // The chunk after `at` for a bucket that ties on all of `at` (x is any
  // of its entries), or kKeyChunk when the comparator must finish it: keys
  // longer than the prefix, a key-only sort, or values that end within it.
  int next_chunk(const SortEntry& x, int at) const {
    const bool continues = x.tie >> 24 > 8;
    if (at == kKeyChunk) return sort_values_ && !continues ? 0 : kKeyChunk;
    return continues ? at + 8 : kKeyChunk;
  }

  // The bucket's entries are in no memory order, so each read is a cache
  // miss unless fetched ahead: the record 2 * kAhead steps ahead, then the
  // value bytes of the record kAhead steps ahead, whose pointer the first
  // fetch brought in.
  void rekey(SortEntry* e, std::size_t n, int at) const {
    constexpr std::size_t kAhead = 8;
    const auto from = static_cast<std::size_t>(at);
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 2 * kAhead < n) {
        __builtin_prefetch(&records_[e[i + 2 * kAhead].index].value);
      }
      if (i + kAhead < n) {
        __builtin_prefetch(records_[e[i + kAhead].index].value.data() + from);
      }
      const BytesView chunk = BytesView(records_[e[i].index].value).substr(from);
      e[i].prefix = key_prefix_u64(chunk);
      e[i].tie = length_code(chunk.size());
    }
  }

  const KV* records_;
  bool sort_values_;
};

// Sorts the entries of `records` in `scratch` (n entries), then packs the
// sorted indices into scratch's first 4n bytes and returns them. Packing
// index i overwrites only bytes of entries already read (4i + 4 <= 16i for
// i >= 1).
uint32_t* order_into(const KVVec& records, bool sort_values,
                     SortEntry* scratch) {
  const std::size_t n = records.size();
  IMR_CHECK_MSG(n <= UINT32_MAX, "a sort buffer indexes records in 32 bits");
  for (std::size_t i = 0; i < n; ++i) {
    scratch[i] = make_entry(records[i], static_cast<uint32_t>(i), sort_values);
  }
  RadixOrder(records.data(), sort_values).sort(scratch, n, 0, kKeyChunk);
  auto* packed = reinterpret_cast<unsigned char*>(scratch);
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t index = scratch[i].index;
    std::memcpy(packed + i * sizeof(uint32_t), &index, sizeof index);
  }
  return reinterpret_cast<uint32_t*>(packed);
}

uint32_t* order_in_arena(const KVVec& records, bool sort_values,
                         RecordArena& arena) {
  arena.reset();
  return order_into(records, sort_values,
                    arena.alloc_array<SortEntry>(records.size()));
}

// Applies `order` in place, cycle by cycle: position i must receive
// records[order[i]]. Each cycle rotates through one saved record; a placed
// slot is marked by pointing its index at itself, so every record moves
// exactly once and no second buffer is needed.
void apply_order(KVVec& records, uint32_t* order) {
  const std::size_t n = records.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t src = order[i];
    if (src == i) continue;
    KV tmp = std::move(records[i]);
    std::size_t dst = i;
    while (src != i) {
      records[dst] = std::move(records[src]);
      order[dst] = static_cast<uint32_t>(dst);
      dst = src;
      src = order[dst];
    }
    records[dst] = std::move(tmp);
    order[dst] = static_cast<uint32_t>(dst);
  }
}

}  // namespace

void sort_records(KVVec& records, bool sort_values) {
  std::vector<SortEntry> scratch(records.size());
  apply_order(records, order_into(records, sort_values, scratch.data()));
}

void sort_records(KVVec& records, bool sort_values, RecordArena& arena) {
  if (records.empty()) return;
  apply_order(records, order_in_arena(records, sort_values, arena));
}

std::span<const uint32_t> sort_order(const KVVec& records, bool sort_values,
                                     RecordArena& arena) {
  if (records.empty()) return {};
  return {order_in_arena(records, sort_values, arena), records.size()};
}

void take_groups(KVVec& records, std::span<const uint32_t> order,
                 const GroupFn& fn) {
  // The walk visits records in key order, not memory order; fetching
  // records ahead overlaps their cache misses. A record spans two cache
  // lines unless the buffer happens to be 64-byte aligned, so both ends are
  // fetched.
  constexpr std::size_t kPrefetchAhead = 16;
  std::vector<Bytes> values;
  std::size_t i = 0;
  while (i < order.size()) {
    const Bytes& key = records[order[i]].key;
    values.clear();
    do {
      if (i + kPrefetchAhead < order.size()) {
        const KV& ahead = records[order[i + kPrefetchAhead]];
        __builtin_prefetch(&ahead);
        __builtin_prefetch(reinterpret_cast<const char*>(&ahead + 1) - 1);
      }
      values.push_back(std::move(records[order[i]].value));
      ++i;
    } while (i < order.size() && records[order[i]].key == key);
    fn(key, values);
  }
}

// ---------------------------------------------------------------------------
// MergeCursor
// ---------------------------------------------------------------------------

namespace {

// Both words of an exhausted leaf's head code. A live code's `lo` is below
// it: its top 4 bits, the key's length code, are at most 9.
constexpr uint64_t kExhausted = ~uint64_t{0};

// Whether code x orders before code y, without a branch.
inline bool code_less(uint64_t xhi, uint64_t xlo, uint64_t yhi, uint64_t ylo) {
  return (xhi < yhi) | ((xhi == yhi) & (xlo < ylo));
}

}  // namespace

// The code of the leaf's head, or all ones once the leaf is exhausted.
MergeCursor::HeadCode MergeCursor::head_code(std::size_t leaf) const {
  if (head_[leaf] == end_[leaf]) return {kExhausted, kExhausted};
  const KV& kv = *head_[leaf];
  const std::size_t key_bytes = kv.key.size();
  uint64_t lo = static_cast<uint64_t>(std::min<std::size_t>(key_bytes, 9))
                << 60;
  if (compare_values_ && key_bytes <= 8) lo |= key_prefix_u64(kv.value) >> 4;
  return {key_prefix_u64(kv.key), lo};
}

// Takes the leaf's next chunk; an empty one leaves the leaf exhausted
// (head == end).
void MergeCursor::refill(std::size_t leaf) {
  const std::span<KV> chunk = sources_[leaf]->next_chunk();
  head_[leaf] = chunk.data();
  end_[leaf] = chunk.data() + chunk.size();
}

// Orders two leaves whose codes are equal: two exhausted leaves, or two
// heads whose keys and values tie on everything the code holds.
bool MergeCursor::tie_less(int a, int b) const {
  const auto i = static_cast<std::size_t>(a);
  if (codes_[i].lo == kExhausted) return a < b;
  const KV& x = *head_[i];
  const KV& y = *head_[static_cast<std::size_t>(b)];
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
  padded_ = next_pow2(k == 0 ? 1 : k);
  codes_.assign(padded_, HeadCode{kExhausted, kExhausted});
  head_.assign(padded_, nullptr);
  end_.assign(padded_, nullptr);
  for (std::size_t i = 0; i < k; ++i) {
    refill(i);
    codes_[i] = head_code(i);
  }
  auto less = [this](int a, int b) {
    const HeadCode& x = codes_[static_cast<std::size_t>(a)];
    const HeadCode& y = codes_[static_cast<std::size_t>(b)];
    if (x.hi == y.hi && x.lo == y.lo) return tie_less(a, b);
    return code_less(x.hi, x.lo, y.hi, y.lo);
  };
  // Build the loser tree bottom-up: winner[node] propagates the smaller
  // head toward the root, each internal node keeping the loser. Leaves are
  // virtual nodes [padded_, 2*padded_) mapping to leaf index node - padded_.
  tree_.assign(padded_, 0);
  std::vector<int> winner(2 * padded_, 0);
  for (std::size_t i = 0; i < padded_; ++i) {
    winner[padded_ + i] = static_cast<int>(i);
  }
  for (std::size_t node = padded_ - 1; node >= 1; --node) {
    const int a = winner[2 * node];
    const int b = winner[2 * node + 1];
    const bool a_wins = less(a, b);
    winner[node] = a_wins ? a : b;
    tree_[node] = a_wins ? b : a;
  }
  tree_[0] = padded_ > 1 ? winner[1] : 0;
}

KV* MergeCursor::next() {
  if (returned_ >= 0) {
    // Advance the leaf whose head the caller took, then replay the path
    // from it to the root: the new head fights each stored loser and the
    // winner bubbles up. The code compare and the selects are branch-free;
    // only equal codes branch off to read the records.
    const auto w = static_cast<std::size_t>(returned_);
    if (++head_[w] == end_[w]) refill(w);
    HeadCode code = head_code(w);
    codes_[w] = code;
    int cur = returned_;
    for (std::size_t node = (padded_ + w) / 2; node >= 1; node /= 2) {
      const int other = tree_[node];
      const HeadCode o = codes_[static_cast<std::size_t>(other)];
      bool other_wins = code_less(o.hi, o.lo, code.hi, code.lo);
      if (o.hi == code.hi && o.lo == code.lo) [[unlikely]] {
        other_wins = tie_less(other, cur);
      }
      // Masked selects: a compiler may turn a ?: into a branch, which the
      // interleaved runs of a merge mispredict half the time.
      const int pick = -static_cast<int>(other_wins);
      const uint64_t pick64 = 0 - static_cast<uint64_t>(other_wins);
      tree_[node] = other ^ ((other ^ cur) & pick);
      cur ^= (cur ^ other) & pick;
      code.hi ^= (code.hi ^ o.hi) & pick64;
      code.lo ^= (code.lo ^ o.lo) & pick64;
    }
    tree_[0] = cur;
  }
  const int w = tree_[0];
  if (codes_[static_cast<std::size_t>(w)].lo == kExhausted) {
    returned_ = -1;
    return nullptr;
  }
  returned_ = w;
  return head_[static_cast<std::size_t>(w)];
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

CombineRun combine_records(KVVec& records, const CombineFn& fn,
                           RecordArena& arena) {
  CombineRun run;
  const ThreadCpuTimer order_cpu;
  const std::span<const uint32_t> order =
      sort_order(records, /*sort_values=*/true, arena);
  run.order_cpu_ns = order_cpu.elapsed_ns();
  const ThreadCpuTimer walk_cpu;
  KVVec combined;
  combined.reserve(records.size() / 2 + 1);
  take_groups(records, order,
              [&](const Bytes& key, const std::vector<Bytes>& values) {
                fn(key, values, combined);
              });
  run.saved = records.size() - combined.size();
  // The reservation guessed a 2x reduction. A combiner that reduces far more
  // (K-means: 75k partials to 10) would otherwise ship a buffer that is
  // mostly empty capacity, which a reduce that keeps its input buffer would
  // keep for the whole job.
  if (combined.size() < combined.capacity() / 2) combined.shrink_to_fit();
  records = std::move(combined);
  run.combine_cpu_ns = walk_cpu.elapsed_ns();
  return run;
}

CombineFn combine_fn(Reducer& combiner) {
  return [&combiner](const Bytes& key, const std::vector<Bytes>& values,
                     KVVec& out) {
    VectorEmitter emitter(out);
    combiner.reduce(key, values, emitter);
  };
}

}  // namespace imr
