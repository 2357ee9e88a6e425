// KeyIndex — the one open-addressed index of record keys, and FlatTable, a
// Bytes -> Bytes table built on it (DESIGN.md "Record-path compute").
//
// A KeyIndex maps a key to the position of its record in a KVVec that the
// caller owns: slot -> record index + 1, 0 = empty, linear probing over a
// power-of-two slot array kept at load factor <= 1/2. A map task's static
// join (StaticStore) indexes its sorted partition with one; a persistent
// reduce's state (FlatTable) indexes its insertion-ordered records.
//
// A key's home slot is the top bits of fnv1a(key) * 2^64/phi (Fibonacci
// hashing), never fnv1a's low bits: the hash partitioner routes a key by
// fnv1a(key) % T, so when T has a factor 2^b every key of one partition
// shares the b low bits, and a low-bit home would leave only 1/2^b of the
// slots reachable as homes.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"

namespace imr {

class KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Empties the index and sizes it for `keys` keys at load <= 1/2 (no slots
  // at all for 0). The key count must stay below 2^32.
  void reset(std::size_t keys);
  // Empties the index, keeping its slots.
  void clear();
  // Slot count; the index holds up to half as many keys.
  std::size_t capacity() const { return slots_.size(); }

  // The index of `key`'s record in `records`, or kNone.
  uint32_t find(const KVVec& records, BytesView key) const {
    if (slots_.empty()) return kNone;
    for (std::size_t s = home(key);; s = (s + 1) & mask_) {
      const uint32_t slot = slots_[s];
      if (slot == 0) return kNone;
      if (records[slot - 1].key == key) return slot - 1;
    }
  }

  // As find(), but an absent key takes its free slot for record `next`,
  // which the caller then appends, and `next` is returned. The caller keeps
  // the load at or below 1/2, so a free slot exists.
  uint32_t find_or_insert(const KVVec& records, BytesView key, uint32_t next) {
    for (std::size_t s = home(key);; s = (s + 1) & mask_) {
      const uint32_t slot = slots_[s];
      if (slot == 0) {
        slots_[s] = next + 1;
        return next;
      }
      if (records[slot - 1].key == key) return slot - 1;
    }
  }

  // Indexes record `i`, whose key the index does not hold yet.
  void insert_new(BytesView key, uint32_t i) {
    std::size_t s = home(key);
    while (slots_[s] != 0) s = (s + 1) & mask_;
    slots_[s] = i + 1;
  }

 private:
  std::size_t home(BytesView key) const {
    return static_cast<std::size_t>((fnv1a(key) * 0x9e3779b97f4a7c15ull) >>
                                    shift_);
  }

  std::vector<uint32_t> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
};

// A flat Bytes -> Bytes table: its records in one KVVec, in insertion order,
// under a KeyIndex. There is no erase. A persistent reduce keeps its
// previous iteration's state in one, updated in place each iteration.
// NOT thread-safe.
class FlatTable {
 public:
  // The record of `key`, appended with an empty value when the table lacks
  // it (`.second` is then true). The reference lives until the next insert.
  std::pair<KV&, bool> find_or_insert(BytesView key) {
    if (2 * (records_.size() + 1) > index_.capacity()) {
      reindex(records_.size() + 1);
    }
    const auto next = static_cast<uint32_t>(records_.size());
    const uint32_t i = index_.find_or_insert(records_, key, next);
    if (i != next) return {records_[i], false};
    records_.emplace_back(Bytes(key), Bytes());
    return {records_.back(), true};
  }

  // The record of `key`, or nullptr.
  const KV* find(BytesView key) const {
    const uint32_t i = index_.find(records_, key);
    return i == KeyIndex::kNone ? nullptr : &records_[i];
  }

  // Room for `keys` records without growing the buffer or the index.
  void reserve(std::size_t keys);
  // Drops every record, keeping the record buffer and the slots.
  void clear();

  std::size_t size() const { return records_.size(); }
  // The records in insertion order.
  KVVec::const_iterator begin() const { return records_.begin(); }
  KVVec::const_iterator end() const { return records_.end(); }

 private:
  // Sizes the index for `keys` records (at least 8) and re-indexes them.
  void reindex(std::size_t keys);

  KVVec records_;
  KeyIndex index_;
};

}  // namespace imr
