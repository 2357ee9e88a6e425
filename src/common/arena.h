// Memory governance for the record path: a per-task byte budget and a
// pooled block allocator for record-path scratch structures.
//
// MemoryBudget is the policy object: every buffer the task holds (collected
// shuffle batches, held map output, arena blocks) charges its wire bytes
// against the budget, and the engines consult over() to decide when to stop
// growing: a map ships the output it holds, a reduce degrades to disk (sort
// and spill a run to MiniDfs). The default limit of 0 means unlimited —
// charging still tracks the high-water mark, but over() never fires and the
// engines behave byte-for-byte as before.
//
// RecordArena is the mechanism that takes the global allocator off the hot
// path: sort_records' (prefix, index) order array — one malloc/free pair per
// reduce iteration and per map-side combine today — comes from pooled 64 KiB
// blocks that survive reset() and are reused every iteration. Blocks charge
// the budget when first mapped and release it when the arena dies, so the
// scratch memory is governed like every other buffer.
//
// Both classes are deliberately NOT thread-safe: each engine task owns one
// budget and one arena for its lifetime, on its own thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace imr {

class MemoryBudget {
 public:
  // limit 0 = unlimited (today's behavior; the high-water mark still tracks).
  explicit MemoryBudget(int64_t limit = 0) : limit_(limit) {}

  bool limited() const { return limit_ > 0; }

  void charge(int64_t bytes) {
    used_ += bytes;
    if (used_ > hwm_) hwm_ = used_;
  }
  void release(int64_t bytes) {
    used_ -= bytes;
    if (used_ < 0) used_ = 0;
  }

  // True when a limit is set and charged bytes exceed it — the engines'
  // spill trigger. Checked AFTER the overflowing charge, so a single record
  // larger than the whole budget still makes progress (spill granularity is
  // a buffer, never a fraction of a record).
  bool over() const { return limit_ > 0 && used_ > limit_; }

  int64_t limit() const { return limit_; }
  int64_t used() const { return used_; }
  int64_t hwm() const { return hwm_; }

 private:
  int64_t limit_;
  int64_t used_ = 0;
  int64_t hwm_ = 0;
};

class RecordArena {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  // Block bytes are charged against `budget` (may be null) as blocks are
  // mapped and released when the arena is destroyed.
  explicit RecordArena(MemoryBudget* budget = nullptr) : budget_(budget) {}
  ~RecordArena();

  RecordArena(const RecordArena&) = delete;
  RecordArena& operator=(const RecordArena&) = delete;

  // Bump-allocates `bytes` aligned to `align` (a power of two). Oversized
  // requests get a dedicated block of exactly the requested size.
  void* allocate(std::size_t bytes, std::size_t align);

  // Typed scratch array of n trivially-destructible elements.
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  // Rewinds to empty. Blocks stay mapped (and charged) for reuse — this is
  // the per-iteration fast path: after the first iteration, reset() +
  // allocate() touch no allocator at all.
  void reset();

  // Total bytes of mapped blocks (the budget charge).
  std::size_t block_bytes() const { return total_block_bytes_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  std::vector<Block> blocks_;
  std::size_t cur_ = 0;  // block being bumped; == blocks_.size() when full
  std::size_t off_ = 0;  // offset into blocks_[cur_]
  std::size_t total_block_bytes_ = 0;
  MemoryBudget* budget_;
};

}  // namespace imr
