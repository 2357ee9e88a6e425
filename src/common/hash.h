// Stable hashing for partitioning.
//
// std::hash is implementation-defined; the shuffle partitioner must be stable
// across builds so that tests asserting partition contents and the DFS
// replica placement are deterministic. FNV-1a is simple and good enough for
// key distribution.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/error.h"

namespace imr {

inline uint64_t fnv1a(BytesView data, uint64_t seed = 0xcbf29ce484222325ull) {
  uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The default partitioner used by both engines: hash-mod over key bytes.
// Contract: num_partitions >= 1. A zero partition count is always a caller
// bug (an unvalidated conf or an empty endpoint table), and modulo-by-zero
// is UB — fail loudly instead.
inline uint32_t partition_of(BytesView key, uint32_t num_partitions) {
  IMR_CHECK_MSG(num_partitions > 0, "partition_of: num_partitions == 0");
  return static_cast<uint32_t>(fnv1a(key) % num_partitions);
}

// Smallest power of two >= v (and >= 1). The open-addressed KeyIndex sizes
// to powers of two so the probe sequence is a mask, not a modulo.
inline std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace imr
