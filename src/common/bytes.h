// Core byte-string and key-value record types shared by every layer.
//
// The framework is type-erased at the record level, like Hadoop's
// Writable-based pipeline: keys and values travel as byte strings, and user
// code (or the typed adapters in codec.h) is responsible for encoding.
// Keeping records as bytes is what makes the communication accounting in
// net/ and dfs/ byte-accurate.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace imr {

// Owned byte string. std::string is used deliberately: it has the small
// buffer optimization, is hashable, and comparisons are lexicographic,
// which the sort/shuffle layers rely on (codecs are order-preserving).
using Bytes = std::string;
using BytesView = std::string_view;

// One record flowing through the system.
struct KV {
  Bytes key;
  Bytes value;

  KV() = default;
  KV(Bytes k, Bytes v) : key(std::move(k)), value(std::move(v)) {}

  // Wire size of this record: used by the cost model and traffic counters.
  // 8 bytes of framing approximates the length prefixes on the wire.
  std::size_t wire_size() const { return key.size() + value.size() + 8; }

  friend bool operator==(const KV& a, const KV& b) {
    return a.key == b.key && a.value == b.value;
  }
  friend bool operator<(const KV& a, const KV& b) {
    return a.key != b.key ? a.key < b.key : a.value < b.value;
  }
};

using KVVec = std::vector<KV>;

// First 8 bytes of a key as a big-endian integer, zero-padded on the right
// (the sort reads value chunks the same way). Because the codecs are
// order-preserving, comparing prefixes compares keys:
// prefix(a) < prefix(b) implies a < b lexicographically (a pad byte only ties
// with a real 0x00 byte, and ties fall back to a full compare). The sort and
// join fast paths use this to replace most byte-string compares with one
// integer compare.
inline uint64_t key_prefix_u64(BytesView key) {
  uint64_t p = 0;
  if (key.size() >= 8) {
    std::memcpy(&p, key.data(), sizeof p);
    if constexpr (std::endian::native == std::endian::little) {
      p = __builtin_bswap64(p);
    }
    return p;
  }
  for (std::size_t i = 0; i < key.size(); ++i) {
    p |= static_cast<uint64_t>(static_cast<unsigned char>(key[i]))
         << (56 - 8 * i);
  }
  return p;
}

// Total wire size of a batch of records.
inline std::size_t wire_size(const KVVec& kvs) {
  std::size_t n = 0;
  for (const KV& kv : kvs) n += kv.wire_size();
  return n;
}

}  // namespace imr
