#include "common/codec.h"

#include <bit>
#include <cstring>

namespace imr {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw FormatError(what);
}

// Swaps between host and big-endian byte order (its own inverse).
template <typename T>
T big_endian(T v) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else if constexpr (sizeof(T) == 8) {
    return __builtin_bswap64(v);
  } else {
    return __builtin_bswap32(v);
  }
}

// Appends v's big-endian bytes in one call.
template <typename T>
void put_be(T v, Bytes& out) {
  const T be = big_endian(v);
  out.append(reinterpret_cast<const char*>(&be), sizeof be);
}

// Loads a big-endian word the caller has bounds-checked.
template <typename T>
T load_be(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return big_endian(v);
}

template <typename T>
T get_be(BytesView in, std::size_t& pos) {
  require(pos + sizeof(T) <= in.size(),
          "buffer underflow in fixed-width decode");
  const T v = load_be<T>(in.data() + pos);
  pos += sizeof(T);
  return v;
}

// Order-preserving transform for IEEE-754: positive values get the sign
// bit set, negative values get every bit flipped.
uint64_t f64_bits(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return bits >> 63 ? ~bits : bits | (1ull << 63);
}

double f64_from_bits(uint64_t bits) {
  return std::bit_cast<double>(bits >> 63 ? bits & ~(1ull << 63) : ~bits);
}

// An element count read from the input. Every element takes at least
// `width` bytes, so a count the rest of the buffer cannot hold is malformed;
// it is rejected before anything is reserved for it.
uint64_t decode_count(BytesView in, std::size_t& pos, std::size_t width) {
  const uint64_t n = decode_varint(in, pos);
  require(n <= (in.size() - pos) / width,
          "element count exceeds the buffer");
  return n;
}

}  // namespace

void encode_u32(uint32_t v, Bytes& out) { put_be(v, out); }
void encode_u64(uint64_t v, Bytes& out) { put_be(v, out); }

void encode_i64(int64_t v, Bytes& out) {
  // Flip the sign bit so negative < positive in byte order.
  put_be(static_cast<uint64_t>(v) ^ (1ull << 63), out);
}

void encode_f64(double v, Bytes& out) { put_be(f64_bits(v), out); }

uint32_t decode_u32(BytesView in, std::size_t& pos) {
  return get_be<uint32_t>(in, pos);
}

uint64_t decode_u64(BytesView in, std::size_t& pos) {
  return get_be<uint64_t>(in, pos);
}

int64_t decode_i64(BytesView in, std::size_t& pos) {
  return static_cast<int64_t>(get_be<uint64_t>(in, pos) ^ (1ull << 63));
}

double decode_f64(BytesView in, std::size_t& pos) {
  return f64_from_bits(get_be<uint64_t>(in, pos));
}

Bytes u32_key(uint32_t v) {
  Bytes b;
  b.reserve(4);
  encode_u32(v, b);
  return b;
}

Bytes u64_key(uint64_t v) {
  Bytes b;
  b.reserve(8);
  encode_u64(v, b);
  return b;
}

Bytes f64_value(double v) {
  Bytes b;
  b.reserve(8);
  encode_f64(v, b);
  return b;
}

uint32_t as_u32(BytesView b) {
  std::size_t pos = 0;
  uint32_t v = decode_u32(b, pos);
  require(pos == b.size(), "trailing bytes after u32");
  return v;
}

uint64_t as_u64(BytesView b) {
  std::size_t pos = 0;
  uint64_t v = decode_u64(b, pos);
  require(pos == b.size(), "trailing bytes after u64");
  return v;
}

double as_f64(BytesView b) {
  std::size_t pos = 0;
  double v = decode_f64(b, pos);
  require(pos == b.size(), "trailing bytes after f64");
  return v;
}

void encode_varint(uint64_t v, Bytes& out) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

uint64_t decode_varint(BytesView in, std::size_t& pos) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    require(pos < in.size(), "buffer underflow in varint");
    require(shift < 64, "varint too long");
    unsigned char b = static_cast<unsigned char>(in[pos++]);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

void encode_bytes(BytesView b, Bytes& out) {
  encode_varint(b.size(), out);
  out.append(b);
}

Bytes decode_bytes(BytesView in, std::size_t& pos) {
  return Bytes(decode_bytes_view(in, pos));
}

BytesView decode_bytes_view(BytesView in, std::size_t& pos) {
  uint64_t n = decode_varint(in, pos);
  require(n <= in.size() - pos, "buffer underflow in bytes segment");
  BytesView v = in.substr(pos, n);
  pos += n;
  return v;
}

void encode_f64_vec(const std::vector<double>& v, Bytes& out) {
  encode_varint(v.size(), out);
  const std::size_t at = out.size();
  out.resize(at + 8 * v.size());
  char* p = out.data() + at;
  for (double d : v) {
    const uint64_t be = big_endian(f64_bits(d));
    std::memcpy(p, &be, sizeof be);
    p += sizeof be;
  }
}

std::vector<double> decode_f64_vec(BytesView in, std::size_t& pos) {
  const uint64_t n = decode_count(in, pos, 8);
  std::vector<double> v(n);
  for (double& d : v) {
    d = f64_from_bits(load_be<uint64_t>(in.data() + pos));
    pos += 8;
  }
  return v;
}

void encode_wedges(const std::vector<WEdge>& edges, Bytes& out) {
  encode_varint(edges.size(), out);
  for (const WEdge& e : edges) {
    encode_u32(e.dst, out);
    encode_f64(e.weight, out);
  }
}

std::vector<WEdge> decode_wedges(BytesView in) {
  std::size_t pos = 0;
  const uint64_t n = decode_count(in, pos, 12);
  std::vector<WEdge> edges;
  edges.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    WEdge e;
    e.dst = decode_u32(in, pos);
    e.weight = decode_f64(in, pos);
    edges.push_back(e);
  }
  require(pos == in.size(), "trailing bytes after edge list");
  return edges;
}

void encode_adj(const std::vector<uint32_t>& neighbors, Bytes& out) {
  encode_varint(neighbors.size(), out);
  for (uint32_t v : neighbors) encode_u32(v, out);
}

std::vector<uint32_t> decode_adj(BytesView in) {
  std::size_t pos = 0;
  const uint64_t n = decode_count(in, pos, 4);
  std::vector<uint32_t> adj;
  adj.reserve(n);
  for (uint64_t i = 0; i < n; ++i) adj.push_back(decode_u32(in, pos));
  require(pos == in.size(), "trailing bytes after adjacency list");
  return adj;
}

}  // namespace imr
