// Order-preserving binary codecs.
//
// Keys are compared as raw bytes throughout the sort/shuffle pipeline, so the
// integer codecs are big-endian (lexicographic byte order == numeric order)
// and the double codec uses the standard sign-flip trick. Values do not need
// ordering but use the same codecs for simplicity.
//
// Composite encodings (pairs, vectors) use length-prefixed segments so that
// adjacency lists, coordinate vectors, and tagged unions round-trip exactly.
//
// Every UDF in both engines encodes and decodes through here, so the
// fixed-width codecs work a word at a time: a write appends its big-endian
// bytes in one call (the swap follows std::endian), encode_f64_vec sizes
// its output once, and a read loads a whole word after its bounds check.
// Decoders reject malformed input with FormatError, including an element
// count the rest of the buffer cannot hold, which is checked before
// anything is reserved for it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"

namespace imr {

// ---------------------------------------------------------------------------
// Fixed-width order-preserving scalars.
// ---------------------------------------------------------------------------

void encode_u32(uint32_t v, Bytes& out);
void encode_u64(uint64_t v, Bytes& out);
void encode_i64(int64_t v, Bytes& out);
// Order-preserving double: positive values get the sign bit flipped, negative
// values get all bits flipped, so byte order matches numeric order.
void encode_f64(double v, Bytes& out);

uint32_t decode_u32(BytesView in, std::size_t& pos);
uint64_t decode_u64(BytesView in, std::size_t& pos);
int64_t decode_i64(BytesView in, std::size_t& pos);
double decode_f64(BytesView in, std::size_t& pos);

// Convenience one-shot encoders.
Bytes u32_key(uint32_t v);
Bytes u64_key(uint64_t v);
Bytes f64_value(double v);
uint32_t as_u32(BytesView b);
uint64_t as_u64(BytesView b);
double as_f64(BytesView b);

// ---------------------------------------------------------------------------
// Length-prefixed composites.
// ---------------------------------------------------------------------------

// Varint (LEB128) length prefix — compact for the many small segments in
// adjacency lists. NOT order-preserving; use only inside values or after an
// order-preserving prefix.
void encode_varint(uint64_t v, Bytes& out);
uint64_t decode_varint(BytesView in, std::size_t& pos);

void encode_bytes(BytesView b, Bytes& out);      // varint length + raw bytes
Bytes decode_bytes(BytesView in, std::size_t& pos);
BytesView decode_bytes_view(BytesView in, std::size_t& pos);

void encode_f64_vec(const std::vector<double>& v, Bytes& out);
std::vector<double> decode_f64_vec(BytesView in, std::size_t& pos);

// ---------------------------------------------------------------------------
// Typed helpers used by the algorithms.
// ---------------------------------------------------------------------------

// A weighted out-edge (SSSP static data).
struct WEdge {
  uint32_t dst = 0;
  double weight = 0.0;
  friend bool operator==(const WEdge&, const WEdge&) = default;
};

void encode_wedges(const std::vector<WEdge>& edges, Bytes& out);
std::vector<WEdge> decode_wedges(BytesView in);

// Unweighted out-neighbors (PageRank static data).
void encode_adj(const std::vector<uint32_t>& neighbors, Bytes& out);
std::vector<uint32_t> decode_adj(BytesView in);

// Reader that walks a buffer sequentially; throws FormatError on underflow.
class ByteReader {
 public:
  explicit ByteReader(BytesView in) : in_(in) {}
  bool done() const { return pos_ >= in_.size(); }
  std::size_t pos() const { return pos_; }
  uint32_t u32() { return decode_u32(in_, pos_); }
  uint64_t u64() { return decode_u64(in_, pos_); }
  int64_t i64() { return decode_i64(in_, pos_); }
  double f64() { return decode_f64(in_, pos_); }
  uint64_t varint() { return decode_varint(in_, pos_); }
  Bytes bytes() { return decode_bytes(in_, pos_); }
  BytesView bytes_view() { return decode_bytes_view(in_, pos_); }
  std::vector<double> f64_vec() { return decode_f64_vec(in_, pos_); }

 private:
  BytesView in_;
  std::size_t pos_ = 0;
};

}  // namespace imr
