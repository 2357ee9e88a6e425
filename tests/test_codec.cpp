// Codec unit + property tests: round-trips and order preservation.
#include <gtest/gtest.h>

#include <limits>

#include "common/codec.h"
#include "common/rng.h"

namespace imr {
namespace {

TEST(Codec, U32RoundTrip) {
  for (uint32_t v : {0u, 1u, 255u, 256u, 65536u, 4294967295u}) {
    EXPECT_EQ(as_u32(u32_key(v)), v);
  }
}

TEST(Codec, U64RoundTrip) {
  for (uint64_t v : {0ull, 1ull, 1ull << 40, ~0ull}) {
    EXPECT_EQ(as_u64(u64_key(v)), v);
  }
}

TEST(Codec, I64RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    Bytes b;
    encode_i64(v, b);
    std::size_t pos = 0;
    EXPECT_EQ(decode_i64(b, pos), v);
  }
}

TEST(Codec, F64RoundTripIncludingSpecials) {
  for (double v : {0.0, -0.0, 1.5, -1.5, 1e300, -1e300,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min()}) {
    Bytes b;
    encode_f64(v, b);
    std::size_t pos = 0;
    EXPECT_EQ(decode_f64(b, pos), v);
  }
}

TEST(Codec, U32OrderPreserving) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto a = static_cast<uint32_t>(rng.next_u64());
    auto b = static_cast<uint32_t>(rng.next_u64());
    EXPECT_EQ(a < b, u32_key(a) < u32_key(b));
  }
}

TEST(Codec, I64OrderPreserving) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    auto a = static_cast<int64_t>(rng.next_u64());
    auto b = static_cast<int64_t>(rng.next_u64());
    Bytes ea, eb;
    encode_i64(a, ea);
    encode_i64(b, eb);
    EXPECT_EQ(a < b, ea < eb) << a << " vs " << b;
  }
}

TEST(Codec, F64OrderPreserving) {
  Rng rng(3);
  std::vector<double> vals = {-std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::infinity(), 0.0};
  for (int i = 0; i < 500; ++i) {
    vals.push_back(rng.gaussian(0, 1e6));
    vals.push_back(rng.uniform_real(-1, 1));
  }
  for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
    Bytes ea, eb;
    encode_f64(vals[i], ea);
    encode_f64(vals[i + 1], eb);
    EXPECT_EQ(vals[i] < vals[i + 1], ea < eb)
        << vals[i] << " vs " << vals[i + 1];
  }
}

TEST(Codec, VarintRoundTrip) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.next_u64() >> (i % 64);
    Bytes b;
    encode_varint(v, b);
    std::size_t pos = 0;
    EXPECT_EQ(decode_varint(b, pos), v);
    EXPECT_EQ(pos, b.size());
  }
}

TEST(Codec, BytesSegmentRoundTrip) {
  Bytes out;
  encode_bytes("hello", out);
  encode_bytes("", out);
  encode_bytes(Bytes(1000, 'x'), out);
  std::size_t pos = 0;
  EXPECT_EQ(decode_bytes(out, pos), "hello");
  EXPECT_EQ(decode_bytes(out, pos), "");
  EXPECT_EQ(decode_bytes(out, pos), Bytes(1000, 'x'));
  EXPECT_EQ(pos, out.size());
}

TEST(Codec, F64VecRoundTrip) {
  std::vector<double> v = {1.0, -2.5, 0.0, 1e-300};
  Bytes b;
  encode_f64_vec(v, b);
  std::size_t pos = 0;
  EXPECT_EQ(decode_f64_vec(b, pos), v);
}

TEST(Codec, WEdgesRoundTrip) {
  std::vector<WEdge> edges = {{1, 0.5}, {100, 2.25}, {4294967295u, -1.0}};
  Bytes b;
  encode_wedges(edges, b);
  EXPECT_EQ(decode_wedges(b), edges);
}

TEST(Codec, EmptyWEdges) {
  Bytes b;
  encode_wedges({}, b);
  EXPECT_TRUE(decode_wedges(b).empty());
}

TEST(Codec, AdjRoundTrip) {
  std::vector<uint32_t> adj = {0, 5, 17, 4294967295u};
  Bytes b;
  encode_adj(adj, b);
  EXPECT_EQ(decode_adj(b), adj);
}

TEST(Codec, UnderflowThrows) {
  Bytes b = u32_key(7);
  std::size_t pos = 2;
  EXPECT_THROW(decode_u64(b, pos), FormatError);
  EXPECT_THROW(as_u32(Bytes("abc")), FormatError);
  EXPECT_THROW(decode_wedges(Bytes("\x05")), FormatError);
  // A 2^63 element count is malformed input, not an allocation request.
  Bytes huge;
  encode_varint(1ull << 63, huge);
  pos = 0;
  EXPECT_THROW(decode_f64_vec(huge, pos), FormatError);
  EXPECT_THROW(decode_adj(huge), FormatError);
  EXPECT_THROW(decode_wedges(huge), FormatError);
  // A segment length that wraps pos + n around is an underflow too.
  Bytes wrap("x");
  encode_varint(~0ull, wrap);
  pos = 1;
  EXPECT_THROW(decode_bytes_view(wrap, pos), FormatError);
}

TEST(Codec, TrailingBytesThrow) {
  Bytes b = u32_key(7);
  b.push_back('x');
  EXPECT_THROW(as_u32(b), FormatError);
}

TEST(Codec, ByteReaderWalksSequentially) {
  Bytes b;
  encode_u32(42, b);
  encode_f64(2.5, b);
  encode_varint(1000, b);
  encode_bytes("seg", b);
  ByteReader r(b);
  EXPECT_EQ(r.u32(), 42u);
  EXPECT_EQ(r.f64(), 2.5);
  EXPECT_EQ(r.varint(), 1000u);
  EXPECT_EQ(r.bytes(), "seg");
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace imr
