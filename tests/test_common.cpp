// Unit tests for the common substrate: queues, clocks, strings, RNG, hashing.
#include <gtest/gtest.h>

#include <thread>

#include "common/blocking_queue.h"
#include "common/error.h"
#include "common/codec.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/params.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/strings.h"

namespace imr {
namespace {

TEST(Log, FormatLinePrefixLayout) {
  // "[<sec 10-wide>.<ms 3-wide> LEVEL tNN tag] msg" — attributable,
  // monotonic, column-aligned.
  EXPECT_EQ(detail::format_log_line(LogLevel::kInfo, "hello", 12345, 7,
                                    "sssp/p0/m1"),
            "[        12.345 INFO  t07 sssp/p0/m1] hello");
  EXPECT_EQ(detail::format_log_line(LogLevel::kError, "boom", 999, 12, ""),
            "[         0.999 ERROR t12] boom");
  EXPECT_EQ(detail::format_log_line(LogLevel::kWarn, "w", 61000, 3, "x"),
            "[        61.000 WARN  t03 x] w");
  EXPECT_EQ(detail::format_log_line(LogLevel::kDebug, "", 0, 0, ""),
            "[         0.000 DEBUG t00] ");
}

TEST(Log, ThreadTagBindAndClear) {
  // set_thread_log_tag feeds the formatter's tag field; a cleared tag drops
  // the column entirely (see TaskContext, which binds the task name).
  set_thread_log_tag("task-a");
  clear_thread_log_tag();
  // No crash and idempotent clear.
  clear_thread_log_tag();
  SUCCEED();
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BlockingQueue, CloseDrainsThenReturnsNullopt) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), std::nullopt);
  q.push(9);  // dropped after close
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BlockingQueue, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::thread t([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.close();
  t.join();
}

TEST(BlockingQueue, ResetReopens) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  q.reset();
  EXPECT_FALSE(q.closed());
  EXPECT_EQ(q.size(), 0u);
  q.push(5);
  EXPECT_EQ(q.pop(), 5);
}

TEST(BlockingQueue, ConcurrentProducersAllDelivered) {
  BlockingQueue<int> q;
  constexpr int kPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  std::vector<bool> seen(4 * kPerProducer, false);
  int count = 0;
  while (count < 4 * kPerProducer) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    ASSERT_FALSE(seen[static_cast<std::size_t>(*v)]);
    seen[static_cast<std::size_t>(*v)] = true;
    ++count;
  }
  for (auto& t : producers) t.join();
}

TEST(VClock, AdvanceAndSync) {
  VClock c;
  EXPECT_EQ(c.now_ns(), 0);
  c.advance(sim_ms(2));
  EXPECT_EQ(c.now_ns(), 2000000);
  c.sync_to(1000000);  // past: no-op
  EXPECT_EQ(c.now_ns(), 2000000);
  c.sync_to(5000000);
  EXPECT_EQ(c.now_ns(), 5000000);
  c.advance(SimDuration(-5));  // negative charges ignored
  EXPECT_EQ(c.now_ns(), 5000000);
}

TEST(SimTime, TransferTime) {
  EXPECT_EQ(transfer_time(1000, 1e6).count(), 1000000);  // 1ms
  EXPECT_EQ(transfer_time(123, 0).count(), 0);           // free
}

TEST(SimTime, ThreadCpuTimerMeasuresWork) {
  ThreadCpuTimer t;
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001;
  EXPECT_GT(t.elapsed_ns(), 0);
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(16u << 20), "16.00 MB");
}

TEST(Strings, HumanCount) {
  EXPECT_EQ(human_count(999), "999");
  EXPECT_EQ(human_count(1500000), "1.5M");
}

TEST(Hash, StablePartitioning) {
  // The partitioner is part of the on-disk/protocol contract; pin values.
  EXPECT_EQ(partition_of("abc", 16), partition_of("abc", 16));
  uint32_t p = partition_of("node42", 8);
  EXPECT_LT(p, 8u);
}

TEST(Hash, SpreadsKeys) {
  std::vector<int> buckets(16, 0);
  for (uint32_t i = 0; i < 16000; ++i) {
    Bytes k;
    encode_u32(i, k);
    ++buckets[partition_of(k, 16)];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 500);
    EXPECT_LT(b, 1500);
  }
}

TEST(Rng, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SampleDistinct) {
  Rng rng(5);
  auto s = rng.sample_distinct(100, 50);
  std::set<uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 50u);
  for (uint64_t v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, LogNormalMeanRoughlyMatches) {
  Rng rng(6);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.log_normal(1.5, 1.0);
  double mean = sum / kN;
  double expected = std::exp(1.5 + 0.5);  // e^{mu + sigma^2/2}
  EXPECT_NEAR(mean, expected, expected * 0.1);
}

TEST(Params, TypedAccessors) {
  Params p;
  p.set("s", "v");
  p.set_int("i", 42);
  p.set_double("d", 1.5);
  p.set_bool("b", true);
  EXPECT_EQ(p.get("s"), "v");
  EXPECT_EQ(p.get_int("i"), 42);
  EXPECT_EQ(p.get_double("d"), 1.5);
  EXPECT_TRUE(p.get_bool("b", false));
  EXPECT_EQ(p.get_int("missing", 7), 7);
  EXPECT_THROW(p.get("missing"), ConfigError);
}

TEST(Strings, ParseDoubleStrictRejectsNonNumbers) {
  double out = -1.0;
  // The whole string must be a number: no trailing junk, no comma decimals
  // (under a de_DE locale std::stod would read "1,5" as 1.5 and "0.85" as 0
  // — the strict parser is locale-independent by construction).
  EXPECT_FALSE(parse_double_strict("", out));
  EXPECT_FALSE(parse_double_strict(" 1.5", out));
  EXPECT_FALSE(parse_double_strict("1.5 ", out));
  EXPECT_FALSE(parse_double_strict("1.5x", out));
  EXPECT_FALSE(parse_double_strict("1,5", out));
  EXPECT_FALSE(parse_double_strict("1e", out));
  EXPECT_FALSE(parse_double_strict("nanx", out));
  EXPECT_FALSE(parse_double_strict("1e999999", out));  // out of range

  ASSERT_TRUE(parse_double_strict("0.85", out));
  EXPECT_EQ(out, 0.85);
  ASSERT_TRUE(parse_double_strict("-1e-300", out));
  EXPECT_EQ(out, -1e-300);
  ASSERT_TRUE(parse_double_strict("2.5e-17", out));
  EXPECT_EQ(out, 2.5e-17);
  ASSERT_TRUE(parse_double_strict("-0.5", out));
  EXPECT_EQ(out, -0.5);
}

TEST(Strings, ParseByteCountIsStrictAndRejectsOverflow) {
  int64_t out = -1;
  ASSERT_TRUE(parse_byte_count("64k", out));
  EXPECT_EQ(out, 64 * 1024);
  ASSERT_TRUE(parse_byte_count("1g", out));
  EXPECT_EQ(out, int64_t{1} << 30);
  EXPECT_FALSE(parse_byte_count("0", out));
  EXPECT_FALSE(parse_byte_count("-1", out));
  EXPECT_FALSE(parse_byte_count("12kb", out));
  // Counts past int64_t fail, whether the suffix multiply or the digits
  // overflow; neither may wrap or saturate.
  EXPECT_FALSE(parse_byte_count("9999999999g", out));
  EXPECT_FALSE(parse_byte_count("99999999999999999999", out));
  EXPECT_EQ(out, int64_t{1} << 30);  // failures leave `out` alone
}

TEST(Params, SetDoubleRejectsMalformedStrings) {
  Params p;
  p.set("bad", "0,85");
  EXPECT_THROW(p.get_double("bad"), ConfigError);
  p.set("junk", "1.5extra");
  EXPECT_THROW(p.get_double("junk"), ConfigError);
  p.set("ok", "0.85");
  EXPECT_EQ(p.get_double("ok"), 0.85);
}

TEST(Params, DoublesRoundTripExactly) {
  // std::to_string would flatten sub-5e-7 magnitudes to "0.000000" — a
  // workset delta threshold of 1e-7 must survive the string encoding
  // bit-for-bit, as must irrational-looking constants and extremes.
  Params p;
  for (double v : {1e-7, 1e-9, 2.5e-17, 0.8, 1.0 / 3.0, 6.02214076e23,
                   -1e-300, 0.0}) {
    p.set_double("d", v);
    EXPECT_EQ(p.get_double("d"), v) << "value " << v;
  }
}

}  // namespace
}  // namespace imr
