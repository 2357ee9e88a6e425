// Multi-threaded substrate stress tests.
//
// These exist primarily for the thread-sanitizer CI job (IMR_SANITIZE=thread):
// the fabric's disarmed send fast path, the arm/disarm flag, the shared
// broadcast payload buffers, the striped metrics counters and the striped
// traffic matrix all have lock-free components whose absence-of-races only a
// sanitizer run can prove.
// The assertions themselves (ledger conservation, exact counts) also hold
// under a plain build, so the suite doubles as a concurrency smoke test.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.h"
#include "tests/test_util.h"

namespace imr {
namespace {

NetMessage data_msg(KVVec records, int iteration = 0) {
  NetMessage m;
  m.kind = NetMessage::Kind::kData;
  m.iteration = iteration;
  m.set_records(std::move(records));
  return m;
}

TEST(NetStress, ConcurrentSendersKeepLedgerConserved) {
  auto cluster = testutil::free_cluster();
  constexpr int kThreads = 8;
  constexpr int kSends = 400;
  std::vector<std::shared_ptr<Endpoint>> eps;
  for (int t = 0; t < kThreads; ++t) {
    eps.push_back(
        cluster->fabric().create_endpoint("s" + std::to_string(t), t % 4));
  }

  std::atomic<int64_t> drained{0};
  std::vector<std::thread> receivers;
  for (int t = 0; t < kThreads; ++t) {
    receivers.emplace_back([&, t] {
      VClock vt;
      while (auto m = eps[t]->receive(vt)) {
        drained.fetch_add(static_cast<int64_t>(m->take_records().size()));
      }
    });
  }
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      VClock vt;
      for (int i = 0; i < kSends; ++i) {
        KVVec records;
        records.emplace_back(Bytes("k"), Bytes("v"));
        // Cross traffic: every sender hits every mailbox in turn.
        cluster->fabric().send(t % 4, vt, *eps[(t + i) % kThreads],
                               data_msg(std::move(records), i),
                               TrafficCategory::kShuffle);
      }
    });
  }
  for (auto& th : senders) th.join();
  for (auto& ep : eps) ep->close();
  for (auto& th : receivers) th.join();

  EXPECT_EQ(drained.load(), int64_t{kThreads} * kSends);
  ChannelStats s = cluster->fabric().channel_stats();
  EXPECT_EQ(s.delivered, int64_t{kThreads} * kSends);
  EXPECT_EQ(s.attempts, s.delivered + s.dropped + s.rejected);
  EXPECT_EQ(s.delivered, s.received + s.discarded);
}

TEST(NetStress, ArmDisarmRacesWithConcurrentSends) {
  auto cluster = testutil::free_cluster();
  auto ep = cluster->fabric().create_endpoint("a", 0);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> sent{0};

  constexpr int kSenders = 4;
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&] {
      VClock vt;
      while (!stop.load(std::memory_order_relaxed)) {
        NetMessage m;
        m.kind = NetMessage::Kind::kControl;
        cluster->fabric().send(1, vt, *ep, std::move(m),
                               TrafficCategory::kControl);
        sent.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Toggle the fault machinery while sends are in flight: the armed flag is
  // the lock-free gate the fast path relies on.
  ChannelFaultConfig armed;
  armed.drop_rate = 0.5;
  armed.seed = 9;
  armed.max_attempts = 3;
  for (int i = 0; i < 200; ++i) {
    cluster->fabric().set_channel_faults(armed);
    cluster->fabric().set_channel_faults(ChannelFaultConfig{});
  }
  stop.store(true);
  for (auto& th : senders) th.join();

  // Transient faults retry until delivery: every send() call must land.
  ep->close();
  VClock rv;
  int64_t got = 0;
  while (ep->receive(rv)) ++got;
  EXPECT_EQ(got, sent.load());
  ChannelStats s = cluster->fabric().channel_stats();
  EXPECT_EQ(s.delivered, sent.load());
  EXPECT_EQ(s.attempts, s.delivered + s.dropped + s.rejected);
  EXPECT_EQ(s.delivered, s.received + s.discarded);
}

TEST(NetStress, SharedBroadcastPayloadsSurviveConcurrentTakes) {
  auto cluster = testutil::free_cluster();
  constexpr int kFanout = 8;
  constexpr int kRounds = 200;
  constexpr int kRecords = 16;
  std::vector<std::shared_ptr<Endpoint>> eps;
  for (int t = 0; t < kFanout; ++t) {
    eps.push_back(
        cluster->fabric().create_endpoint("b" + std::to_string(t), t % 4));
  }

  int64_t copies_before = NetMessage::payload_deep_copies();
  std::atomic<int64_t> records_seen{0};
  std::atomic<int64_t> corrupt{0};
  std::vector<std::thread> receivers;
  for (int t = 0; t < kFanout; ++t) {
    receivers.emplace_back([&, t] {
      VClock vt;
      while (auto m = eps[t]->receive(vt)) {
        // Concurrent take_records on the SAME shared buffer from all
        // receivers: marked fan-out copies must deep-copy, never mutate.
        KVVec got = m->take_records();
        records_seen.fetch_add(static_cast<int64_t>(got.size()));
        for (const auto& kv : got) {
          if (kv.value.size() != 32u) corrupt.fetch_add(1);
        }
      }
    });
  }
  VClock sender;
  for (int r = 0; r < kRounds; ++r) {
    KVVec payload;
    for (int i = 0; i < kRecords; ++i) {
      payload.emplace_back(Bytes(8, 'k'), Bytes(32, 'v'));
    }
    cluster->fabric().broadcast(0, sender, eps, data_msg(std::move(payload), r),
                                TrafficCategory::kBroadcast);
  }
  for (auto& ep : eps) ep->close();
  for (auto& th : receivers) th.join();

  EXPECT_EQ(records_seen.load(), int64_t{kRounds} * kFanout * kRecords);
  EXPECT_EQ(corrupt.load(), 0);
  // Every take on a marked fan-out copy deep-copies — exactly one per
  // delivered message, and none at enqueue time.
  EXPECT_EQ(NetMessage::payload_deep_copies(),
            copies_before + int64_t{kRounds} * kFanout);
  ChannelStats s = cluster->fabric().channel_stats();
  EXPECT_EQ(s.delivered, s.received + s.discarded);
}

TEST(NetStress, StripedCountersMergeExactlyUnderContention) {
  MetricsRegistry metrics;
  constexpr int kThreads = 8;
  constexpr int64_t kIncs = 20000;
  std::atomic<bool> done{false};
  // A reader merging the shards mid-flight must see a monotone prefix: shard
  // counts only grow, and a single reader visits each shard in order.
  std::thread reader([&] {
    int64_t last = 0;
    while (!done.load()) {
      int64_t cur = metrics.count("stress_counter");
      EXPECT_GE(cur, last);
      last = cur;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int64_t i = 0; i < kIncs; ++i) metrics.inc("stress_counter");
      metrics.inc("per_thread_total", kIncs);
    });
  }
  for (auto& th : writers) th.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(metrics.count("stress_counter"), kThreads * kIncs);
  EXPECT_EQ(metrics.count("per_thread_total"), kThreads * kIncs);
  EXPECT_EQ(metrics.named_counters().at("stress_counter"), kThreads * kIncs);
}

// The traffic matrix under contention: 8 writers charge a fixed pattern of
// cells — the master's row and column, the diagonal, charges that count no
// transfer — while a reader snapshots. Every cell, category total, remote
// total and transfer count must come out exact, and reset() zeroes them.
TEST(NetStress, TrafficMatrixChargesExactlyUnderContention) {
  constexpr int kWorkers = 3;
  constexpr int kThreads = 8;
  constexpr int kRounds = 6000;
  struct Charge {
    int from, to;
    TrafficCategory c;
    std::size_t bytes;
    bool count_msg;
  };
  // Ids run over [-1, kWorkers), so the pattern covers every slot.
  auto charge = [](int t, int r) {
    return Charge{(t + r) % (kWorkers + 1) - 1,
                  (3 * t + r / 2) % (kWorkers + 1) - 1,
                  static_cast<TrafficCategory>((t + 2 * r) %
                                               kNumTrafficCategories),
                  static_cast<std::size_t>(1 + (t * 7 + r) % 13), r % 4 != 0};
  };
  MetricsRegistry metrics(kWorkers);
  std::atomic<bool> done{false};
  // Counters only grow, so a reader's successive snapshots never shrink.
  std::thread reader([&] {
    int64_t last = 0;
    while (!done.load()) {
      int64_t total = metrics.total_bytes();
      EXPECT_GE(total, last);
      last = total;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const Charge ch = charge(t, r);
        metrics.add_traffic(ch.from, ch.to, ch.c, ch.bytes, ch.count_msg);
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true);
  reader.join();

  TrafficMatrixSnapshot expect(kWorkers);
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      const Charge ch = charge(t, r);
      TrafficCell& cell = expect.cell(ch.from, ch.to, ch.c);
      cell.bytes += static_cast<int64_t>(ch.bytes);
      cell.msgs += ch.count_msg ? 1 : 0;
    }
  }
  const TrafficMatrixSnapshot got = metrics.traffic_matrix();
  int64_t total = 0;
  int64_t remote = 0;
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    const auto cat = static_cast<TrafficCategory>(c);
    for (int f = -1; f < kWorkers; ++f) {
      for (int to = -1; to < kWorkers; ++to) {
        EXPECT_EQ(got.cell(f, to, cat).bytes, expect.cell(f, to, cat).bytes);
        EXPECT_EQ(got.cell(f, to, cat).msgs, expect.cell(f, to, cat).msgs);
      }
    }
    EXPECT_EQ(metrics.traffic_bytes(cat), expect.category_bytes(cat));
    EXPECT_EQ(metrics.traffic_remote_bytes(cat),
              expect.category_remote_bytes(cat));
    EXPECT_EQ(metrics.traffic_transfers(cat), expect.category_msgs(cat));
    EXPECT_GT(expect.category_remote_bytes(cat), 0);
    EXPECT_LT(expect.category_remote_bytes(cat), expect.category_bytes(cat));
    total += expect.category_bytes(cat);
    remote += expect.category_remote_bytes(cat);
  }
  EXPECT_EQ(metrics.total_bytes(), total);
  EXPECT_EQ(metrics.total_remote_bytes(), remote);

  metrics.reset();
  const TrafficMatrixSnapshot zero = metrics.traffic_matrix();
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    const auto cat = static_cast<TrafficCategory>(c);
    EXPECT_EQ(zero.category_bytes(cat), 0);
    EXPECT_EQ(zero.category_msgs(cat), 0);
  }
  EXPECT_EQ(metrics.total_bytes(), 0);
}

}  // namespace
}  // namespace imr
