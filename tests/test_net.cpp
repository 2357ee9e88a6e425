// Fabric tests: delivery, virtual-time stamping, local vs remote costing,
// broadcast, and traffic conservation.
#include <gtest/gtest.h>

#include <thread>
#include <tuple>

#include "tests/test_util.h"

namespace imr {
namespace {

NetMessage data_msg(KVVec records) {
  NetMessage m;
  m.kind = NetMessage::Kind::kData;
  m.set_records(std::move(records));
  return m;
}

TEST(Fabric, DeliversInOrder) {
  auto cluster = testutil::free_cluster();
  auto ep = cluster->fabric().create_endpoint("a", 0);
  VClock sender;
  for (int i = 0; i < 5; ++i) {
    NetMessage m = data_msg({});
    m.iteration = i;
    cluster->fabric().send(1, sender, *ep, std::move(m),
                           TrafficCategory::kShuffle);
  }
  VClock recv;
  for (int i = 0; i < 5; ++i) {
    auto m = ep->receive(recv);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->iteration, i);
  }
}

TEST(Fabric, RemoteSendAdvancesSenderAndStampsArrival) {
  auto cluster = testutil::costed_cluster();
  auto ep = cluster->fabric().create_endpoint("a", 0);
  VClock sender;
  KVVec payload;
  payload.emplace_back(Bytes(100, 'k'), Bytes(100000, 'v'));
  cluster->fabric().send(1, sender, *ep, data_msg(std::move(payload)),
                         TrafficCategory::kShuffle);
  EXPECT_GT(sender.now_ns(), 0);  // serialization charged to sender

  VClock recv;
  auto m = ep->receive(recv);
  ASSERT_TRUE(m.has_value());
  // Arrival = sender finish + latency.
  EXPECT_GT(m->vt_ready, sender.now_ns());
  EXPECT_EQ(recv.now_ns(), m->vt_ready);
}

TEST(Fabric, LocalSendCheaperThanRemote) {
  auto cluster = testutil::costed_cluster();
  auto ep = cluster->fabric().create_endpoint("a", 0);
  KVVec payload;
  payload.emplace_back(Bytes(8, 'k'), Bytes(100000, 'v'));

  VClock local_sender;
  cluster->fabric().send(0, local_sender, *ep, data_msg(payload),
                         TrafficCategory::kReduceToMap);
  VClock remote_sender;
  cluster->fabric().send(1, remote_sender, *ep, data_msg(payload),
                         TrafficCategory::kReduceToMap);
  EXPECT_LT(local_sender.now_ns(), remote_sender.now_ns());

  // Only the remote copy counts as remote traffic.
  int64_t total = cluster->metrics().traffic_bytes(TrafficCategory::kReduceToMap);
  int64_t remote =
      cluster->metrics().traffic_remote_bytes(TrafficCategory::kReduceToMap);
  EXPECT_GT(total, remote);
  EXPECT_GT(remote, 100000);
  EXPECT_LT(remote, 2 * 100000 + 1000);
  // Each send is charged from the sender's worker to the endpoint's home.
  const TrafficMatrixSnapshot m = cluster->metrics().traffic_matrix();
  EXPECT_EQ(m.cell(1, 0, TrafficCategory::kReduceToMap).bytes, remote);
  EXPECT_EQ(m.cell(0, 0, TrafficCategory::kReduceToMap).bytes,
            total - remote);
}

TEST(Fabric, ReceiverClockNeverMovesBackwards) {
  auto cluster = testutil::costed_cluster();
  auto ep = cluster->fabric().create_endpoint("a", 0);
  VClock sender;
  cluster->fabric().send(1, sender, *ep, data_msg({}),
                         TrafficCategory::kControl);
  VClock recv(int64_t{1} << 40);  // receiver already far in the future
  auto m = ep->receive(recv);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(recv.now_ns(), int64_t{1} << 40);
}

TEST(Fabric, BroadcastChargesPerCopy) {
  auto cluster = testutil::costed_cluster();
  std::vector<std::shared_ptr<Endpoint>> eps;
  for (int i = 0; i < 4; ++i) {
    eps.push_back(cluster->fabric().create_endpoint("b" + std::to_string(i),
                                                    i % 2));
  }
  KVVec payload;
  payload.emplace_back(Bytes(8, 'k'), Bytes(50000, 'v'));
  VClock sender;
  cluster->fabric().broadcast(0, sender, eps, data_msg(std::move(payload)),
                              TrafficCategory::kBroadcast);
  EXPECT_EQ(cluster->metrics().traffic_transfers(TrafficCategory::kBroadcast),
            4);
  for (auto& ep : eps) EXPECT_EQ(ep->pending(), 1u);
}

TEST(Fabric, FindAndRemove) {
  auto cluster = testutil::free_cluster();
  cluster->fabric().create_endpoint("x", 0);
  EXPECT_NO_THROW(cluster->fabric().find("x"));
  cluster->fabric().remove_endpoint("x");
  EXPECT_THROW(cluster->fabric().find("x"), Error);
}

TEST(Fabric, CloseUnblocksReceiver) {
  auto cluster = testutil::free_cluster();
  auto ep = cluster->fabric().create_endpoint("a", 0);
  std::thread t([&] {
    VClock c;
    EXPECT_EQ(ep->receive(c), std::nullopt);
  });
  ep->close();
  t.join();
}

TEST(Fabric, ChannelFaultsRetryUntilDelivered) {
  auto cluster = testutil::free_cluster();
  ChannelFaultConfig faults;
  faults.drop_rate = 0.8;
  faults.seed = 5;
  faults.max_attempts = 6;
  cluster->fabric().set_channel_faults(faults);

  auto ep = cluster->fabric().create_endpoint("a", 0);
  VClock sender;
  for (int i = 0; i < 50; ++i) {
    NetMessage m = data_msg({});
    m.iteration = i;
    cluster->fabric().send(1, sender, *ep, std::move(m),
                           TrafficCategory::kShuffle);
  }
  // Every message arrives, in per-sender FIFO order, despite heavy drops.
  VClock recv;
  for (int i = 0; i < 50; ++i) {
    auto m = ep->receive(recv);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->iteration, i);
  }
  ChannelStats s = cluster->fabric().channel_stats();
  EXPECT_EQ(s.delivered, 50);
  EXPECT_EQ(s.received, 50);
  EXPECT_GT(s.dropped, 0);
  EXPECT_EQ(s.attempts, s.delivered + s.dropped + s.rejected);
  EXPECT_GT(cluster->metrics().count("net_dropped_sends"), 0);
  EXPECT_EQ(cluster->metrics().count("net_dropped_sends"), s.dropped);
}

TEST(Fabric, SameSeedSameDropDecisions) {
  // The channel-fault RNG must be consumed in a deterministic order: one
  // draw per send attempt, under the fault mutex, including the re-acquired
  // retry attempts. Two identical runs with the same seed must produce the
  // same drop ledger bit for bit — this is what makes every chaos seed
  // reproducible.
  auto run_once = [] {
    auto cluster = testutil::free_cluster();
    ChannelFaultConfig faults;
    faults.drop_rate = 0.6;
    faults.seed = 42;
    faults.max_attempts = 8;
    cluster->fabric().set_channel_faults(faults);
    auto ep = cluster->fabric().create_endpoint("a", 0);
    VClock sender;
    for (int i = 0; i < 200; ++i) {
      NetMessage m = data_msg({});
      m.iteration = i;
      cluster->fabric().send(1, sender, *ep, std::move(m),
                             TrafficCategory::kShuffle);
    }
    ChannelStats s = cluster->fabric().channel_stats();
    return std::tuple(s.attempts, s.dropped,
                      cluster->metrics().count("net_dropped_sends"));
  };
  auto first = run_once();
  EXPECT_GT(std::get<1>(first), 0) << "fault config never dropped a send";
  EXPECT_EQ(first, run_once());
}

TEST(Fabric, DroppedAttemptsChargeRetryBackoffTime) {
  auto send_many = [](double drop_rate) {
    auto cluster = testutil::costed_cluster();
    ChannelFaultConfig faults;
    faults.drop_rate = drop_rate;
    faults.seed = 11;
    cluster->fabric().set_channel_faults(faults);
    auto ep = cluster->fabric().create_endpoint("a", 0);
    VClock sender;
    KVVec payload;
    payload.emplace_back(Bytes(8, 'k'), Bytes(10000, 'v'));
    for (int i = 0; i < 20; ++i) {
      cluster->fabric().send(1, sender, *ep, data_msg(payload),
                             TrafficCategory::kShuffle);
    }
    return sender.now_ns();
  };
  // Retried sends pay the detection timeout + wasted wire time, so the
  // faulty sender's clock runs later than the clean one's.
  EXPECT_GT(send_many(0.7), send_many(0.0));
}

TEST(Fabric, RejectedPushToClosedMailboxStaysOnLedger) {
  auto cluster = testutil::free_cluster();
  auto ep = cluster->fabric().create_endpoint("a", 0);
  ep->close();
  VClock sender;
  cluster->fabric().send(1, sender, *ep, data_msg({}),
                         TrafficCategory::kShuffle);
  ChannelStats s = cluster->fabric().channel_stats();
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.delivered, 0);
  EXPECT_EQ(s.attempts, s.delivered + s.dropped + s.rejected);
}

TEST(Fabric, TeardownDeclaresUndrainedDiscards) {
  auto cluster = testutil::free_cluster();
  VClock sender;
  {
    auto ep = cluster->fabric().create_endpoint("a", 0);
    for (int i = 0; i < 3; ++i) {
      cluster->fabric().send(1, sender, *ep, data_msg({}),
                             TrafficCategory::kShuffle);
    }
    cluster->fabric().remove_endpoint("a");
  }  // last handle gone: the destructor declares every undrained message
  ChannelStats s = cluster->fabric().channel_stats();
  EXPECT_EQ(s.delivered, 3);
  EXPECT_EQ(s.discarded, 3);
  EXPECT_EQ(s.received, 0);
  // Quiesced: delivered == received + discarded.
  EXPECT_EQ(s.delivered, s.received + s.discarded);
}

TEST(Fabric, SendsFromDeadWorkersAreSuppressed) {
  auto cluster = testutil::free_cluster();
  auto ep = cluster->fabric().create_endpoint("a", 0);
  cluster->mark_dead(1);
  VClock sender;
  cluster->fabric().send(1, sender, *ep, data_msg({}),
                         TrafficCategory::kReduceToMap);
  EXPECT_EQ(ep->pending(), 0u);  // the machine is gone; nothing hit the wire
  EXPECT_EQ(sender.now_ns(), 0);
  EXPECT_EQ(cluster->metrics().traffic_bytes(TrafficCategory::kReduceToMap),
            0);
  EXPECT_EQ(cluster->metrics().count("net_zombie_sends"), 1);
  ChannelStats s = cluster->fabric().channel_stats();
  EXPECT_EQ(s.dropped, 1);
  EXPECT_EQ(s.attempts, s.delivered + s.dropped + s.rejected);

  // Master control traffic (sender -1) is never suppressed.
  VClock master;
  cluster->fabric().send(-1, master, *ep, data_msg({}),
                         TrafficCategory::kControl);
  EXPECT_EQ(ep->pending(), 1u);
}

TEST(Fabric, ChannelFaultConfigValidated) {
  auto cluster = testutil::free_cluster();
  ChannelFaultConfig bad;
  bad.drop_rate = 1.0;  // would retry forever
  EXPECT_THROW(cluster->fabric().set_channel_faults(bad), Error);
  bad.drop_rate = 0.5;
  bad.max_attempts = 0;
  EXPECT_THROW(cluster->fabric().set_channel_faults(bad), Error);
  bad.max_attempts = 3;
  bad.backoff_factor = 0.5;
  EXPECT_THROW(cluster->fabric().set_channel_faults(bad), Error);
}

TEST(Fabric, MigrationRecreatesEndpointOnNewHome) {
  auto cluster = testutil::costed_cluster();
  auto ep = cluster->fabric().create_endpoint("a", 0);
  KVVec payload;
  payload.emplace_back(Bytes(8, 'k'), Bytes(50000, 'v'));
  VClock s1;
  cluster->fabric().send(0, s1, *ep, data_msg(payload),
                         TrafficCategory::kShuffle);  // local
  // Task migration: an endpoint's home is fixed for life, so the master
  // re-creates the mailbox under the same name homed on the target.
  auto moved = cluster->fabric().create_endpoint("a", 2);
  EXPECT_EQ(cluster->fabric().find("a"), moved);
  EXPECT_EQ(moved->home_worker(), 2);
  EXPECT_EQ(cluster->fabric().endpoint_count(), 1u);  // replaced, not added
  VClock s2;
  cluster->fabric().send(0, s2, *moved, data_msg(payload),
                         TrafficCategory::kShuffle);  // now remote
  EXPECT_GT(s2.now_ns(), s1.now_ns());
}

TEST(Fabric, EndpointCountTracksCreateAndRemove) {
  auto cluster = testutil::free_cluster();
  EXPECT_EQ(cluster->fabric().endpoint_count(), 0u);
  cluster->fabric().create_endpoint("a", 0);
  cluster->fabric().create_endpoint("b", 1);
  EXPECT_EQ(cluster->fabric().endpoint_count(), 2u);
  cluster->fabric().remove_endpoint("a");
  cluster->fabric().remove_endpoint("b");
  EXPECT_EQ(cluster->fabric().endpoint_count(), 0u);
}

TEST(NetMessage, TakeRecordsMovesWhenSoleOwner) {
  int64_t copies_before = NetMessage::payload_deep_copies();
  KVVec records;
  records.emplace_back(Bytes("k"), Bytes("v"));
  NetMessage m = data_msg(std::move(records));
  const KV* buffer = m.records().data();
  KVVec out = m.take_records();
  EXPECT_EQ(out.data(), buffer);  // moved out, not copied
  EXPECT_TRUE(m.records().empty());
  EXPECT_EQ(NetMessage::payload_deep_copies(), copies_before);
}

TEST(NetMessage, TakeRecordsCopiesWhenMarkedShared) {
  int64_t copies_before = NetMessage::payload_deep_copies();
  KVVec records;
  records.emplace_back(Bytes("k"), Bytes("v"));
  NetMessage a = data_msg(std::move(records));
  NetMessage b = a;  // fan-out copy, as Fabric::broadcast makes
  b.mark_payload_shared();
  KVVec out = b.take_records();
  EXPECT_EQ(NetMessage::payload_deep_copies(), copies_before + 1);
  ASSERT_EQ(a.records().size(), 1u);  // the sibling's view is untouched
  ASSERT_EQ(out.size(), 1u);
  // a was never marked (the original in the sender's hands): taking moves.
  const KV* buffer = a.records().data();
  KVVec rest = a.take_records();
  EXPECT_EQ(NetMessage::payload_deep_copies(), copies_before + 1);
  EXPECT_EQ(rest.data(), buffer);
}

TEST(Fabric, BroadcastSharesOnePayloadBuffer) {
  auto cluster = testutil::free_cluster();
  std::vector<std::shared_ptr<Endpoint>> eps;
  for (int i = 0; i < 8; ++i) {
    eps.push_back(cluster->fabric().create_endpoint("b" + std::to_string(i),
                                                    i % 2));
  }
  KVVec payload;
  for (int i = 0; i < 64; ++i) {
    payload.emplace_back(Bytes(8, 'k'), Bytes(128, 'v'));
  }
  NetMessage msg = data_msg(std::move(payload));
  const std::size_t per_msg_bytes = msg.payload_bytes();
  const KVVec* shared_buffer = msg.payload.get();
  int64_t copies_before = NetMessage::payload_deep_copies();
  VClock sender;
  cluster->fabric().broadcast(0, sender, eps, msg,
                              TrafficCategory::kBroadcast);
  // Enqueuing 8 messages made zero deep copies of the records...
  EXPECT_EQ(NetMessage::payload_deep_copies(), copies_before);
  // ...because every receiver holds a handle to the SAME buffer.
  VClock recv;
  for (auto& ep : eps) {
    auto got = ep->receive(recv);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload.get(), shared_buffer);
    EXPECT_EQ(got->records().size(), 64u);
  }
  // Byte accounting is per message, sharing notwithstanding.
  EXPECT_EQ(cluster->metrics().traffic_transfers(TrafficCategory::kBroadcast),
            8);
  EXPECT_EQ(cluster->metrics().traffic_bytes(TrafficCategory::kBroadcast),
            static_cast<int64_t>(8 * per_msg_bytes));
}

TEST(Fabric, DisarmedSendsSkipFaultMachinery) {
  auto cluster = testutil::free_cluster();
  ChannelFaultConfig faults;
  faults.drop_rate = 0.9;
  faults.seed = 3;
  faults.max_attempts = 4;
  cluster->fabric().set_channel_faults(faults);
  auto ep = cluster->fabric().create_endpoint("a", 0);
  VClock sender;
  for (int i = 0; i < 20; ++i) {
    cluster->fabric().send(1, sender, *ep, data_msg({}),
                           TrafficCategory::kShuffle);
  }
  int64_t drops_armed = cluster->metrics().count("net_dropped_sends");
  EXPECT_GT(drops_armed, 0);

  // drop_rate 0 disarms: sends stop consulting the fault config entirely.
  cluster->fabric().set_channel_faults(ChannelFaultConfig{});
  for (int i = 0; i < 200; ++i) {
    cluster->fabric().send(1, sender, *ep, data_msg({}),
                           TrafficCategory::kShuffle);
  }
  EXPECT_EQ(cluster->metrics().count("net_dropped_sends"), drops_armed);
  ChannelStats s = cluster->fabric().channel_stats();
  EXPECT_EQ(s.attempts, s.delivered + s.dropped + s.rejected);
}

}  // namespace
}  // namespace imr
