// TcpSocket mechanics on a clean (lossless) two-host link.

#include "tcp/tcp_socket.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "sim/parallel.h"

namespace mmptcp {
namespace {

using testing::PairNet;

struct TcpPair {
  explicit TcpPair(PairNet& pn, TcpConfig cfg = TcpConfig{})
      : pn_(pn), sink(pn.sim, pn.metrics, pn.b, 5001, cfg) {
    auto& rec = pn.metrics.on_flow_started(Protocol::kTcp, pn.a.addr(),
                                           pn.b.addr(), 0, false,
                                           pn.sim.now());
    client = std::make_unique<TcpSocket>(
        pn.sim, pn.metrics, pn.a, SocketRole::kClient, pn.b.addr(),
        pn.a.ephemeral_port(), 5001, pn.a.next_token(), rec.flow_id, cfg,
        std::make_unique<NewRenoCc>(cfg.mss, cfg.initial_cwnd_segments));
    flow_id = rec.flow_id;
  }

  const FlowRecord& record() const { return pn_.metrics.record(flow_id); }

  PairNet& pn_;
  Sink sink;
  std::unique_ptr<TcpSocket> client;
  std::uint32_t flow_id = 0;
};

TEST(TcpSocket, HandshakeEstablishes) {
  PairNet pn;
  TcpPair tp(pn);
  tp.client->connect_and_send(1000);
  pn.sim.scheduler().run_until(Time::millis(10));
  EXPECT_TRUE(tp.client->established());
  EXPECT_EQ(tp.sink.accepted(), 1u);
}

TEST(TcpSocket, SmallFlowDeliversExactly) {
  PairNet pn;
  TcpPair tp(pn);
  tp.client->connect_and_send(5000);
  pn.sim.scheduler().run_until(Time::seconds(2));
  const auto& rec = tp.record();
  EXPECT_TRUE(rec.is_complete());
  EXPECT_EQ(rec.delivered_bytes, 5000u);
  EXPECT_EQ(rec.rto_count, 0u);
  EXPECT_EQ(rec.fast_retransmits, 0u);
  EXPECT_LT(rec.fct(), Time::millis(10));
  EXPECT_TRUE(tp.client->sender_drained());
}

TEST(TcpSocket, ZeroByteFlowCompletesViaFin) {
  PairNet pn;
  TcpPair tp(pn);
  tp.client->connect_and_send(0);
  pn.sim.scheduler().run_until(Time::seconds(1));
  EXPECT_TRUE(tp.record().is_complete());
  EXPECT_EQ(tp.record().delivered_bytes, 0u);
}

TEST(TcpSocket, OneByteFlow) {
  PairNet pn;
  TcpPair tp(pn);
  tp.client->connect_and_send(1);
  pn.sim.scheduler().run_until(Time::seconds(1));
  EXPECT_TRUE(tp.record().is_complete());
  EXPECT_EQ(tp.record().delivered_bytes, 1u);
}

TEST(TcpSocket, MssBoundarySizes) {
  for (std::uint64_t bytes : {std::uint64_t(1400), std::uint64_t(1401),
                              std::uint64_t(2799), std::uint64_t(2800)}) {
    PairNet pn;
    TcpPair tp(pn);
    tp.client->connect_and_send(bytes);
    pn.sim.scheduler().run_until(Time::seconds(1));
    EXPECT_TRUE(tp.record().is_complete()) << bytes;
    EXPECT_EQ(tp.record().delivered_bytes, bytes) << bytes;
  }
}

TEST(TcpSocket, LargeFlowApproachesLineRate) {
  PairNet pn;  // 100 Mb/s
  TcpPair tp(pn);
  tp.client->connect_and_send(1'000'000);
  pn.sim.scheduler().run_until(Time::seconds(5));
  const auto& rec = tp.record();
  ASSERT_TRUE(rec.is_complete());
  // Ideal: 1 MB at ~97 Mb/s goodput ~= 84 ms; allow slow start overhead.
  EXPECT_GT(rec.fct(), Time::millis(80));
  EXPECT_LT(rec.fct(), Time::millis(200));
  EXPECT_EQ(rec.rto_count, 0u);
}

TEST(TcpSocket, CwndGrowsInSlowStart) {
  PairNet pn;
  TcpConfig cfg;
  TcpPair tp(pn, cfg);
  const auto initial = std::uint64_t(cfg.mss) * cfg.initial_cwnd_segments;
  tp.client->connect_and_send(1'000'000);
  pn.sim.scheduler().run_until(Time::millis(10));
  EXPECT_GT(tp.client->cwnd(), initial);
}

TEST(TcpSocket, UnboundedFlowKeepsDelivering) {
  PairNet pn;
  TcpPair tp(pn);
  tp.client->connect_and_send(TcpSocket::kUnboundedBytes);
  pn.sim.scheduler().run_until(Time::millis(500));
  const auto& rec = tp.record();
  EXPECT_FALSE(rec.is_complete());
  // ~100 Mb/s for 0.5 s minus handshake/slow-start: several MB.
  EXPECT_GT(rec.delivered_bytes, 2'000'000u);
}

TEST(TcpSocket, FreezeStreamDrainsAndStops) {
  PairNet pn;
  TcpPair tp(pn);
  tp.client->connect_and_send(TcpSocket::kUnboundedBytes);
  pn.sim.scheduler().run_until(Time::millis(100));
  tp.client->freeze_stream();
  pn.sim.scheduler().run_until(Time::millis(200));
  EXPECT_TRUE(tp.client->sender_drained());
  const auto delivered = tp.record().delivered_bytes;
  pn.sim.scheduler().run_until(Time::millis(400));
  EXPECT_EQ(tp.record().delivered_bytes, delivered);  // nothing new
}

TEST(TcpSocket, PacketsSentCounted) {
  PairNet pn;
  TcpPair tp(pn);
  tp.client->connect_and_send(14000);  // exactly 10 segments
  pn.sim.scheduler().run_until(Time::seconds(1));
  EXPECT_EQ(tp.record().packets_sent, 10u);
}

TEST(TcpSocket, SubflowUsedCountsOneForPlainTcp) {
  PairNet pn;
  TcpPair tp(pn);
  tp.client->connect_and_send(1000);
  pn.sim.scheduler().run_until(Time::seconds(1));
  EXPECT_EQ(tp.record().subflows_used, 1u);
}

TEST(TcpSocket, TwoConcurrentFlowsBothComplete) {
  PairNet pn;
  TcpConfig cfg;
  Sink sink(pn.sim, pn.metrics, pn.b, 5001, cfg);
  std::vector<std::unique_ptr<TcpSocket>> clients;
  for (int i = 0; i < 2; ++i) {
    auto& rec = pn.metrics.on_flow_started(Protocol::kTcp, pn.a.addr(),
                                           pn.b.addr(), 0, false,
                                           pn.sim.now());
    clients.push_back(std::make_unique<TcpSocket>(
        pn.sim, pn.metrics, pn.a, SocketRole::kClient, pn.b.addr(),
        pn.a.ephemeral_port(), 5001, pn.a.next_token(), rec.flow_id, cfg,
        std::make_unique<NewRenoCc>(cfg.mss, cfg.initial_cwnd_segments)));
    clients.back()->connect_and_send(200'000);
  }
  pn.sim.scheduler().run_until(Time::seconds(5));
  EXPECT_TRUE(pn.metrics.record(0).is_complete());
  EXPECT_TRUE(pn.metrics.record(1).is_complete());
  EXPECT_EQ(pn.metrics.record(0).delivered_bytes, 200'000u);
  EXPECT_EQ(pn.metrics.record(1).delivered_bytes, 200'000u);
}

TEST(TcpSocket, SequentialFlowsReusePorts) {
  PairNet pn;
  TcpConfig cfg;
  Sink sink(pn.sim, pn.metrics, pn.b, 5001, cfg);
  for (int i = 0; i < 5; ++i) {
    auto& rec = pn.metrics.on_flow_started(Protocol::kTcp, pn.a.addr(),
                                           pn.b.addr(), 0, false,
                                           pn.sim.now());
    TcpSocket client(pn.sim, pn.metrics, pn.a, SocketRole::kClient,
                     pn.b.addr(), pn.a.ephemeral_port(), 5001,
                     pn.a.next_token(), rec.flow_id, cfg,
                     std::make_unique<NewRenoCc>(cfg.mss,
                                                 cfg.initial_cwnd_segments));
    client.connect_and_send(3000);
    pn.sim.scheduler().run_until(pn.sim.now() + Time::millis(100));
    EXPECT_TRUE(pn.metrics.record(rec.flow_id).is_complete()) << i;
  }
}

TEST(TcpSocket, ClientOnlyApisGuarded) {
  PairNet pn;
  TcpConfig cfg;
  TcpSocket server(pn.sim, pn.metrics, pn.b, SocketRole::kServer,
                   pn.a.addr(), 5001, 1000, 1, 0, cfg,
                   std::make_unique<NewRenoCc>(cfg.mss, 2));
  EXPECT_THROW(server.connect_and_send(10), InvariantError);
  TcpSocket client(pn.sim, pn.metrics, pn.a, SocketRole::kClient,
                   pn.b.addr(), 1000, 5001, 2, 0, cfg,
                   std::make_unique<NewRenoCc>(cfg.mss, 2));
  Packet syn;
  syn.flags = pkt_flags::kSyn;
  EXPECT_THROW(client.accept(syn), InvariantError);
}

TEST(TcpSocket, DestroyedFromTheControlPathCancelsItsRto) {
  // A socket arms its RTO on the scheduler of the domain it runs in, but
  // a Scenario reaps finished flows from the control window, where
  // sim.scheduler() is the control scheduler.  The timer must still be
  // cancelled where it was armed, or it fires on a destroyed socket.
  Simulation sim(1);
  sim.configure_domains(2);
  Network net(sim);
  Host& a = net.make_host("a", Addr{0x0a000001});
  Host& b = net.make_host("b", Addr{0x0a000002});
  a.set_domain(1);
  b.set_domain(1);
  net.connect(a, b, LinkSpec{});
  Metrics metrics;
  const auto& rec = metrics.on_flow_started(Protocol::kTcp, a.addr(),
                                            b.addr(), 0, false, sim.now());
  TcpConfig cfg;
  Scheduler& domain = sim.domain_scheduler(1);
  std::unique_ptr<TcpSocket> client;
  {
    par::ScopedDomain pin(&domain, 1);
    client = std::make_unique<TcpSocket>(
        sim, metrics, a, SocketRole::kClient, b.addr(), a.ephemeral_port(),
        5001, a.next_token(), rec.flow_id, cfg,
        std::make_unique<NewRenoCc>(cfg.mss, cfg.initial_cwnd_segments));
    client->connect_and_send(1000);
  }
  // The SYN's transmit completion and the RTO are both pending.
  ASSERT_EQ(domain.pending(), 2u);
  client.reset();
  EXPECT_EQ(domain.pending(), 1u);
}

}  // namespace
}  // namespace mmptcp
