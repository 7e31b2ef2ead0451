// Cross-domain mailboxes: packets emitted toward another domain are
// buffered in the source domain's outbox during a window and inserted at
// the barrier in the canonical (arrival time, source domain, emission
// seq) order, so the destination's event sequence never depends on which
// worker ran which domain first.

#include <gtest/gtest.h>

#include <vector>

#include "net/node.h"
#include "sim/parallel.h"
#include "topo/network.h"

namespace mmptcp {
namespace {

/// Records arrivals with timestamps and payloads.
class Recorder final : public Node {
 public:
  Recorder(Simulation& sim, NodeId id) : Node(sim, id, "rec") {}

  void receive(Packet pkt, std::size_t) override {
    arrivals.push_back({sim().now(), pkt.flow_id});
  }

  struct Arrival {
    Time at;
    std::uint32_t tag;
  };
  std::vector<Arrival> arrivals;
};

/// Runs one domain's scheduler to empty with the ambient context pinned,
/// exactly as the engine's worker does for a window.
void run_domain(Simulation& sim, std::size_t d) {
  par::ScopedDomain pin(&sim.domain_scheduler(d), static_cast<int>(d));
  sim.domain_scheduler(d).run();
}

/// Equal-sized packets (fixed 960-byte payload = 1000 wire bytes) tagged
/// through flow_id so ties in arrival time are real ties.
Packet make_packet(std::uint32_t tag) {
  Packet p;
  p.payload = 960;
  p.flow_id = tag;
  return p;
}

/// Two source nodes (domains 0 and 1) feeding one destination (domain 2)
/// over identical links, on a 3-domain simulation.
struct Rig {
  Rig() : sim(1), net(sim) {
    sim.configure_domains(3);
    src0 = std::make_unique<Recorder>(sim, 0);
    src1 = std::make_unique<Recorder>(sim, 1);
    dst = std::make_unique<Recorder>(sim, 2);
    src0->set_domain(0);
    src1->set_domain(1);
    dst->set_domain(2);
    LinkSpec spec;
    spec.rate_bps = 100'000'000;
    spec.delay = Time::micros(10);
    net.connect(*src0, *dst, spec);
    net.connect(*src1, *dst, spec);
  }

  Simulation sim;
  Network net;
  std::unique_ptr<Recorder> src0, src1, dst;
};

TEST(CrossDomain, DeliveryIsHeldUntilTheFlush) {
  Rig rig;
  rig.src0->port(0).enqueue(make_packet(100));
  run_domain(rig.sim, 0);  // serialise + deliver into the outbox
  EXPECT_TRUE(rig.dst->arrivals.empty());
  EXPECT_EQ(rig.sim.domain_scheduler(2).pending(), 0u);
  rig.net.flush_cross_domain();
  EXPECT_EQ(rig.sim.domain_scheduler(2).pending(), 1u);
  run_domain(rig.sim, 2);
  ASSERT_EQ(rig.dst->arrivals.size(), 1u);
  // 1000 wire bytes at 100 Mb/s = 80 us serialisation, + 10 us wire.
  EXPECT_EQ(rig.dst->arrivals[0].at, Time::micros(90));
  EXPECT_EQ(rig.dst->arrivals[0].tag, 100u);
}

TEST(CrossDomain, TiedArrivalsOrderBySourceDomain) {
  // Identical links and send times: both packets arrive at the same
  // instant, and the flush must insert domain 0's first no matter that
  // domain 1's window ran (and posted) first here.
  Rig rig;
  rig.src1->port(0).enqueue(make_packet(111));
  run_domain(rig.sim, 1);
  rig.src0->port(0).enqueue(make_packet(100));
  run_domain(rig.sim, 0);
  rig.net.flush_cross_domain();
  run_domain(rig.sim, 2);
  ASSERT_EQ(rig.dst->arrivals.size(), 2u);
  EXPECT_EQ(rig.dst->arrivals[0].at, rig.dst->arrivals[1].at);
  EXPECT_EQ(rig.dst->arrivals[0].tag, 100u);
  EXPECT_EQ(rig.dst->arrivals[1].tag, 111u);
}

TEST(CrossDomain, EmissionOrderWithinOneDomainIsPreserved) {
  Rig rig;
  for (std::uint32_t i = 0; i < 4; ++i) {
    rig.src0->port(0).enqueue(make_packet(i));
  }
  run_domain(rig.sim, 0);
  rig.net.flush_cross_domain();
  run_domain(rig.sim, 2);
  ASSERT_EQ(rig.dst->arrivals.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.dst->arrivals[i].tag, i);
  }
}

TEST(CrossDomain, PerDestinationDrainTouchesOnlyThatDomain) {
  // Traffic both ways: draining domain 0 delivers only the packet bound
  // for it; draining domain 2 then delivers the tied pair in source
  // order, exactly as the whole-network flush would.
  Rig rig;
  rig.src1->port(0).enqueue(make_packet(111));
  run_domain(rig.sim, 1);
  rig.src0->port(0).enqueue(make_packet(100));
  run_domain(rig.sim, 0);
  rig.dst->port(0).enqueue(make_packet(200));  // dst's port 0 leads to src0
  run_domain(rig.sim, 2);
  rig.net.flush_cross_domain_into(0);
  EXPECT_EQ(rig.sim.domain_scheduler(0).pending(), 1u);
  EXPECT_EQ(rig.sim.domain_scheduler(2).pending(), 0u);
  rig.net.flush_cross_domain_into(2);
  EXPECT_EQ(rig.sim.domain_scheduler(2).pending(), 2u);
  run_domain(rig.sim, 0);
  run_domain(rig.sim, 2);
  ASSERT_EQ(rig.src0->arrivals.size(), 1u);
  EXPECT_EQ(rig.src0->arrivals[0].tag, 200u);
  ASSERT_EQ(rig.dst->arrivals.size(), 2u);
  EXPECT_EQ(rig.dst->arrivals[0].tag, 100u);
  EXPECT_EQ(rig.dst->arrivals[1].tag, 111u);
}

TEST(CrossDomain, FlushDrainsTheOutboxes) {
  Rig rig;
  rig.src0->port(0).enqueue(make_packet(1));
  run_domain(rig.sim, 0);
  rig.net.flush_cross_domain();
  const std::size_t after_first = rig.sim.domain_scheduler(2).pending();
  rig.net.flush_cross_domain();  // second flush must insert nothing new
  EXPECT_EQ(rig.sim.domain_scheduler(2).pending(), after_first);
}

TEST(CrossDomainOutbox, SequenceNumbersFollowPostOrder) {
  CrossDomainOutbox box;
  box.post(Time::micros(5), nullptr, Packet{});
  box.post(Time::micros(3), nullptr, Packet{});
  box.post(Time::micros(3), nullptr, Packet{});
  ASSERT_EQ(box.entries().size(), 3u);
  EXPECT_EQ(box.entries()[0].seq, 0u);
  EXPECT_EQ(box.entries()[1].seq, 1u);
  EXPECT_EQ(box.entries()[2].seq, 2u);
  box.clear();
  EXPECT_TRUE(box.entries().empty());
}

}  // namespace
}  // namespace mmptcp
