// Burst (incast) tolerance — the paper's objective (3).

#include <gtest/gtest.h>

#include "workload/scenario.h"

namespace mmptcp {
namespace {

ScenarioConfig make(Protocol proto, std::uint32_t senders) {
  ScenarioConfig cfg;
  cfg.fat_tree.k = 4;
  cfg.fat_tree.oversubscription = 4;  // 64 hosts
  cfg.transport.protocol = proto;
  cfg.transport.subflows = 4;
  cfg.incast_senders = senders;
  cfg.short_flow_bytes = 70 * 1024;
  cfg.max_sim_time = Time::seconds(60);
  return cfg;
}

TEST(Incast, AllProtocolsEventuallyDeliverEverything) {
  for (Protocol proto : {Protocol::kTcp, Protocol::kMptcp,
                         Protocol::kPacketScatter, Protocol::kMmptcp}) {
    Scenario sc(make(proto, 16));
    sc.run();
    EXPECT_DOUBLE_EQ(sc.short_completion_ratio(), 1.0) << to_string(proto);
    EXPECT_EQ(sc.short_fct_ms().count(), 16u) << to_string(proto);
  }
}

TEST(Incast, MakespanIsAtLeastTheSerialisationBound) {
  // 16 senders x 70 KB through one 100 Mb/s access link.
  Scenario sc(make(Protocol::kMmptcp, 16));
  sc.run();
  const double bound_ms = 16.0 * 70 * 1024 * 8 / 100e6 * 1e3;
  EXPECT_GE(sc.makespan().to_millis(), bound_ms * 0.9);
}

TEST(Incast, LargerFanInTakesLonger) {
  Scenario small(make(Protocol::kMmptcp, 8));
  small.run();
  Scenario big(make(Protocol::kMmptcp, 32));
  big.run();
  EXPECT_GT(big.makespan(), small.makespan());
  EXPECT_DOUBLE_EQ(big.short_completion_ratio(), 1.0);
}

TEST(Incast, MmptcpToleratesBurstsAtLeastAsWellAsMptcp) {
  Scenario mptcp(make(Protocol::kMptcp, 32));
  mptcp.run();
  Scenario mm(make(Protocol::kMmptcp, 32));
  mm.run();
  // short_flow_rtos() counts RTOs and SYN timeouts together.
  EXPECT_LE(mm.short_flow_rtos(), mptcp.short_flow_rtos());
}

TEST(Incast, SendersOutsideReceiverRack) {
  // Sanity of the harness itself: sender count is bounded by topology.
  EXPECT_THROW(Scenario sc(make(Protocol::kTcp, 1000)), ConfigError);
}

TEST(Incast, StaysUndecomposedAtAnySimThreads) {
  // The burst runs on the serial path whatever sim_threads asks for, so
  // its results cannot depend on the thread count.
  ScenarioConfig cfg = make(Protocol::kMmptcp, 8);
  cfg.incast_elephants = 2;
  cfg.check_interval = Time::millis(10);
  Scenario serial(cfg);
  serial.run();
  cfg.sim_threads = 4;
  Scenario threaded(cfg);
  EXPECT_EQ(threaded.domain_count(), 1u);
  threaded.run();
  EXPECT_EQ(threaded.workers_used(), 1u);
  EXPECT_DOUBLE_EQ(threaded.short_completion_ratio(), 1.0);
  EXPECT_EQ(threaded.sim().total_executed(), serial.sim().total_executed());
  EXPECT_EQ(threaded.makespan(), serial.makespan());
}

}  // namespace
}  // namespace mmptcp
