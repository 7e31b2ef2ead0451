// End-to-end checks of the qdisc subsystem in the incast battle the
// experiment engine's `incast_ecn` spec runs at larger scale: DCTCP over
// an ECN-marking fabric keeps switch queues shallower than drop-tail
// TCP, and strict-priority bands let MMPTCP's PS-phase mice jump the
// elephants' standing queue.

#include <gtest/gtest.h>

#include "workload/scenario.h"

namespace mmptcp {
namespace {

ScenarioConfig battle_config() {
  ScenarioConfig cfg;
  cfg.incast_senders = 8;
  cfg.incast_elephants = 2;
  cfg.incast_start = Time::millis(300);  // elephants build their queue first
  cfg.check_interval = Time::millis(10);
  cfg.max_sim_time = Time::seconds(15);
  cfg.seed = 3;
  return cfg;
}

TEST(QdiscBattle, DctcpKeepsQueuesShallowerThanDropTailTcp) {
  ScenarioConfig droptail = battle_config();
  droptail.transport.protocol = Protocol::kTcp;
  Scenario dt(droptail);
  dt.run();
  // No marking qdisc, no ECN anywhere.
  EXPECT_EQ(dt.ecn_marked_packets(), 0u);

  ScenarioConfig ecn = battle_config();
  ecn.transport.protocol = Protocol::kDctcp;
  ecn.fat_tree.qdisc.kind = QdiscKind::kEcnRed;
  ecn.fat_tree.qdisc.ecn_threshold_packets = 20;
  Scenario dc(ecn);
  dc.run();

  // ECT round-tripped through the fabric.
  EXPECT_GT(dc.ecn_marked_packets(), 0u);
  EXPECT_EQ(dc.short_completion_ratio(), 1.0);
  EXPECT_LT(dc.peak_switch_queue_packets(), dt.peak_switch_queue_packets());
  if (dt.short_completion_ratio() == 1.0 && dt.short_fct_ms().count() > 0 &&
      dc.short_fct_ms().count() > 0) {
    EXPECT_LT(dc.short_fct_ms().mean(), dt.short_fct_ms().mean());
  }
}

TEST(QdiscBattle, PriorityBandsImproveShortFlowFctUnderMmptcp) {
  // Four elephants instead of battle_config's two: with only two, some
  // seeds leave the receiver downlink with no standing queue during the
  // burst and both qdiscs measure identical FCTs.
  ScenarioConfig droptail = battle_config();
  droptail.incast_elephants = 4;
  droptail.transport.protocol = Protocol::kMmptcp;
  Scenario dt(droptail);
  dt.run();

  ScenarioConfig prio = battle_config();
  prio.incast_elephants = 4;
  prio.transport.protocol = Protocol::kMmptcp;
  prio.fat_tree.qdisc.kind = QdiscKind::kPriority;
  prio.fat_tree.qdisc.bands = 2;
  prio.fat_tree.qdisc.classifier = PrioClassifierKind::kPsFlag;
  Scenario pr(prio);
  pr.run();

  ASSERT_GT(dt.short_fct_ms().count(), 0u);
  ASSERT_GT(pr.short_fct_ms().count(), 0u);
  EXPECT_EQ(pr.short_completion_ratio(), 1.0);
  EXPECT_LT(pr.short_fct_ms().mean(), dt.short_fct_ms().mean());
}

/// The PR 5 acceptance point: at a fan-in past the drop-tail cap, the
/// ECN-aware MMPTCP (per-subflow DCTCP alpha on every subflow, scatter
/// flow included) must beat ECN-blind MMPTCP on mean short-flow FCT AND
/// peak queue on every gated seed, while the elephants keep goodput.
TEST(QdiscBattle, MmptcpDctcpWinsTheHighFanInBattleOnEverySeed) {
  for (std::uint64_t seed : {1u, 3u}) {
    ScenarioConfig blind = battle_config();
    blind.seed = seed;
    blind.incast_senders = 24;
    blind.incast_elephants = 4;
    blind.transport.protocol = Protocol::kMmptcp;
    blind.transport.subflows = 8;
    // Marking fabric for both: non-ECT traffic just sees drop-tail.
    blind.fat_tree.qdisc.kind = QdiscKind::kEcnRed;
    blind.fat_tree.qdisc.ecn_threshold_packets = 20;
    Scenario bl(blind);
    bl.run();
    EXPECT_EQ(bl.ecn_marked_packets(), 0u)
        << "ECN-blind family must not set ECT";

    ScenarioConfig aware = blind;
    aware.transport.protocol = Protocol::kMmptcpDctcp;
    aware.transport.subflows = 2;  // the lean ECN pool the specs use
    Scenario aw(aware);
    aw.run();

    ASSERT_GT(bl.short_fct_ms().count(), 0u);
    ASSERT_GT(aw.short_fct_ms().count(), 0u);
    EXPECT_GT(aw.ecn_marked_packets(), 0u);
    EXPECT_EQ(aw.short_completion_ratio(), 1.0);
    EXPECT_LT(aw.short_fct_ms().mean(), bl.short_fct_ms().mean())
        << "seed " << seed;
    EXPECT_LT(aw.peak_switch_queue_packets(), bl.peak_switch_queue_packets())
        << "seed " << seed;
    // The elephants win too: no RTO-silenced subflows, so their goodput
    // must not fall below the blind family's.
    ASSERT_GT(aw.long_goodput_mbps().count(), 0u);
    ASSERT_GT(bl.long_goodput_mbps().count(), 0u);
    EXPECT_GE(aw.long_goodput_mbps().mean(), bl.long_goodput_mbps().mean())
        << "seed " << seed;
  }
}

TEST(QdiscBattle, DelayedBurstStillCompletesWithoutElephants) {
  // incast_start + the completion poll must compose with no elephants.
  ScenarioConfig cfg;
  cfg.incast_senders = 4;
  cfg.incast_start = Time::millis(50);
  cfg.max_sim_time = Time::seconds(60);
  cfg.transport.protocol = Protocol::kTcp;
  Scenario sc(cfg);
  sc.run();
  EXPECT_EQ(sc.short_completion_ratio(), 1.0);
  EXPECT_GT(sc.makespan().to_millis(), 50.0);
}

}  // namespace
}  // namespace mmptcp
