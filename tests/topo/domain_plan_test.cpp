// Domain decomposition of the FatTree: the per-pod plan, the node
// tagging it relies on, and the cross-domain accounting the Network
// derives from it.  A channel crosses iff its endpoints' domains differ,
// so only agg<->core links cross and the lookahead is the spine delay.

#include <gtest/gtest.h>

#include "topo/fat_tree.h"

namespace mmptcp {
namespace {

TEST(DomainPlan, OneDomainPerPod) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const FatTreeDomainPlan plan = FatTree::domain_plan(cfg);
  EXPECT_EQ(plan.domains, 4u);
  EXPECT_EQ(plan.lookahead, cfg.link_delay);
}

TEST(DomainPlan, LookaheadIsTheSpineDelay) {
  // Edge<->agg links stay inside a pod, so the spine alone sets the
  // window: a long spine widens it, a short one narrows it.
  FatTreeConfig cfg;
  cfg.k = 8;
  cfg.core_link_delay = Time::micros(100);
  EXPECT_EQ(FatTree::domain_plan(cfg).lookahead, Time::micros(100));

  cfg.core_link_delay = Time::micros(5);
  EXPECT_EQ(FatTree::domain_plan(cfg).lookahead, Time::micros(5));
}

TEST(DomainPlan, ZeroCrossDelayFallsBackToSerial) {
  // Conservative execution needs strictly positive lookahead; a fabric
  // with zero-delay links cannot be windowed.
  FatTreeConfig cfg;
  cfg.k = 4;
  cfg.link_delay = Time::zero();
  const FatTreeDomainPlan plan = FatTree::domain_plan(cfg);
  EXPECT_EQ(plan.domains, 1u);
  EXPECT_EQ(plan.lookahead, Time::zero());
}

TEST(DomainPlan, EveryNodeTaggedByPodRule) {
  // Hosts, edge and aggregation switches carry their pod's domain; core
  // switch c goes to domain c % k so the spine spreads evenly.
  FatTreeConfig cfg;
  cfg.k = 4;
  cfg.oversubscription = 2;
  Simulation sim(1);
  FatTree ft(sim, cfg);
  for (std::uint32_t p = 0; p < ft.pods(); ++p) {
    for (std::uint32_t e = 0; e < ft.edges_per_pod(); ++e) {
      EXPECT_EQ(ft.edge_switch(p, e).domain(), p);
      for (std::uint32_t h = 0; h < ft.hosts_per_edge(); ++h) {
        EXPECT_EQ(ft.host_at(p, e, h).domain(), p);
      }
    }
    for (std::uint32_t a = 0; a < ft.aggs_per_pod(); ++a) {
      EXPECT_EQ(ft.agg_switch(p, a).domain(), p);
    }
  }
  for (std::uint32_t c = 0; c < ft.core_count(); ++c) {
    EXPECT_EQ(ft.core_switch(c).domain(), c % cfg.k);
  }
}

TEST(DomainPlan, OnlySpineLinksCrossPods) {
  // k=4: of the k x (k/2)^2 = 16 agg<->core links, core c's link into
  // pod c%k stays inside domain c%k, so 12 cross (24 channels).
  // Host<->edge and edge<->agg links never cross.  A spine longer than
  // the rest of the fabric shows the minimum is taken over crossing
  // links only.
  FatTreeConfig cfg;
  cfg.k = 4;
  cfg.core_link_delay = Time::micros(100);
  Simulation sim(1);
  sim.configure_domains(FatTree::domain_plan(cfg).domains);
  FatTree ft(sim, cfg);
  EXPECT_EQ(ft.network().cross_domain_channel_count(), 24u);
  EXPECT_EQ(ft.network().min_cross_domain_delay(), ft.core_delay());
}

TEST(DomainPlan, UnconfiguredSimulationWiresEverythingSerial) {
  // Same topology, domains never configured: every node resolves to the
  // control scheduler and nothing registers as cross-domain.
  FatTreeConfig cfg;
  cfg.k = 4;
  Simulation sim(1);
  FatTree ft(sim, cfg);
  EXPECT_EQ(ft.network().cross_domain_channel_count(), 0u);
}

}  // namespace
}  // namespace mmptcp
