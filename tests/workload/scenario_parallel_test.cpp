// Domain-parallel Scenario execution: decomposition (one domain per
// pod) is always on for FatTree runs and sim_threads only picks the
// worker count, so the results are byte-identical at any value.

#include <algorithm>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "workload/scenario.h"

namespace mmptcp {
namespace {

ScenarioConfig small(unsigned sim_threads) {
  ScenarioConfig cfg;
  cfg.fat_tree.k = 4;
  cfg.fat_tree.oversubscription = 2;
  cfg.transport.protocol = Protocol::kMmptcp;
  cfg.transport.subflows = 4;
  cfg.short_flow_count = 60;
  cfg.short_rate_per_host = 8.0;
  cfg.max_sim_time = Time::seconds(30);
  cfg.seed = 11;
  cfg.sim_threads = sim_threads;
  return cfg;
}

struct Digest {
  double fct_mean, fct_p99, fct_sd, goodput;
  double completion;
  std::uint64_t rtos, with_rto, spurious, events, flows;
  Time end;

  bool operator==(const Digest&) const = default;
};

Digest digest_of(Scenario& sc) {
  const Summary fct = sc.short_fct_ms();
  return Digest{fct.mean(),
                fct.percentile(99),
                fct.stddev(),
                sc.long_goodput_mbps().mean(),
                sc.short_completion_ratio(),
                sc.short_flow_rtos(),
                sc.short_flows_with_rto(),
                sc.total_spurious_retransmits(),
                sc.sim().total_executed(),
                sc.metrics().flow_count(),
                sc.end_time()};
}

Digest run_digest(unsigned sim_threads) {
  Scenario sc(small(sim_threads));
  sc.run();
  return digest_of(sc);
}

TEST(ScenarioParallel, FatTreeRunsDecomposePerPod) {
  // The window is the spine delay, not the shorter edge<->agg delay:
  // only agg<->core links cross pods.
  ScenarioConfig cfg = small(1);
  cfg.fat_tree.core_link_delay = Time::micros(100);
  Scenario sc(cfg);
  sc.run();
  EXPECT_EQ(sc.domain_count(), 4u);
  EXPECT_EQ(sc.lookahead(), Time::micros(100));
  EXPECT_EQ(sc.short_completion_ratio(), 1.0);
}

TEST(ScenarioParallel, ResultsAreIdenticalAtAnyThreadCount) {
  // Exact (bitwise) equality, not tolerance: decomposition and flush
  // order are fixed by the topology, workers only move windows between
  // cores.  This is the in-process half of the determinism grid; the
  // CTest-level half byte-compares the experiment CLI's main JSON.
  const Digest one = run_digest(1);
  EXPECT_EQ(run_digest(2), one);
  EXPECT_EQ(run_digest(4), one);
}

TEST(ScenarioParallel, SkewedHotspotBytesUnmovedBySchedulerOptimisations) {
  // Maximal skew for the scheduler optimisations: most shorts target one
  // rack, so pod 0's domain dwarfs the rest (cost-ordered claiming
  // starts it first) and quiet pods sit out whole windows (quiet-domain
  // skip drops them).  Both are pure scheduling: every digest byte must
  // match the serial run.
  auto skewed = [](unsigned threads) {
    ScenarioConfig cfg = small(threads);
    cfg.hotspot_fraction = 0.9;
    Scenario sc(cfg);
    sc.run();
    return digest_of(sc);
  };
  const Digest base = skewed(1);
  EXPECT_EQ(skewed(2), base);
  EXPECT_EQ(skewed(4), base);
}

TEST(ScenarioParallel, EngineTelemetryAccountsForEveryDomain) {
  ScenarioConfig cfg = small(2);
  cfg.hotspot_fraction = 0.9;
  Scenario sc(cfg);
  sc.run();
  const EngineStats& es = sc.engine_stats();
  EXPECT_GT(es.windows, 0u);
  EXPECT_GT(es.wall_ns, 0u);
  // Skewed traffic must leave quiet pods unclaimed, and claimed +
  // skipped must cover every domain of every window.
  EXPECT_GT(es.domains_skipped, 0u);
  EXPECT_EQ(es.domains_claimed + es.domains_skipped,
            es.windows * sc.domain_count());
}

TEST(ScenarioParallel, AutoThreadsResolveToHardwareClampedToDomains) {
  // sim_threads == 0 means auto: all hardware threads, clamped (loudly)
  // to the domain count — a k=4 per-pod run can use at most 4 workers.
  Scenario sc(small(0));
  sc.run();
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(sc.workers_used(), std::min(hc, 4u));
  EXPECT_EQ(sc.short_completion_ratio(), 1.0);
}

TEST(ScenarioParallel, NoDecompositionFallsBackToSerialWithNote) {
  // Zero link delay means zero cross-domain lookahead: the plan is
  // serial, the (loud) stderr note fires, and the run still completes.
  ScenarioConfig cfg = small(4);
  cfg.fat_tree.link_delay = Time::zero();
  Scenario sc(cfg);
  sc.run();
  EXPECT_EQ(sc.domain_count(), 1u);
  EXPECT_EQ(sc.lookahead(), Time::zero());
  EXPECT_EQ(sc.short_completion_ratio(), 1.0);
}

TEST(ScenarioParallel, DualHomedTopologyStaysSerial) {
  ScenarioConfig cfg = small(4);
  cfg.dual_homed = true;
  cfg.dual.k = 4;
  cfg.dual.oversubscription = 2;
  Scenario sc(cfg);
  sc.run();
  EXPECT_EQ(sc.domain_count(), 1u);
}

TEST(ScenarioParallel, FourThreadsBeatOneOnWideWindows) {
  // Wall-clock speedup needs real cores; the determinism tests above
  // cover correctness on any machine.
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  auto wall = [](unsigned sim_threads) {
    ScenarioConfig cfg = small(sim_threads);
    cfg.fat_tree.k = 8;
    cfg.short_flow_count = 2000;
    const auto t0 = std::chrono::steady_clock::now();
    Scenario sc(cfg);
    sc.run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const double serial = wall(1);
  const double parallel = wall(4);
  EXPECT_LT(parallel, serial);  // directional: threads must not hurt
}

}  // namespace
}  // namespace mmptcp
