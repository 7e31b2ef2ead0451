// Engine microbenchmarks (google-benchmark): the primitives whose cost
// bounds how large a topology/workload the simulator can handle.

#include <benchmark/benchmark.h>

#include "core/transport_factory.h"
#include "net/ecmp.h"
#include "topo/fat_tree.h"
#include "util/interval_set.h"
#include "workload/scenario.h"

namespace {

using namespace mmptcp;

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    std::uint64_t sum = 0;
    for (int i = 0; i < batch; ++i) {
      sched.schedule(Time::nanos((i * 7919) % 65536),
                     [&sum, i] { sum += std::uint64_t(i); });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024)->Arg(16384);

void BM_EcmpHash(benchmark::State& state) {
  std::uint16_t sport = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ecmp_select(0x1234, Addr{0x0a000102}, Addr{0x0a030201}, ++sport,
                    5001, 16));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcmpHash);

void BM_IntervalSetInOrderInsert(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet s;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      s.insert(i * 1400, (i + 1) * 1400);
    }
    benchmark::DoNotOptimize(s.covered());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IntervalSetInOrderInsert);

void BM_IntervalSetReorderedInsert(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet s;
    // Even segments first, then odd: worst-case interval churn.
    for (std::uint64_t i = 0; i < 1000; i += 2) {
      s.insert(i * 1400, (i + 1) * 1400);
    }
    for (std::uint64_t i = 1; i < 1000; i += 2) {
      s.insert(i * 1400, (i + 1) * 1400);
    }
    benchmark::DoNotOptimize(s.covered());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IntervalSetReorderedInsert);

void BM_DropTailQueue(benchmark::State& state) {
  Packet p;
  p.payload = 1400;
  for (auto _ : state) {
    DropTailQueue q(QueueLimits{128, 0});
    for (int i = 0; i < 100; ++i) q.try_push(p);
    while (auto pkt = q.pop()) benchmark::DoNotOptimize(pkt->payload);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_DropTailQueue);

void BM_FatTreeConstruction(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim(1);
    FatTreeConfig cfg;
    cfg.k = k;
    cfg.oversubscription = 4;
    FatTree ft(sim, cfg);
    benchmark::DoNotOptimize(ft.host_count());
  }
}
BENCHMARK(BM_FatTreeConstruction)->Arg(4)->Arg(8);

// End-to-end: one 70 KB TCP flow across a k=4 FatTree; reports simulator
// event throughput.
void BM_EndToEndShortFlow(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    Simulation sim(1);
    FatTreeConfig cfg;
    cfg.k = 4;
    FatTree ft(sim, cfg);
    Metrics metrics;
    Sink sink(sim, metrics, ft.host(15), 5001, TcpConfig{});
    TransportConfig tc;
    tc.protocol = Protocol::kTcp;
    ClientFlow flow(sim, metrics, ft.host(0), ft.host(15).addr(), tc,
                    70 * 1024, false);
    sim.scheduler().run_until(Time::seconds(10));
    events += sim.scheduler().executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndShortFlow);

// Full contended mix on a small FatTree: the realistic events/second
// figure that bounds bench run times.
void BM_EndToEndContendedMix(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    ScenarioConfig cfg;
    cfg.fat_tree.k = 4;
    cfg.fat_tree.oversubscription = 2;
    cfg.transport.protocol = Protocol::kMmptcp;
    cfg.transport.subflows = 4;
    cfg.short_flow_count = 50;
    cfg.short_rate_per_host = 20.0;
    cfg.max_sim_time = Time::seconds(20);
    Scenario sc(cfg);
    sc.run();
    events += sc.sim().total_executed();  // control + every domain
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndContendedMix)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
