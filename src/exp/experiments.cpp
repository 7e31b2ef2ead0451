// The built-in experiment catalog: every scenario the per-figure benches
// used to hard-code, expressed as declarative specs over the engine.
// Each run function executes ONE grid point in its own Simulation and
// returns named metrics; sweeping, seeding, parallelism and sinks are
// the engine's job.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "exp/perf_micro.h"
#include "exp/registry.h"
#include "util/check.h"
#include "util/rss.h"
#include "workload/traffic_matrix.h"

namespace mmptcp::exp {

namespace {

using Dir = MetricTolerance::Direction;

/// Appends the flow-time attribution metrics (all additive: they come
/// after every pre-existing metric, so old baseline values stay put).
/// FCT percentiles are sketch-derived — within QuantileSketch's ~0.3%
/// relative error of the exact values — and the budget components are
/// exact means over completed shorts.
void append_flow_time_metrics(RunOutcome& o, const FlowSketches& s) {
  o.set("fct_p50_ms", s.fct_ms.quantile(0.5));
  o.set("fct_p99_ms", s.fct_ms.quantile(0.99));
  o.set("fct_p999_ms", s.fct_ms.quantile(0.999));
  o.set("budget_handshake_ms", s.handshake_ms.mean());
  o.set("budget_rto_stall_ms", s.rto_stall_ms.mean());
  o.set("budget_fast_recovery_ms", s.fast_recovery_ms.mean());
  o.set("budget_transfer_ms", s.transfer_ms.mean());
  o.set("budget_reorder_wait_ms", s.reorder_wait_ms.mean());
  o.set("budget_ttfb_ms", s.ttfb_ms.mean());
  o.set("budget_rto_stall_p99_ms", s.rto_stall_ms.quantile(0.99));
  o.set("budget_ps_phase_ms", s.ps_phase_ms.mean());
  o.set("budget_mptcp_phase_ms", s.mptcp_phase_ms.mean());
  // The full FCT sketch rides along too: shard documents serialise it so
  // --merge can recompute whole-sweep percentiles (the "aggregates"
  // section) instead of settling for means of per-run percentiles.
  o.set_sketch("fct_ms", s.fct_ms);
}

/// Standard metric set of a Scenario-based run.  With exact_stats off the
/// classic FCT metrics fall back to the streaming sketch (documented in
/// bench/baselines/README.md; gated specs keep the exact path).
RunOutcome scenario_outcome(const RunResult& r) {
  RunOutcome o;
  const bool exact = r.fct_ms.count() > 0;
  const QuantileSketch& sk = r.short_sketches.fct_ms;
  o.set("mean_ms", exact ? r.fct_ms.mean() : sk.mean());
  o.set("stddev_ms", exact ? r.fct_ms.stddev() : sk.stddev());
  o.set("p50_ms", exact ? r.fct_ms.percentile(50) : sk.quantile(0.5));
  o.set("p99_ms", exact ? r.fct_ms.percentile(99) : sk.quantile(0.99));
  o.set("max_ms", exact ? r.fct_ms.max() : sk.max());
  o.set("flows_with_rto", double(r.flows_with_rto));
  o.set("rtos", double(r.rtos));
  o.set("spurious_rtx", double(r.spurious));
  o.set("completion", r.completion);
  o.set("long_goodput_mbps",
        r.long_goodput.count() ? r.long_goodput.mean() : 0);
  o.set("utilization", r.utilization);
  o.set("core_loss", r.core_loss);
  o.set("agg_loss", r.agg_loss);
  o.set("ecn_marked", double(r.ecn_marked));
  o.set("peak_queue_pkts", double(r.peak_queue_pkts));
  o.set("p999_ms", exact ? r.fct_ms.p999() : sk.quantile(0.999));
  // Routing-bug canary: nonzero means a switch silently dropped packets
  // whose route fell off the table.  Always zero in a healthy fabric.
  o.set("unroutable", double(r.unroutable));
  append_flow_time_metrics(o, r.short_sketches);
  return o;
}

ScenarioConfig point_scenario(const RunContext& ctx, Protocol proto,
                              std::uint32_t subflows) {
  ScenarioConfig cfg = paper_scenario(ctx.scale, proto, subflows);
  cfg.seed = ctx.seed;
  cfg.trace = ctx.trace;
  cfg.logger = ctx.logger;
  cfg.sim_threads = ctx.sim_threads;
  return cfg;
}

/// Engine scheduling telemetry -> timing sidecar.  All zeros for serial
/// runs; machine- and knob-dependent, so never in the main JSON.
void append_engine_timings(RunOutcome& o, const Scenario& sc) {
  const EngineStats& es = sc.engine_stats();
  o.set_timing("windows", double(es.windows));
  o.set_timing("domains_claimed", double(es.domains_claimed));
  o.set_timing("domains_skipped", double(es.domains_skipped));
  o.set_timing("avg_active_domains",
               es.windows > 0
                   ? double(es.domains_claimed) / double(es.windows)
                   : 0);
  o.set_timing("barrier_wait_share",
               es.wall_ns > 0
                   ? double(es.barrier_wait_ns) / double(es.wall_ns)
                   : 0);
  o.set_timing("sim_workers", double(sc.workers_used()));
}

/// Figure-1(b)/(c) style scatter point: band histogram metrics plus a
/// per-flow CSV named after the experiment and seed.
RunOutcome scatter_outcome(const std::string& exp_name,
                           const RunContext& ctx, Protocol proto,
                           std::uint32_t subflows) {
  Scenario sc(point_scenario(ctx, proto, subflows));
  sc.run();
  const Summary fct = sc.short_fct_ms();

  RunOutcome o;
  o.set("completed", double(fct.count()));
  o.set("completion", sc.short_completion_ratio());
  o.set("mean_ms", fct.count() ? fct.mean() : 0);
  o.set("stddev_ms", fct.count() ? fct.stddev() : 0);
  o.set("p50_ms", fct.count() ? fct.percentile(50) : 0);
  o.set("p90_ms", fct.count() ? fct.percentile(90) : 0);
  o.set("p99_ms", fct.count() ? fct.percentile(99) : 0);
  o.set("max_ms", fct.count() ? fct.max() : 0);
  o.set("flows_with_rto", double(sc.short_flows_with_rto()));
  o.set("rtos", double(sc.short_flow_rtos()));
  // The visual signature of the figure: flows per latency band.
  o.set("band_sub_100ms", double(fct.count() - fct.count_above(100)));
  o.set("band_100ms_1s",
        double(fct.count_above(100) - fct.count_above(1000)));
  o.set("band_1s_2s", double(fct.count_above(1000) - fct.count_above(2000)));
  o.set("band_2s_4s", double(fct.count_above(2000) - fct.count_above(4000)));
  o.set("band_4s_8s", double(fct.count_above(4000) - fct.count_above(8000)));
  o.set("band_over_8s", double(fct.count_above(8000)));

  write_flow_csv(sc, ctx.out_dir + "/" + exp_name + "_flows_seed" +
                         std::to_string(ctx.seed) + ".csv");
  return o;
}

double jain_index(const std::vector<double>& xs) {
  double sum = 0, sq = 0;
  for (double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

void register_fig1(Registry& r) {
  r.add({
      .name = "fig1a",
      .artefact = "Figure 1(a): MPTCP short-flow FCT vs #subflows",
      .description = "mean/stddev of short-flow FCT under MPTCP as "
                     "subflows go 1..9",
      .notes = "expected shape: mean and stddev both rise with subflow "
               "count; flows_with_rto grows (paper: mean ~80->140 ms, "
               "stddev ~100->700 ms).",
      .axes = fixed_axes({{"subflows",
                           {"1", "2", "3", "4", "5", "6", "7", "8", "9"}}}),
      .run =
          [](const RunContext& ctx) {
            const auto n =
                static_cast<std::uint32_t>(ctx.params.get_int("subflows"));
            return scenario_outcome(
                run_scenario(point_scenario(ctx, Protocol::kMptcp, n)));
          },
  });

  r.add({
      .name = "fig1b",
      .artefact = "Figure 1(b): MPTCP (8 subflows) per-flow FCT scatter",
      .description = "per-flow FCT bands under MPTCP; full series in "
                     "fig1b_flows_seed<seed>.csv",
      .notes = "expected shape: dense sub-second band plus multi-second "
               "RTO bands (paper: outliers up to ~10 s).",
      .axes = fixed_axes({}),
      .run =
          [](const RunContext& ctx) {
            return scatter_outcome("fig1b", ctx, Protocol::kMptcp,
                                   ctx.scale.subflows);
          },
  });

  r.add({
      .name = "fig1c",
      .artefact = "Figure 1(c): MMPTCP (PS then 8 subflows) per-flow FCT "
                  "scatter",
      .description = "per-flow FCT bands under MMPTCP; full series in "
                     "fig1c_flows_seed<seed>.csv",
      .notes = "expected shape: the RTO bands of Figure 1(b) collapse; "
               "majority of flows < 100 ms at paper scale (paper: mean "
               "116 ms, sd 101 ms).",
      .axes = fixed_axes({}),
      .run =
          [](const RunContext& ctx) {
            return scatter_outcome("fig1c", ctx, Protocol::kMmptcp,
                                   ctx.scale.subflows);
          },
  });
}

void register_incast(Registry& r) {
  r.add({
      .name = "incast",
      .artefact = "objective (3): burst (incast) tolerance",
      .description = "N synchronized senders -> 1 receiver, all four "
                     "transports, fan-in doubling",
      .notes = "expected shape: RTO counts grow with fan-in for MPTCP "
               "(many tiny windows); PS/MMPTCP tolerate larger bursts "
               "before the first timeout; everyone completes eventually.",
      .axes =
          [](const Scale& scale) {
            // Fan-in is bounded by the hosts outside the receiver's rack.
            const std::uint32_t fan_in_max = scale.k == 4 ? 48u : 128u;
            Axis senders{"senders", {}};
            for (std::uint32_t n = 8; n <= fan_in_max; n *= 2) {
              senders.values.push_back(std::to_string(n));
            }
            return std::vector<Axis>{
                senders,
                {"protocol", {"tcp", "mptcp", "ps", "mmptcp"}},
                {"shared_buffer", {"0"}},
            };
          },
      .run =
          [](const RunContext& ctx) {
            IncastConfig cfg;
            cfg.fat_tree.k = ctx.scale.k;
            cfg.fat_tree.oversubscription = ctx.scale.oversubscription;
            cfg.fat_tree.shared_buffer = ctx.params.get_bool("shared_buffer");
            cfg.transport.protocol = ctx.params.get_protocol("protocol");
            cfg.transport.subflows = ctx.scale.subflows;
            cfg.senders =
                static_cast<std::uint32_t>(ctx.params.get_int("senders"));
            cfg.bytes = ctx.scale.short_bytes;
            cfg.seed = ctx.seed;
            cfg.trace = ctx.trace;
            cfg.logger = ctx.logger;
            const IncastResult res = run_incast(cfg);
            RunOutcome o;
            o.set("makespan_ms", res.makespan.to_millis());
            o.set("mean_fct_ms", res.fct_ms.count() ? res.fct_ms.mean() : 0);
            o.set("p99_fct_ms",
                  res.fct_ms.count() ? res.fct_ms.percentile(99) : 0);
            o.set("rtos", double(res.rtos));
            o.set("syn_timeouts", double(res.syn_timeouts));
            o.set("fast_rtx", double(res.fast_retransmits));
            o.set("completion", res.completion_ratio);
            o.set("p999_fct_ms", res.fct_ms.count() ? res.fct_ms.p999() : 0);
            append_flow_time_metrics(o, res.short_sketches);
            return o;
          },
      // Big fan-ins dominate the sweep's runtime: claim them first so a
      // 128-sender point is never the last job picked up.
      .run_cost = [](const ParamSet& p,
                     const Scale&) { return p.get_double("senders"); },
  });
}

void register_scenario_sweeps(Registry& r) {
  r.add({
      .name = "hotspot",
      .artefact = "roadmap: hotspot tolerance",
      .description = "fraction of shorts redirected at one rack; TCP vs "
                     "MPTCP vs MMPTCP",
      .notes = "expected shape: as the hotspot grows, MMPTCP's advantage "
               "over TCP/MPTCP on the non-hotspot flows widens (spraying "
               "avoids the hot paths).",
      .axes = fixed_axes({{"hotspot_fraction", {"0.00", "0.20", "0.50"}},
                          {"protocol", {"tcp", "mptcp", "mmptcp"}}}),
      .run =
          [](const RunContext& ctx) {
            ScenarioConfig cfg =
                point_scenario(ctx, ctx.params.get_protocol("protocol"),
                               ctx.scale.subflows);
            cfg.hotspot_fraction =
                ctx.params.get_double("hotspot_fraction");
            return scenario_outcome(run_scenario(cfg));
          },
  });

  r.add({
      .name = "load_sweep",
      .artefact = "roadmap: network-load sweep",
      .description = "short-flow FCT and long-flow goodput as arrival "
                     "rate sweeps 0.25x..2x for all four transports",
      .notes = "expected shape: MMPTCP tracks PS on short-flow latency at "
               "every load while matching MPTCP on long-flow goodput; "
               "MPTCP's tail degrades fastest as load grows.",
      .axes = fixed_axes(
          {{"rate_mult", {"0.25", "0.50", "1.00", "2.00"}},
           {"protocol", {"tcp", "mptcp", "ps", "mmptcp"}}}),
      // The sweep multiplies the base rate; shrink the per-point flow
      // count so the whole sweep stays fast.
      .run =
          [](const RunContext& ctx) {
            ScenarioConfig cfg =
                point_scenario(ctx, ctx.params.get_protocol("protocol"),
                               ctx.scale.subflows);
            cfg.short_rate_per_host =
                ctx.scale.rate_per_host * ctx.params.get_double("rate_mult");
            return scenario_outcome(run_scenario(cfg));
          },
      .adjust_scale = [](Scale& s) { s.shorts = s.shorts / 2; },
  });

  r.add({
      .name = "multihomed",
      .artefact = "roadmap: multi-homed (dual-homed) FatTree",
      .description = "single- vs dual-homed access layer for MPTCP and "
                     "MMPTCP",
      .notes = "expected shape: dual homing helps MMPTCP's short-flow "
               "tail more than MPTCP's (the PS phase sprays over twice "
               "the access paths).",
      .axes = fixed_axes({{"topology", {"single", "dual"}},
                          {"protocol", {"mptcp", "mmptcp"}}}),
      .run =
          [](const RunContext& ctx) {
            ScenarioConfig cfg =
                point_scenario(ctx, ctx.params.get_protocol("protocol"),
                               ctx.scale.subflows);
            if (ctx.params.get("topology") == "dual") {
              cfg.dual_homed = true;
              cfg.dual.k = ctx.scale.k;
              cfg.dual.oversubscription = ctx.scale.oversubscription;
            }
            return scenario_outcome(run_scenario(cfg));
          },
  });

  r.add({
      .name = "text_summary",
      .artefact = "section 3 in-text comparison (the poster's 'table')",
      .description = "MPTCP vs MMPTCP: FCT, loss per layer, goodput, "
                     "utilisation",
      .notes = "paper values: MMPTCP 116 ms (sd 101) vs MPTCP 126 ms "
               "(sd 425); MMPTCP core+agg loss slightly lower; long-flow "
               "goodput and utilisation at parity.",
      .axes = fixed_axes({{"protocol", {"mptcp", "mmptcp"}}}),
      .run =
          [](const RunContext& ctx) {
            return scenario_outcome(run_scenario(point_scenario(
                ctx, ctx.params.get_protocol("protocol"),
                ctx.scale.subflows)));
          },
  });
}

void register_ablations(Registry& r) {
  r.add({
      .name = "ablation_dupthresh",
      .artefact = "section 2 'PS Phase' reordering-robustness study",
      .description = "static-3 vs topology-aware vs adaptive RR-TCP "
                     "dup-ACK thresholds under packet scatter",
      .notes = "expected shape: static-3 fires many spurious "
               "retransmissions from spray-induced reordering, but the "
               "DSACK undo makes them nearly free; raising the threshold "
               "trades spurious retransmissions for forgone recoveries "
               "that cost full RTOs — visible as a worse tail.",
      .axes = fixed_axes(
          {{"dupack_policy", {"static-3", "topology-aware", "adaptive"}}}),
      .run =
          [](const RunContext& ctx) {
            ScenarioConfig cfg =
                point_scenario(ctx, Protocol::kPacketScatter, 1);
            const std::string& policy = ctx.params.get("dupack_policy");
            cfg.transport.ps_dupack.kind =
                policy == "static-3" ? DupAckPolicyKind::kStatic
                : policy == "topology-aware"
                    ? DupAckPolicyKind::kTopologyAware
                    : DupAckPolicyKind::kAdaptive;
            Scenario sc(cfg);
            sc.run();
            const Summary fct = sc.short_fct_ms();
            RunOutcome o;
            o.set("spurious_rtx", double(sc.total_spurious_retransmits()));
            o.set("fast_rtx_flows",
                  double(sc.metrics().total(
                      [](const FlowRecord& rec) {
                        return rec.fast_retransmits > 0 ? 1u : 0u;
                      },
                      [](const FlowRecord& rec) { return !rec.long_flow; })));
            o.set("flows_with_rto", double(sc.short_flows_with_rto()));
            o.set("mean_ms", fct.count() ? fct.mean() : 0);
            o.set("stddev_ms", fct.count() ? fct.stddev() : 0);
            o.set("p99_ms", fct.count() ? fct.percentile(99) : 0);
            o.set("completion", sc.short_completion_ratio());
            return o;
          },
  });

  r.add({
      .name = "ablation_switching",
      .artefact = "section 2 'Phase Switching' design study",
      .description = "volume thresholds 70KB..4MB, congestion-event "
                     "trigger, pure PS, MPTCP, MPTCP+reinjection",
      .notes = "expected shape: long-flow goodput roughly flat across "
               "volume thresholds (the paper's claim); short-flow tail "
               "degrades toward the MPTCP row as the threshold shrinks "
               "below the 70KB flow size.",
      .axes = fixed_axes({{"variant",
                           {"volume_70KB", "volume_128KB", "volume_256KB",
                            "volume_512KB", "volume_1024KB",
                            "volume_4096KB", "congestion_event", "pure_ps",
                            "mptcp", "mptcp_reinject"}}}),
      .run =
          [](const RunContext& ctx) {
            const std::string& variant = ctx.params.get("variant");
            if (variant == "pure_ps") {
              return scenario_outcome(run_scenario(
                  point_scenario(ctx, Protocol::kPacketScatter, 1)));
            }
            if (variant == "mptcp" || variant == "mptcp_reinject") {
              ScenarioConfig cfg = point_scenario(ctx, Protocol::kMptcp,
                                                  ctx.scale.subflows);
              cfg.transport.reinject_on_rto = variant == "mptcp_reinject";
              return scenario_outcome(run_scenario(cfg));
            }
            ScenarioConfig cfg =
                point_scenario(ctx, Protocol::kMmptcp, ctx.scale.subflows);
            if (variant == "congestion_event") {
              cfg.transport.phase.kind = SwitchPolicyKind::kCongestionEvent;
            } else {
              // "volume_<n>KB"
              cfg.transport.phase.kind = SwitchPolicyKind::kDataVolume;
              const std::string kb =
                  variant.substr(7, variant.size() - 7 - 2);
              cfg.transport.phase.volume_bytes =
                  std::strtoull(kb.c_str(), nullptr, 10) * 1024;
            }
            return scenario_outcome(run_scenario(cfg));
          },
  });
}

void register_coexistence(Registry& r) {
  r.add({
      .name = "coexistence",
      .artefact = "section 3: coexistence/fairness with TCP and MPTCP",
      .description = "long flows of TCP, MPTCP and MMPTCP share one "
                     "fabric; per-protocol goodput and Jain index",
      .notes = "expected shape: no protocol starves.  MPTCP-family flows "
               "yield to TCP — LIA's do-no-harm coupling never takes "
               "more than TCP would on a shared bottleneck — so "
               "'harmony' means safe coexistence, not equal shares.",
      .axes = fixed_axes({{"scheduler", {"eager-rr", "pull"}},
                          {"secs", {"5"}}}),
      .run =
          [](const RunContext& ctx) {
            Simulation sim(ctx.seed);
            FatTreeConfig ftc;
            ftc.k = ctx.scale.k;
            ftc.oversubscription = ctx.scale.oversubscription;
            FatTree ft(sim, ftc);
            Metrics metrics;
            SinkFarm sinks(sim, metrics, ft.network(), 5001, TcpConfig{});

            Rng rng = sim.rng().fork();
            const auto perm = permutation_matrix(rng, ft.host_count());

            // One long flow per host, protocols interleaved round-robin.
            const Protocol protos[] = {Protocol::kTcp, Protocol::kMptcp,
                                       Protocol::kMmptcp};
            std::vector<std::unique_ptr<ClientFlow>> flows;
            for (std::size_t h = 0; h < ft.host_count(); ++h) {
              TransportConfig cfg;
              cfg.protocol = protos[h % 3];
              cfg.subflows = ctx.scale.subflows;
              cfg.scheduler = ctx.params.get("scheduler") == "pull"
                                  ? SchedulerKind::kPull
                                  : SchedulerKind::kEagerRoundRobin;
              cfg.oracle = &ft;
              flows.push_back(std::make_unique<ClientFlow>(
                  sim, metrics, ft.host(h), ft.host(perm[h]).addr(), cfg,
                  ClientFlow::kLongFlow, /*long_flow=*/true));
            }
            sim.scheduler().run_until(
                Time::seconds(ctx.params.get_int("secs")));

            RunOutcome o;
            std::vector<double> all;
            for (Protocol proto : protos) {
              const Summary g =
                  metrics.long_flow_goodput_mbps(proto, sim.now());
              for (double v : g.samples()) all.push_back(v);
              const std::string prefix = protocol_axis_name(proto);
              o.set(prefix + "_flows", double(g.count()));
              o.set(prefix + "_goodput_mean_mbps",
                    g.count() ? g.mean() : 0);
              o.set(prefix + "_goodput_p5_mbps",
                    g.count() ? g.percentile(5) : 0);
              o.set(prefix + "_goodput_p95_mbps",
                    g.count() ? g.percentile(95) : 0);
            }
            o.set("jain_index", jain_index(all));
            return o;
          },
  });
}

void register_smoke(Registry& r) {
  r.add({
      .name = "smoke",
      .artefact = "engine self-check (not a paper artefact)",
      .description = "tiny MMPTCP run on a k=4 FatTree; seconds per "
                     "point, used by CTest and CI",
      .notes = "expected shape: all shorts complete in a lightly loaded "
               "fabric.",
      .axes = fixed_axes({{"protocol", {"tcp", "mmptcp"}}}),
      .run =
          [](const RunContext& ctx) {
            ScenarioConfig cfg = point_scenario(
                ctx, ctx.params.get_protocol("protocol"), 4);
            const auto wall_start = std::chrono::steady_clock::now();
            Scenario sc(cfg);
            sc.run();
            const double wall_secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
            const Summary fct = sc.short_fct_ms();
            RunOutcome o;
            o.set("completed", double(fct.count()));
            o.set("completion", sc.short_completion_ratio());
            o.set("mean_ms", fct.count() ? fct.mean() : 0);
            o.set("p99_ms", fct.count() ? fct.percentile(99) : 0);
            o.set("rtos", double(sc.short_flow_rtos()));
            // Control + all domain schedulers: the canary covers the
            // whole windowed execution, not just control events.
            const double events = double(sc.sim().total_executed());
            o.set("events", events);
            const std::uint64_t unroutable = sc.network().unroutable_total();
            check(unroutable == 0, "smoke run dropped unroutable packets");
            o.set("unroutable", double(unroutable));
            o.set("p999_ms", fct.count() ? fct.p999() : 0);
            append_flow_time_metrics(
                o, sc.metrics().short_flow_sketches(
                       cfg.transport.protocol));
            // Simulator throughput for per-PR trend tracking; sidecar
            // JSON only, so the main result stays deterministic.
            o.set_timing("events_per_second",
                         wall_secs > 0 ? events / wall_secs : 0);
            o.set_timing("wall_seconds", wall_secs);
            o.set_timing("sim_threads", double(ctx.sim_threads));
            append_engine_timings(o, sc);
            return o;
          },
      .adjust_scale =
          [](Scale& s) {
            // Hard-capped small so CTest smoke stays fast at any --full.
            s.k = 4;
            s.shorts = std::min<std::uint32_t>(s.shorts, 24);
            s.rate_per_host = 50.0;
            s.max_sim_time = Time::seconds(30);
          },
      // Gate thresholds for --compare.  Identical code gives identical
      // bytes, so the slack only absorbs cross-compiler FP drift; any
      // intentional behaviour change must refresh bench/baselines/.
      .tolerances =
          {
              {.pattern = "completed",
               .abs_slack = 0.5,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "completion",
               .warn_pct = 0.5,
               .fail_pct = 2,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "rtos",
               .abs_slack = 2,
               .direction = Dir::kHigherIsWorse},
              // Executed-event count: the determinism canary.  Any real
              // simulator change moves it and must refresh baselines.
              {.pattern = "events", .warn_pct = 0.5, .fail_pct = 5},
              // Hard canary: any unroutable packet is a routing bug.
              {.pattern = "unroutable",
               .warn_pct = 0,
               .fail_pct = 0,
               .abs_slack = 0,
               .direction = Dir::kHigherIsWorse},
              {.pattern = "*_ms",
               .warn_pct = 5,
               .fail_pct = 20,
               .abs_slack = 1,
               .direction = Dir::kHigherIsWorse},
              // Timing sidecar aggregates: host-dependent, so CI gates
              // them warn-only until several baselines accumulate.
              {.pattern = "events_per_second*",
               .warn_pct = 15,
               .fail_pct = 40,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "wall_seconds*",
               .warn_pct = 20,
               .fail_pct = 60,
               .direction = Dir::kHigherIsWorse},
              // Engine scheduling telemetry: deterministic for a given
              // build and configuration.
              {.pattern = "windows*", .warn_pct = 5, .fail_pct = 20},
              {.pattern = "domains_*", .warn_pct = 10, .fail_pct = 50},
              {.pattern = "avg_active*",
               .warn_pct = 10,
               .fail_pct = 50,
               .abs_slack = 0.5},
              {.pattern = "barrier_wait_share*",
               .warn_pct = 100,
               .fail_pct = 1000,
               .abs_slack = 0.2},
              {.pattern = "sim_workers*", .warn_pct = 100, .fail_pct = 1e9},
          },
  });
}

/// Qdisc for one grid point of the qdisc-comparing specs.
QdiscConfig point_qdisc(const RunContext& ctx, const std::string& kind) {
  QdiscConfig q;
  q.kind = qdisc_kind_from_string(kind);
  if (ctx.params.has("ecn_k")) {
    q.ecn_threshold_packets =
        static_cast<std::uint32_t>(ctx.params.get_int("ecn_k"));
  }
  if (ctx.params.has("ecn_k_bytes")) {
    q.ecn_threshold_bytes =
        static_cast<std::uint64_t>(ctx.params.get_int("ecn_k_bytes"));
  }
  if (ctx.params.has("bands")) {
    q.bands = static_cast<std::uint32_t>(ctx.params.get_int("bands"));
  }
  return q;
}

/// Shared incast-with-elephants grid point for the qdisc/ECN specs.
IncastConfig incast_battle_point(const RunContext& ctx) {
  IncastConfig cfg;
  cfg.fat_tree.k = ctx.scale.k;
  cfg.fat_tree.oversubscription = ctx.scale.oversubscription;
  cfg.senders = static_cast<std::uint32_t>(ctx.params.get_int("senders"));
  cfg.long_senders =
      static_cast<std::uint32_t>(ctx.params.get_int("long_senders"));
  cfg.short_start = Time::millis(ctx.params.get_int("warmup_ms"));
  cfg.bytes = ctx.scale.short_bytes;
  cfg.seed = ctx.seed;
  cfg.trace = ctx.trace;
  cfg.logger = ctx.logger;
  // Elephants never finish; bound the run for stragglers that exhaust
  // their SYN retries (drop-tail TCP does).
  cfg.max_sim_time = Time::seconds(15);
  return cfg;
}

/// Subflow pool for the ECN-aware MPTCP variants.  Loss-driven MPTCP
/// needs many subflows because discovering a path's state costs a loss;
/// on a marking fabric congestion is explicit, and every extra subflow
/// adds a floor window that sits in the shared queue (DCTCP cannot cut
/// below one segment per subflow).  A small pool keeps the multipath
/// gain while letting the marking threshold actually govern the queue.
std::uint32_t ecn_subflows(const RunContext& ctx) {
  return std::min<std::uint32_t>(ctx.scale.subflows, 2);
}

/// Runs one incast grid point under wall-clock timing: `fill` writes the
/// spec's metrics, then the shared events_per_second / wall_seconds
/// timing sidecar is attached (sidecar only — the main JSON must stay
/// host-independent).
template <typename Fill>
RunOutcome timed_incast(const IncastConfig& cfg, Fill&& fill) {
  const auto wall_start = std::chrono::steady_clock::now();
  const IncastResult res = run_incast(cfg);
  const double wall_secs = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();
  RunOutcome o;
  fill(o, res);
  o.set_timing("events_per_second",
               wall_secs > 0 ? double(res.events_executed) / wall_secs : 0);
  o.set_timing("wall_seconds", wall_secs);
  // Flight-recorder volume, when the run was traced.  Sidecar-only: the
  // main JSON must not differ between traced and untraced sweeps.
  if (res.trace_lines > 0) {
    o.set_timing("trace_lines", double(res.trace_lines));
    o.set_timing("trace_bytes", double(res.trace_bytes));
  }
  return o;
}

/// Applies a qdisc-spec transport variant name to an incast config.
/// Loss-driven protocols keep the fabric they name (drop-tail unless the
/// variant says otherwise); ECN-aware ones get the marking fabric.
void apply_incast_variant(IncastConfig& cfg, const RunContext& ctx,
                          const std::string& variant) {
  if (variant == "tcp") {
    cfg.transport.protocol = Protocol::kTcp;
  } else if (variant == "dctcp") {
    cfg.transport.protocol = Protocol::kDctcp;
    cfg.fat_tree.qdisc = point_qdisc(ctx, "ecn");
  } else if (variant == "mptcp-dctcp") {
    cfg.transport.protocol = Protocol::kMptcpDctcp;
    cfg.transport.subflows = ecn_subflows(ctx);
    cfg.fat_tree.qdisc = point_qdisc(ctx, "ecn");
  } else if (variant == "mmptcp-dctcp") {
    cfg.transport.protocol = Protocol::kMmptcpDctcp;
    cfg.transport.subflows = ecn_subflows(ctx);
    cfg.fat_tree.qdisc = point_qdisc(ctx, "ecn");
  } else if (variant == "mmptcp" || variant == "mmptcp-prio" ||
             variant == "mmptcp-ecn") {
    cfg.transport.protocol = Protocol::kMmptcp;
    cfg.transport.subflows = ctx.scale.subflows;
    if (variant == "mmptcp-prio") {
      cfg.fat_tree.qdisc = point_qdisc(ctx, "prio");
      cfg.fat_tree.qdisc.classifier = PrioClassifierKind::kPsFlag;
    } else if (variant == "mmptcp-ecn") {
      // ECN-blind transport on the marking fabric: the control showing
      // what the composable CC layer buys mmptcp-dctcp.
      cfg.fat_tree.qdisc = point_qdisc(ctx, "ecn");
    }
  } else {
    throw ConfigError("unknown incast variant: " + variant);
  }
}

void register_qdisc(Registry& r) {
  r.add({
      .name = "incast_ecn",
      .artefact = "roadmap: ECN/DCTCP and priority bands vs the incast "
                  "battle",
      .description = "burst of shorts + background elephants into one "
                     "receiver under drop-tail, ECN/DCTCP and "
                     "mice-priority qdiscs",
      .notes = "expected shape: dctcp holds peak_queue_pkts near ecn_k "
               "while tcp fills the drop-tail limit; mmptcp-prio beats "
               "plain mmptcp on short-flow FCT because PS packets jump "
               "the elephants' standing queue; mmptcp-dctcp beats plain "
               "mmptcp on both mean FCT and peak queue (per-subflow "
               "alpha keeps the elephants' standing queue at the mark "
               "point).  At senders=8 the blind burst is already "
               "drain-optimal (the shock RTO-silences the elephants), so "
               "mmptcp keeps the mean-FCT crown there and mmptcp-dctcp "
               "only wins the queue; at senders=24 the blind burst "
               "overflows the buffer and mmptcp-dctcp wins everything "
               "(~2x mean, ~6x p99, no RTOs).",
      // 8 mice vs 4 elephants: enough standing queue that the discipline
      // matters, few enough mice that their own collisions do not drown
      // the elephant effect in RTO noise.  24 mice: past the drop-tail
      // cap, where ECN-blind scatter starts paying in RTOs.
      .axes = fixed_axes({{"variant",
                           {"tcp", "dctcp", "mmptcp", "mmptcp-prio",
                            "mptcp-dctcp", "mmptcp-dctcp"}},
                          {"senders", {"8", "24"}},
                          {"long_senders", {"4"}},
                          {"warmup_ms", {"300"}},
                          {"ecn_k", {"20"}},
                          {"bands", {"2"}}}),
      .run =
          [](const RunContext& ctx) {
            IncastConfig cfg = incast_battle_point(ctx);
            apply_incast_variant(cfg, ctx, ctx.params.get("variant"));
            return timed_incast(cfg, [](RunOutcome& o,
                                        const IncastResult& res) {
              o.set("mean_fct_ms",
                    res.fct_ms.count() ? res.fct_ms.mean() : 0);
              o.set("p99_fct_ms",
                    res.fct_ms.count() ? res.fct_ms.percentile(99) : 0);
              o.set("makespan_ms", res.makespan.to_millis());
              o.set("rtos", double(res.rtos));
              o.set("syn_timeouts", double(res.syn_timeouts));
              o.set("completion", res.completion_ratio);
              o.set("peak_queue_pkts", double(res.peak_queue_packets));
              o.set("peak_queue_at_ms", res.peak_queue_at.to_millis());
              o.set("ecn_marked", double(res.ecn_marked));
              o.set("p999_fct_ms",
                    res.fct_ms.count() ? res.fct_ms.p999() : 0);
              append_flow_time_metrics(o, res.short_sketches);
            });
          },
      // Claim the 24-sender points before the 8-sender ones: the big
      // bursts run longest, and a straggler claimed last stretches the
      // whole sweep's tail.
      .run_cost = [](const ParamSet& p,
                     const Scale&) { return p.get_double("senders"); },
      // Gate thresholds for --compare: FCT/makespan may only degrade so
      // far; count metrics get absolute slack (they sit near zero where
      // relative deltas explode); improvements always pass.
      .tolerances =
          {
              {.pattern = "completion",
               .warn_pct = 1,
               .fail_pct = 5,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "rtos",
               .warn_pct = 25,
               .fail_pct = 100,
               .abs_slack = 3,
               .direction = Dir::kHigherIsWorse},
              {.pattern = "syn_timeouts",
               .abs_slack = 2,
               .direction = Dir::kHigherIsWorse},
              {.pattern = "peak_queue_pkts",
               .warn_pct = 10,
               .fail_pct = 30,
               .abs_slack = 4,
               .direction = Dir::kHigherIsWorse},
              {.pattern = "ecn_marked", .warn_pct = 15, .fail_pct = 50,
               .abs_slack = 10},
              // A timestamp, not a latency: must precede the *_ms entry
              // (whose higher-is-worse direction is wrong for it).  Wide
              // slack — WHEN the peak lands may legitimately move even
              // when the peak itself does not.
              {.pattern = "peak_queue_at_ms",
               .warn_pct = 25,
               .fail_pct = 1000,
               .abs_slack = 5,
               .direction = Dir::kBoth},
              {.pattern = "*_ms",
               .warn_pct = 8,
               .fail_pct = 25,
               .abs_slack = 2,
               .direction = Dir::kHigherIsWorse},
              // Timing sidecar aggregates (host-dependent; CI gates them
              // warn-only).
              {.pattern = "events_per_second*",
               .warn_pct = 15,
               .fail_pct = 40,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "wall_seconds*",
               .warn_pct = 20,
               .fail_pct = 60,
               .direction = Dir::kHigherIsWorse},
          },
  });

  r.add({
      .name = "battle_ecn",
      .artefact = "the paper's short-vs-long battle, refought on an "
                  "ECN-marking fabric",
      .description = "burst of shorts vs background elephants into one "
                     "receiver, every switch port marking at ecn_k: "
                     "ECN-blind mmptcp vs per-subflow-alpha mmptcp-dctcp "
                     "(plus dctcp / mptcp-dctcp references)",
      .notes = "expected shape: both can still win — mmptcp-dctcp keeps "
               "the elephants' standing queue at the mark point, so "
               "short-flow FCT (mean and tail) and peak_queue_pkts drop "
               "versus ECN-blind mmptcp while elephant goodput holds; "
               "mmptcp-ecn shows the marking fabric alone buys the "
               "ECN-blind family nothing.",
      .axes = fixed_axes({{"variant",
                           {"mmptcp-ecn", "mmptcp-dctcp", "mptcp-dctcp",
                            "dctcp"}},
                          {"senders", {"24"}},
                          {"long_senders", {"4"}},
                          {"warmup_ms", {"300"}},
                          {"ecn_k", {"20"}},
                          // Byte-mode marking threshold (0 = packet mode
                          // only); sweep with --set ecn_k_bytes=28000 for
                          // the K-in-bytes comparison.
                          {"ecn_k_bytes", {"0"}},
                          {"bands", {"2"}}}),
      .run =
          [](const RunContext& ctx) {
            IncastConfig cfg = incast_battle_point(ctx);
            apply_incast_variant(cfg, ctx, ctx.params.get("variant"));
            return timed_incast(cfg, [](RunOutcome& o,
                                        const IncastResult& res) {
              o.set("mean_fct_ms",
                    res.fct_ms.count() ? res.fct_ms.mean() : 0);
              o.set("p99_fct_ms",
                    res.fct_ms.count() ? res.fct_ms.percentile(99) : 0);
              o.set("makespan_ms", res.makespan.to_millis());
              o.set("rtos", double(res.rtos));
              o.set("completion", res.completion_ratio);
              o.set("long_goodput_mbps", res.long_goodput_mbps.count()
                                             ? res.long_goodput_mbps.mean()
                                             : 0);
              o.set("peak_queue_pkts", double(res.peak_queue_packets));
              o.set("peak_queue_at_ms", res.peak_queue_at.to_millis());
              o.set("ecn_marked", double(res.ecn_marked));
              o.set("p999_fct_ms",
                    res.fct_ms.count() ? res.fct_ms.p999() : 0);
              append_flow_time_metrics(o, res.short_sketches);
            });
          },
      // The battle's gated verdict: the short-flow tail, the elephants'
      // goodput and the standing queue may only degrade so far;
      // improvements always pass.
      .tolerances =
          {
              {.pattern = "completion",
               .warn_pct = 1,
               .fail_pct = 5,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "rtos",
               .warn_pct = 25,
               .fail_pct = 100,
               .abs_slack = 3,
               .direction = Dir::kHigherIsWorse},
              {.pattern = "long_goodput_mbps",
               .warn_pct = 8,
               .fail_pct = 20,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "peak_queue_pkts",
               .warn_pct = 10,
               .fail_pct = 30,
               .abs_slack = 4,
               .direction = Dir::kHigherIsWorse},
              {.pattern = "ecn_marked", .warn_pct = 15, .fail_pct = 50,
               .abs_slack = 10},
              // A timestamp, not a latency: must precede the *_ms entry
              // (whose higher-is-worse direction is wrong for it).  Wide
              // slack — WHEN the peak lands may legitimately move even
              // when the peak itself does not.
              {.pattern = "peak_queue_at_ms",
               .warn_pct = 25,
               .fail_pct = 1000,
               .abs_slack = 5,
               .direction = Dir::kBoth},
              {.pattern = "*_ms",
               .warn_pct = 8,
               .fail_pct = 25,
               .abs_slack = 2,
               .direction = Dir::kHigherIsWorse},
              // Timing sidecar aggregates (host-dependent; CI gates them
              // warn-only).
              {.pattern = "events_per_second*",
               .warn_pct = 15,
               .fail_pct = 40,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "wall_seconds*",
               .warn_pct = 20,
               .fail_pct = 60,
               .direction = Dir::kHigherIsWorse},
          },
  });

  r.add({
      .name = "load_sweep_qdisc",
      .artefact = "roadmap: queueing discipline x transport under the "
                  "paper workload",
      .description = "drop-tail vs ECN-marking vs strict-priority "
                     "(bytes-sent classifier) for TCP, DCTCP, MMPTCP and "
                     "the ECN-aware MPTCP family",
      .notes = "expected shape: ecn+dctcp cuts peak_queue_pkts and RTOs "
               "versus tcp+droptail; prio lifts every transport's "
               "short-flow tail by shielding young flows from elephant "
               "queues; mmptcp stays competitive without switch help; "
               "the *-dctcp MPTCP variants only separate from their "
               "loss-driven siblings under the ecn qdisc.",
      .axes = fixed_axes({{"protocol",
                           {"tcp", "dctcp", "mmptcp", "mptcp-dctcp",
                            "mmptcp-dctcp"}},
                          {"qdisc", {"droptail", "ecn", "prio"}},
                          {"ecn_k", {"20"}},
                          {"ecn_k_bytes", {"0"}},
                          {"bands", {"2"}}}),
      .run =
          [](const RunContext& ctx) {
            ScenarioConfig cfg =
                point_scenario(ctx, ctx.params.get_protocol("protocol"),
                               ctx.scale.subflows);
            cfg.fat_tree.qdisc = point_qdisc(ctx, ctx.params.get("qdisc"));
            // Young-flow protection that works for every transport, not
            // just the PS phase: band by stream offset.
            cfg.fat_tree.qdisc.classifier = PrioClassifierKind::kBytesSent;
            return scenario_outcome(run_scenario(cfg));
          },
      .adjust_scale = [](Scale& s) { s.shorts = s.shorts / 4; },
  });
}

void register_scale(Registry& r) {
  r.add({
      .name = "scale_sweep",
      .artefact = "roadmap: million-flow scaling (flat-memory streaming "
                  "stats)",
      .description = "MMPTCP shorts-only workload on a big FatTree with "
                     "exact_stats off; FCT from streaming sketches, peak "
                     "RSS and slot high-water mark prove memory stays "
                     "O(live flows)",
      .notes = "expected shape: peak_flow_slots plateaus at the live-flow "
               "window (arrival rate x linger), independent of the total "
               "short count — the 1M point holds peak RSS within 2x of "
               "the 100k point.  FCT metrics are sketch-derived (~0.3% "
               "relative error) and byte-identical to an exact_stats "
               "run's sketches.",
      .axes =
          [](const Scale& scale) {
            return std::vector<Axis>{
                {"shorts",
                 scale.full
                     ? std::vector<std::string>{"100000", "300000",
                                                "1000000"}
                     : std::vector<std::string>{"2000", "4000", "8000"}}};
          },
      .run =
          [](const RunContext& ctx) {
            ScenarioConfig cfg =
                point_scenario(ctx, Protocol::kMmptcp, ctx.scale.subflows);
            cfg.short_flow_count =
                static_cast<std::uint32_t>(ctx.params.get_int("shorts"));
            cfg.exact_stats = false;
            // Shorts only: background elephants would pin records (and
            // load) for the whole run, hiding the memory curve under
            // test.
            cfg.start_long_flows = false;
            // Completed shorts must leave memory while the run is still
            // going: a short server linger bounds live records at
            // (arrival rate x linger) instead of the full short count.
            cfg.server_linger = Time::seconds(1);
            // Longer spine delay, realistic for a big fabric.  Only
            // agg<->core links cross domains, so this is also the
            // conservative lookahead: the window is 100 us wide.
            cfg.fat_tree.core_link_delay = Time::micros(100);
            const auto wall_start = std::chrono::steady_clock::now();
            Scenario sc(cfg);
            sc.run();
            const double wall_secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
            const FlowSketches& s =
                sc.metrics().short_flow_sketches(Protocol::kMmptcp);
            RunOutcome o;
            o.set("completed", double(s.fct_ms.count()));
            o.set("completion", sc.short_completion_ratio());
            o.set("mean_ms", s.fct_ms.mean());
            o.set("p50_ms", s.fct_ms.quantile(0.5));
            o.set("p99_ms", s.fct_ms.quantile(0.99));
            o.set("p999_ms", s.fct_ms.quantile(0.999));
            o.set("max_ms", s.fct_ms.max());
            o.set("rtos", double(sc.short_flow_rtos()));
            const double events = double(sc.sim().total_executed());
            o.set("events", events);
            const std::uint64_t unroutable = sc.network().unroutable_total();
            check(unroutable == 0,
                  "scale_sweep run dropped unroutable packets");
            o.set("unroutable", double(unroutable));
            // Deterministic memory canary: record slots ever allocated =
            // high-water mark of concurrently live (unrecycled) flows.
            // Flat across the shorts axis == memory is O(live flows).
            o.set("peak_flow_slots", double(sc.metrics().flow_count()));
            append_flow_time_metrics(o, s);
            o.set_timing("events_per_second",
                         wall_secs > 0 ? events / wall_secs : 0);
            o.set_timing("wall_seconds", wall_secs);
            o.set_timing("sim_threads", double(ctx.sim_threads));
            append_engine_timings(o, sc);
            // Host-dependent twin of peak_flow_slots; cumulative across
            // the process, so per-point comparisons need one point per
            // invocation (--set shorts=<n>).
            o.set_timing("peak_rss_mb", peak_rss_mb());
            return o;
          },
      .adjust_scale =
          [](Scale& s) {
            // The roadmap scenario: k=16 (4096 hosts at 4:1) at paper
            // scale; a k=8 fabric keeps the reduced sweep CI-fast.  The
            // arrival rate must keep the workload STATIONARY — at 10/s
            // per host the oversubscribed uplinks run well under
            // capacity, so FCT (and with it the live-flow window) does
            // not grow with the total short count.  A hotter rate makes
            // queues and the live window grow for the whole run, which
            // is a congestion experiment, not a memory one.
            s.k = s.full ? 16 : 8;
            s.rate_per_host = 10.0;
          },
      .run_cost = [](const ParamSet& p,
                     const Scale&) { return p.get_double("shorts"); },
      .tolerances =
          {
              {.pattern = "completed",
               .abs_slack = 0.5,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "completion",
               .warn_pct = 0.5,
               .fail_pct = 2,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "rtos",
               .warn_pct = 25,
               .fail_pct = 100,
               .abs_slack = 3,
               .direction = Dir::kHigherIsWorse},
              // Determinism canaries: event count and slot high-water
              // mark move only when the simulator (or GC cadence)
              // genuinely changes — refresh baselines deliberately.
              {.pattern = "events", .warn_pct = 0.5, .fail_pct = 5},
              // Hard canary: any unroutable packet is a routing bug.
              {.pattern = "unroutable",
               .warn_pct = 0,
               .fail_pct = 0,
               .abs_slack = 0,
               .direction = Dir::kHigherIsWorse},
              {.pattern = "peak_flow_slots",
               .warn_pct = 2,
               .fail_pct = 10,
               .abs_slack = 64,
               .direction = Dir::kHigherIsWorse},
              {.pattern = "*_ms",
               .warn_pct = 5,
               .fail_pct = 20,
               .abs_slack = 1,
               .direction = Dir::kHigherIsWorse},
              // Timing sidecar aggregates: host-dependent, gated
              // warn-only in CI until several baselines accumulate.
              {.pattern = "events_per_second*",
               .warn_pct = 15,
               .fail_pct = 40,
               .direction = Dir::kLowerIsWorse},
              {.pattern = "wall_seconds*",
               .warn_pct = 20,
               .fail_pct = 60,
               .direction = Dir::kHigherIsWorse},
              {.pattern = "peak_rss_mb*",
               .warn_pct = 25,
               .fail_pct = 100,
               .direction = Dir::kHigherIsWorse},
              // Engine scheduling telemetry: deterministic for a given
              // build and configuration.
              {.pattern = "windows*", .warn_pct = 5, .fail_pct = 20},
              {.pattern = "domains_*", .warn_pct = 10, .fail_pct = 50},
              {.pattern = "avg_active*",
               .warn_pct = 10,
               .fail_pct = 50,
               .abs_slack = 0.5},
              {.pattern = "barrier_wait_share*",
               .warn_pct = 100,
               .fail_pct = 1000,
               .abs_slack = 0.2},
              {.pattern = "sim_workers*", .warn_pct = 100, .fail_pct = 1e9},
          },
  });
}

}  // namespace

std::size_t register_builtin_experiments() {
  // Function-local static: thread-safe, idempotent registration.
  static const std::size_t count = [] {
    Registry& r = Registry::global();
    register_fig1(r);
    register_incast(r);
    register_scenario_sweeps(r);
    register_ablations(r);
    register_coexistence(r);
    register_qdisc(r);
    register_smoke(r);
    register_scale(r);
    register_perf_micro(r);
    return r.size();
  }();
  return count;
}

}  // namespace mmptcp::exp
