#pragma once

// The paper's evaluation scenario, as described in the Figure 1 caption:
//
//   "a simulated 4:1 over-subscribed FatTree topology ... One third of the
//    servers run long (background) flows.  The rest run short flows (70KBs
//    each) which are scheduled according to a Poisson process.  All flows
//    are scheduled based on a permutation traffic matrix."
//
// Scenario builds the topology, assigns host roles, starts long background
// flows, generates Poisson short-flow arrivals, runs to completion, and
// exposes the measurements every bench needs (FCT summaries, per-layer
// loss rates, long-flow goodput, network utilisation).  The roadmap's
// hotspot experiment is a knob (a fraction of shorts is redirected at one
// rack), as is the dual-homed topology.
//
// The paper's objective (3), "tolerance to sudden and high bursts of
// traffic", is the second workload pattern: a synchronized N-to-1 burst
// (incast) into host 0, optionally against background elephants into
// the same receiver (ScenarioConfig::incast_senders).

#include <map>
#include <memory>

#include "core/transport_factory.h"
#include "sim/engine.h"
#include "stats/link_stats.h"
#include "topo/dual_homed.h"
#include "topo/fat_tree.h"
#include "trace/recorder.h"
#include "trace/sampler.h"
#include "workload/apps.h"
#include "workload/arrivals.h"
#include "workload/size_dist.h"
#include "workload/traffic_matrix.h"

namespace mmptcp {

/// Full description of one simulation run.
struct ScenarioConfig {
  // --- topology (FatTree by default; dual-homed for the roadmap bench) ---
  FatTreeConfig fat_tree{.k = 4, .oversubscription = 4};
  bool dual_homed = false;
  DualHomedConfig dual{.k = 4, .oversubscription = 4};

  // --- transport under test (applies to long and short flows alike) ---
  TransportConfig transport{};
  /// Optional override for long (background) flows, enabling controlled
  /// experiments that vary only the short-flow transport.
  std::optional<TransportConfig> long_transport{};

  // --- roles & workload ---
  double long_host_fraction = 1.0 / 3.0;
  bool start_long_flows = true;
  Time long_start_spread = Time::millis(100);
  std::uint32_t short_flow_count = 2000;   ///< stop after this many shorts
  double short_rate_per_host = 8.0;        ///< Poisson arrivals/s per host
  std::uint64_t short_flow_bytes = 70 * 1024;
  /// Optional size distribution for shorts (overrides short_flow_bytes).
  std::shared_ptr<SizeDistribution> short_sizes;
  /// Fraction of short flows redirected at rack (pod 0, edge 0) — the
  /// roadmap's hotspot experiment.  0 disables.
  double hotspot_fraction = 0.0;

  // --- N-to-1 burst (incast) pattern ---
  /// Nonzero replaces the Poisson mix above: this many senders, on the
  /// hosts after the receiver's rack, each send one short_flow_bytes
  /// flow to host 0, so every flow crosses the fabric and converges on
  /// one access link.  The run stays undecomposed (serial); of the
  /// roles & workload fields above only short_flow_bytes applies.
  std::uint32_t incast_senders = 0;
  /// Background elephants into the same receiver, on the hosts after the
  /// burst senders, started at t=0.  They make the qdisc comparison bite:
  /// drop-tail lets them keep a standing queue the burst must fight
  /// through.  With elephants running the run stops once every burst
  /// flow completed (polled every check_interval); without them it ends
  /// when no event is left.
  std::uint32_t incast_elephants = 0;
  /// When the burst starts (zero: together with the elephants).  A
  /// warmup lets the elephants build their standing queue (and, under
  /// MMPTCP, finish the PS->MPTCP phase switch), so the burst meets the
  /// queue a real incast meets.
  Time incast_start = Time::zero();

  // --- control ---
  std::uint64_t seed = 1;
  /// Worker threads for domain-parallel event execution.  FatTree runs
  /// always decompose into one domain per pod (FatTree::domain_plan),
  /// executed in conservative lookahead windows (see sim/engine.h);
  /// this only sets how many threads run the window, so the main
  /// results are byte-identical at any value.  0 means auto:
  /// hardware_concurrency, clamped (loudly) to the domain count.
  /// Forced to 1 when tracing (identical schedule either way), for
  /// dual-homed topologies (no decomposition yet) and for the incast
  /// pattern.
  unsigned sim_threads = 1;
  Time max_sim_time = Time::seconds(120);
  Time check_interval = Time::millis(50);
  Time server_linger = Time::seconds(20);  ///< server endpoint GC delay
  std::uint16_t port = 5001;

  // --- observability ---
  /// Flight recorder; when trace.enabled() the scenario opens a recorder
  /// at trace.path and wires it through the simulation.
  TraceConfig trace{};
  /// Component logger root (default: disabled).
  Logger logger{};
  /// When false the run skips materialising per-flow FCT samples for the
  /// exact Summary percentiles and reports only the O(1) streaming
  /// sketches (see FlowSketches).  It also switches Metrics into
  /// streaming mode: completed short flows retire — their counters fold
  /// into RetiredTotals and their record slots are recycled once the
  /// server endpoint is gone — so memory stays O(live flows) at any
  /// short_flow_count.  Results are byte-identical to an exact_stats run
  /// for every sketch-derived metric (flow ids are invisible to the
  /// simulation).  Specs that gate exact values keep the default.
  bool exact_stats = true;
};

/// Builds and runs one scenario; query results afterwards.
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs until every short flow completed (checked periodically) or
  /// max_sim_time, whichever first, then closes the flight recorder
  /// (throws ConfigError when the trace could not be written).
  void run();

  // ---- accessors ----
  Simulation& sim() { return sim_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  Network& network() { return *net_; }
  const PathOracle& oracle() const;
  FatTree* fat_tree() { return ft_.get(); }
  std::size_t host_count() const { return net_->host_count(); }
  Time end_time() const { return end_time_; }
  std::uint32_t shorts_started() const {
    std::uint32_t n = 0;
    for (std::uint32_t c : shorts_by_role_) n += c;
    return n;
  }
  /// Parallel decomposition actually used: >1 when the run executes in
  /// domain windows (the conservative window width is lookahead()).
  std::size_t domain_count() const { return domains_; }
  Time lookahead() const { return lookahead_; }
  /// Worker threads the last run() actually used (after auto-resolution
  /// and domain clamping); 0 before run().
  unsigned workers_used() const { return workers_used_; }
  /// Engine scheduling telemetry from the last run() (all zeros for
  /// serial runs or before run()).  Timing sidecar only: machine- and
  /// thread-count-dependent, never part of the main results.
  const EngineStats& engine_stats() const { return engine_stats_; }
  const std::vector<std::size_t>& permutation() const { return perm_; }
  const std::vector<std::size_t>& long_hosts() const { return long_hosts_; }

  // ---- result helpers ----
  Summary short_fct_ms() const;
  Summary long_goodput_mbps() const;
  std::map<LinkLayer, LayerStats> layer_stats() const;
  /// Goodput of all flows divided by total host access capacity.
  double network_utilization() const;
  double short_completion_ratio() const;
  /// Total RTOs (and SYN timeouts) across short flows.
  std::uint64_t short_flow_rtos() const;
  /// The SYN timeouts among short_flow_rtos().
  std::uint64_t short_syn_timeouts() const;
  std::uint64_t short_fast_retransmits() const;
  /// Completion time of the last short flow (zero when none completed).
  Time makespan() const;
  std::uint64_t short_flows_with_rto() const;
  std::uint64_t total_spurious_retransmits() const;
  /// CE marks set by all qdiscs in the network.
  std::uint64_t ecn_marked_packets() const;
  /// Peak queue occupancy (packets) over switch egress ports.
  std::uint64_t peak_switch_queue_packets() const;
  /// Peak switch queue occupancy with the time it was first reached.
  PeakQueue peak_switch_queue() const;
  /// The run's flight recorder, or null when tracing is off.
  const TraceRecorder* trace() const { return trace_.get(); }

 private:
  void build();
  void start_incast();
  void start_long_flows();
  void schedule_short_arrival(std::size_t role_idx);
  void start_short_flow(std::size_t role_idx);
  std::size_t pick_destination(std::size_t role_idx, std::size_t src_idx);
  void periodic_check();
  /// Hosts under one edge switch (or dual-homed pair); hosts are
  /// pod-major, so rack (0,0) is the index prefix [0, rack_hosts()).
  std::size_t rack_hosts() const;
  Host& host(std::size_t i) { return net_->host(i); }
  /// Flow list owned by `h`'s domain (index 0 when the run is serial).
  /// Only ever pushed from `h`'s own scheduler.
  std::vector<std::unique_ptr<ClientFlow>>& flows_for(const Host& h);

  ScenarioConfig cfg_;
  std::unique_ptr<TraceRecorder> trace_;  ///< before sim_: wired into it
  Simulation sim_;
  std::unique_ptr<FatTree> ft_;
  std::unique_ptr<DualHomedFatTree> dh_;
  Network* net_ = nullptr;
  Metrics metrics_;
  TransportConfig transport_;  ///< cfg_.transport with the oracle filled in
  TransportConfig long_transport_;  ///< transport for background flows
  std::unique_ptr<SinkFarm> sinks_;
  /// Flow ownership is sharded by domain: each domain's events only
  /// ever push into their own list, the control thread reaps from all
  /// of them while workers are parked.
  std::vector<std::vector<std::unique_ptr<ClientFlow>>> flows_;
  std::vector<std::size_t> perm_;
  std::vector<std::size_t> long_hosts_;
  std::vector<std::size_t> short_hosts_;
  // Per short-host ("role") state, all parallel to short_hosts_: arrival
  // processes, size/hotspot RNG streams, and a fixed share of the total
  // short-flow budget.  Keeping these per-role (instead of shared
  // globals) removes every cross-domain interaction from the workload
  // generator, so arrivals in different pods can run concurrently.
  std::vector<PoissonArrivals> arrivals_;
  std::vector<Rng> size_rngs_;
  std::vector<Rng> hotspot_rngs_;
  std::vector<std::uint32_t> role_quota_;
  std::vector<std::uint32_t> shorts_by_role_;
  std::size_t domains_ = 1;
  Time lookahead_ = Time::zero();
  unsigned workers_used_ = 0;
  EngineStats engine_stats_;
  Time end_time_;
  bool stopped_ = false;
  std::unique_ptr<TraceSampler> sampler_;  ///< periodic queue/sched snapshots
};

}  // namespace mmptcp
