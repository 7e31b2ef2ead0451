#include "workload/scenario.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "sim/engine.h"

namespace mmptcp {

Scenario::Scenario(ScenarioConfig config)
    : cfg_(std::move(config)),
      trace_(cfg_.trace.enabled()
                 ? std::make_unique<TraceRecorder>(cfg_.trace)
                 : nullptr),
      sim_(cfg_.seed, cfg_.logger) {
  if (trace_) sim_.set_trace(trace_.get(), trace_->channels());
  // exact_stats=false is the million-flow mode: retire completed shorts
  // so record memory is O(live flows) (see ScenarioConfig::exact_stats).
  if (!cfg_.exact_stats) metrics_.set_streaming(true);
  build();
  if (trace_ && (trace_->wants(kTraceQueue) || trace_->wants(kTraceSched))) {
    sampler_ = std::make_unique<TraceSampler>(sim_, *trace_, *net_);
    sampler_->start();
  }
}

Scenario::~Scenario() {
  // Flows hold demux registrations on hosts owned by the topology; drop
  // them first so teardown order is safe.
  for (auto& list : flows_) list.clear();
  sinks_.reset();
}

void Scenario::build() {
  // Decide the parallel decomposition before any node exists: domains
  // must be configured before ports are wired, flow shards before the
  // first flow starts.  FatTree runs always decompose (the window
  // schedule, and therefore every result byte, is then independent of
  // sim_threads); dual-homed stays serial until it grows a plan.
  if (!cfg_.dual_homed) {
    const FatTreeDomainPlan plan = FatTree::domain_plan(cfg_.fat_tree);
    if (plan.domains > 1) {
      sim_.configure_domains(plan.domains);
      metrics_.configure_shards(plan.domains);
      domains_ = plan.domains;
      lookahead_ = plan.lookahead;
    }
  }
  if (domains_ == 1 && cfg_.sim_threads > 1) {
    std::fprintf(stderr,
                 "mmptcp: --sim-threads %u requested but the topology "
                 "yields no parallel decomposition (%s); running serial\n",
                 cfg_.sim_threads,
                 cfg_.dual_homed ? "dual-homed" : "zero lookahead");
  }
  flows_.resize(domains_);
  if (cfg_.dual_homed) {
    dh_ = std::make_unique<DualHomedFatTree>(sim_, cfg_.dual);
    net_ = &dh_->network();
  } else {
    ft_ = std::make_unique<FatTree>(sim_, cfg_.fat_tree);
    net_ = &ft_->network();
  }
  if (domains_ > 1) {
    // The plan's lookahead is a promise about the network we then
    // build: verify it against the actual wiring.  A cross-domain link
    // shorter than the lookahead would break conservative causality,
    // and the runtime guard (schedule_at's at >= now_) is a dcheck
    // compiled out of release builds — so fail loudly here instead of
    // corrupting event order later.
    check(net_->cross_domain_channel_count() > 0,
          "domain decomposition produced no cross-domain channels");
    check(lookahead_ <= net_->min_cross_domain_delay(),
          "domain lookahead exceeds the built network's minimum "
          "cross-domain delay");
  }
  transport_ = cfg_.transport;
  transport_.oracle = &oracle();
  transport_.server_port = cfg_.port;
  long_transport_ = cfg_.long_transport.value_or(cfg_.transport);
  long_transport_.oracle = &oracle();
  long_transport_.server_port = cfg_.port;

  sinks_ = std::make_unique<SinkFarm>(sim_, metrics_, *net_, cfg_.port,
                                      transport_.tcp);

  const std::size_t n = net_->host_count();
  require(n >= 2, "scenario needs at least two hosts");
  Rng topo_rng = sim_.rng().fork();
  perm_ = permutation_matrix(topo_rng, n);

  const auto long_count = static_cast<std::size_t>(
      cfg_.long_host_fraction * static_cast<double>(n));
  long_hosts_ = sample_without_replacement(topo_rng, n, long_count);
  std::vector<bool> is_long(n, false);
  for (std::size_t h : long_hosts_) is_long[h] = true;
  for (std::size_t h = 0; h < n; ++h) {
    if (!is_long[h]) short_hosts_.push_back(h);
  }

  const std::size_t roles = short_hosts_.size();
  arrivals_.reserve(roles);
  size_rngs_.reserve(roles);
  hotspot_rngs_.reserve(roles);
  for (std::size_t i = 0; i < roles; ++i) {
    arrivals_.emplace_back(sim_.rng().fork(), cfg_.short_rate_per_host);
    size_rngs_.push_back(sim_.rng().fork());
    hotspot_rngs_.push_back(sim_.rng().fork());
  }
  // Fixed per-role share of the short-flow budget.  A shared countdown
  // would make "who gets the last slot" depend on how concurrently
  // executing pods interleave; fixed quotas keep the workload a pure
  // function of the seed.
  role_quota_.assign(roles, 0);
  shorts_by_role_.assign(roles, 0);
  if (roles > 0) {
    const std::uint32_t base =
        cfg_.short_flow_count / static_cast<std::uint32_t>(roles);
    const std::uint32_t extra =
        cfg_.short_flow_count % static_cast<std::uint32_t>(roles);
    for (std::size_t i = 0; i < roles; ++i) {
      role_quota_[i] = base + (i < extra ? 1u : 0u);
    }
  }
}

std::vector<std::unique_ptr<ClientFlow>>& Scenario::flows_for(const Host& h) {
  const std::size_t d = h.domain();
  return flows_[d < flows_.size() ? d : 0];
}

const PathOracle& Scenario::oracle() const {
  if (ft_) return *ft_;
  return *dh_;
}

void Scenario::run() {
  if (cfg_.start_long_flows && !long_hosts_.empty()) start_long_flows();
  for (std::size_t i = 0; i < short_hosts_.size(); ++i) {
    schedule_short_arrival(i);
  }
  sim_.control_scheduler().schedule(cfg_.check_interval,
                                    [this] { periodic_check(); });
  // Tracing forces one worker: the windowed schedule is identical either
  // way, so trace and main results stay byte-equal to any thread count.
  // sim_threads == 0 means auto: one worker per hardware thread, clamped
  // to the domain count (more workers than domains can never run).
  unsigned workers = trace_ ? 1u : cfg_.sim_threads;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  if (domains_ > 1 && workers > domains_) {
    std::fprintf(stderr, "mmptcp: clamping %u workers to %zu domains\n",
                 workers, domains_);
  }
  Engine engine(sim_, lookahead_, workers);
  engine.set_domain_hook(
      [this](std::size_t d) { net_->flush_cross_domain_into(d); });
  engine.set_barrier_hook([this] { metrics_.flush_journals(); });
  engine.run_until(cfg_.max_sim_time);
  end_time_ = sim_.now();
  workers_used_ = engine.workers();
  engine_stats_ = engine.stats();
}

void Scenario::start_long_flows() {
  Rng stagger = sim_.rng().fork();
  for (std::size_t h : long_hosts_) {
    const Time at = Time::nanos(static_cast<std::int64_t>(
        stagger.uniform(static_cast<std::uint64_t>(
            std::max<std::int64_t>(cfg_.long_start_spread.ns(), 1)))));
    sim_.domain_scheduler(host(h).domain()).schedule_at(at, [this, h] {
      flows_for(host(h)).push_back(std::make_unique<ClientFlow>(
          sim_, metrics_, host(h), host(perm_[h]).addr(), long_transport_,
          ClientFlow::kLongFlow, /*long_flow=*/true));
    });
  }
}

void Scenario::schedule_short_arrival(std::size_t role_idx) {
  if (shorts_by_role_[role_idx] >= role_quota_[role_idx]) return;
  const Time gap = arrivals_[role_idx].next_gap();
  // The arrival fires in the source host's domain, so the whole chain
  // (draw gap -> start flow -> draw next gap) is domain-local.
  sim_.domain_scheduler(host(short_hosts_[role_idx]).domain())
      .schedule(gap, [this, role_idx] {
        if (stopped_) return;
        start_short_flow(role_idx);
        schedule_short_arrival(role_idx);
      });
}

void Scenario::start_short_flow(std::size_t role_idx) {
  ++shorts_by_role_[role_idx];
  const std::size_t src_idx = short_hosts_[role_idx];
  const std::size_t dst = pick_destination(role_idx, src_idx);
  const std::uint64_t bytes =
      cfg_.short_sizes ? cfg_.short_sizes->sample(size_rngs_[role_idx])
                       : cfg_.short_flow_bytes;
  flows_for(host(src_idx)).push_back(std::make_unique<ClientFlow>(
      sim_, metrics_, host(src_idx), host(dst).addr(), transport_, bytes,
      /*long_flow=*/false));
}

std::size_t Scenario::pick_destination(std::size_t role_idx,
                                       std::size_t src_idx) {
  Rng& rng = hotspot_rngs_[role_idx];
  if (cfg_.hotspot_fraction > 0.0 && rng.bernoulli(cfg_.hotspot_fraction)) {
    // Hosts are pod-major, so rack (0,0) is the index prefix.
    const std::size_t rack =
        ft_ ? ft_->hosts_per_edge()
            : dh_->hosts_per_pair();
    std::size_t dst = rng.uniform(rack);
    if (dst == src_idx) dst = (dst + 1) % net_->host_count();
    return dst;
  }
  return perm_[src_idx];
}

void Scenario::periodic_check() {
  // Runs on the control scheduler: the engine executes the control
  // window before (and never concurrently with) the domain windows, so
  // reaping flows and recycling records here is race-free.  Metric
  // journals flushed at the last barrier bound what is visible, which
  // can delay the stop decision by at most one lookahead window.
  if (stopped_) return;
  const Time gc_cutoff = sim_.now() - cfg_.server_linger;
  sinks_->gc(gc_cutoff);
  for (auto& list : flows_) {
    std::erase_if(list, [this](const std::unique_ptr<ClientFlow>& f) {
      const FlowRecord& rec = metrics_.record(f->flow_id());
      const bool reap = !rec.long_flow && rec.is_complete() && f->finished();
      // Streaming mode: fold the finished short into the retired
      // aggregates now (the client side is done); the slot itself is
      // recycled below only after the server endpoint was GC'd.
      if (reap && metrics_.streaming() && !rec.retired) {
        metrics_.retire(f->flow_id());
      }
      return reap;
    });
  }
  if (metrics_.streaming()) metrics_.recycle_before(gc_cutoff);
  // O(1) stop condition: every requested short started and completed
  // (started/completed counters include retired flows by construction).
  if (shorts_started() >= cfg_.short_flow_count &&
      metrics_.short_flows_started() >= cfg_.short_flow_count &&
      metrics_.short_flows_completed() == metrics_.short_flows_started()) {
    stopped_ = true;
    sim_.scheduler().stop();
    return;
  }
  sim_.scheduler().schedule(cfg_.check_interval, [this] { periodic_check(); });
}

Summary Scenario::short_fct_ms() const {
  return metrics_.short_flow_fct_ms(cfg_.transport.protocol);
}

Summary Scenario::long_goodput_mbps() const {
  return metrics_.long_flow_goodput_mbps(long_transport_.protocol,
                                         end_time_);
}

std::map<LinkLayer, LayerStats> Scenario::layer_stats() const {
  return collect_layer_stats(*net_);
}

double Scenario::network_utilization() const {
  const double secs = end_time_.to_seconds();
  if (secs <= 0.0) return 0.0;
  std::uint64_t delivered = metrics_.retired().delivered_bytes;
  for (const auto* rec : metrics_.flows()) delivered += rec->delivered_bytes;
  // Total host access capacity (counts every NIC, so dual-homed hosts
  // contribute twice).
  double capacity = 0.0;
  net_->for_each_port([&capacity](const Node& node, const Port& port) {
    if (dynamic_cast<const Host*>(&node) != nullptr) {
      capacity += static_cast<double>(port.rate_bps());
    }
  });
  if (capacity <= 0.0) return 0.0;
  return static_cast<double>(delivered) * 8.0 / (capacity * secs);
}

double Scenario::short_completion_ratio() const {
  return metrics_.short_flow_completion_ratio(cfg_.transport.protocol);
}

std::uint64_t Scenario::short_flow_rtos() const {
  return metrics_.retired().rtos +
         metrics_.total(
             [](const FlowRecord& r) {
               return std::uint64_t(r.rto_count) + r.syn_timeouts;
             },
             [](const FlowRecord& r) { return !r.long_flow; });
}

std::uint64_t Scenario::short_flows_with_rto() const {
  return metrics_.retired().flows_with_rto +
         metrics_.total(
             [](const FlowRecord& r) {
               return (r.rto_count + r.syn_timeouts) > 0 ? 1u : 0u;
             },
             [](const FlowRecord& r) { return !r.long_flow; });
}

std::uint64_t Scenario::total_spurious_retransmits() const {
  return metrics_.retired().spurious +
         metrics_.total(
             [](const FlowRecord& r) { return r.spurious_retransmits; });
}

std::uint64_t Scenario::ecn_marked_packets() const {
  return total_marked_packets(*net_);
}

std::uint64_t Scenario::peak_switch_queue_packets() const {
  return mmptcp::peak_switch_queue_packets(*net_);
}

PeakQueue Scenario::peak_switch_queue() const {
  return mmptcp::peak_switch_queue(*net_);
}

namespace {

/// Stops `sim` once all `expected_shorts` completed (elephants never do).
/// The completion counter is exact here: the run is serial, so nothing
/// is journaled, and it never streams, so nothing is retired.
void poll_incast_done(Simulation& sim, const Metrics& metrics,
                      std::uint32_t expected_shorts, Time interval) {
  if (metrics.short_flows_completed() >= expected_shorts) {
    sim.scheduler().stop();
    return;
  }
  sim.scheduler().schedule(interval, [&sim, &metrics, expected_shorts,
                                      interval] {
    poll_incast_done(sim, metrics, expected_shorts, interval);
  });
}

}  // namespace

IncastResult run_incast(const IncastConfig& config) {
  Simulation sim(config.seed, config.logger);
  std::unique_ptr<TraceRecorder> trace;
  if (config.trace.enabled()) {
    trace = std::make_unique<TraceRecorder>(config.trace);
    sim.set_trace(trace.get(), trace->channels());
  }
  FatTree ft(sim, config.fat_tree);
  Metrics metrics;
  std::unique_ptr<TraceSampler> sampler;
  if (trace && (trace->wants(kTraceQueue) || trace->wants(kTraceSched))) {
    sampler = std::make_unique<TraceSampler>(sim, *trace, ft.network());
    sampler->start();
  }
  require(config.senders + config.long_senders + ft.hosts_per_edge() <=
              ft.host_count(),
          "incast needs enough hosts outside the receiver's rack");

  TransportConfig transport = config.transport;
  transport.oracle = &ft;

  Sink sink(sim, metrics, ft.host(0), transport.server_port, transport.tcp);
  const Addr receiver = ft.host(0).addr();

  std::vector<std::unique_ptr<ClientFlow>> flows;
  // Senders start after the hosts under the receiver's rack, so every
  // flow crosses the fabric and converges on one access link.
  const std::size_t first = ft.hosts_per_edge();
  const auto start_shorts = [&] {
    for (std::uint32_t i = 0; i < config.senders; ++i) {
      Host& src = ft.host(first + i);
      flows.push_back(std::make_unique<ClientFlow>(
          sim, metrics, src, receiver, transport, config.bytes,
          /*long_flow=*/false));
    }
  };
  if (config.short_start.ns() > 0) {
    sim.scheduler().schedule_at(config.short_start, start_shorts);
  } else {
    start_shorts();
  }
  // Background elephants occupy the hosts after the burst senders.
  for (std::uint32_t i = 0; i < config.long_senders; ++i) {
    Host& src = ft.host(first + config.senders + i);
    flows.push_back(std::make_unique<ClientFlow>(
        sim, metrics, src, receiver, transport, ClientFlow::kLongFlow,
        /*long_flow=*/true));
  }
  if (config.long_senders > 0) {
    sim.scheduler().schedule(config.check_interval, [&] {
      poll_incast_done(sim, metrics, config.senders, config.check_interval);
    });
  }
  sim.scheduler().run_until(config.max_sim_time);

  IncastResult result;
  if (config.exact_stats) {
    result.fct_ms = metrics.short_flow_fct_ms(transport.protocol);
  }
  result.short_sketches = metrics.short_flow_sketches(transport.protocol);
  Time last = Time::zero();
  for (const auto* rec : metrics.flows()) {
    if (rec->long_flow) continue;
    result.rtos += rec->rto_count;
    result.syn_timeouts += rec->syn_timeouts;
    result.fast_retransmits += rec->fast_retransmits;
    if (rec->is_complete()) last = std::max(last, rec->completed_at);
  }
  result.completion_ratio =
      metrics.short_flow_completion_ratio(transport.protocol);
  result.makespan = last;
  result.long_goodput_mbps =
      metrics.long_flow_goodput_mbps(transport.protocol, sim.now());
  result.ecn_marked = total_marked_packets(ft.network());
  const PeakQueue peak = peak_switch_queue(ft.network());
  result.peak_queue_packets = peak.packets;
  result.peak_queue_at = peak.at;
  result.events_executed = sim.total_executed();
  if (trace) {
    trace->close();
    result.trace_lines = trace->lines();
    result.trace_bytes = trace->bytes_written();
  }
  return result;
}

}  // namespace mmptcp
