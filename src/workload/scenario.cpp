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
  // sim_threads); dual-homed stays serial until it grows a plan.  The
  // incast pattern stays serial too: its work converges on the
  // receiver's pod, so windows would buy no parallelism, and the serial
  // schedule keeps the gated incast results stable.
  const bool incast = cfg_.incast_senders > 0;
  if (!cfg_.dual_homed && !incast) {
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
                 cfg_.dual_homed ? "dual-homed"
                 : incast        ? "incast"
                                 : "zero lookahead");
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
  if (incast) {
    const std::size_t needed = std::size_t{cfg_.incast_senders} +
                               cfg_.incast_elephants + rack_hosts();
    require(needed <= n,
            "incast needs enough hosts outside the receiver's rack");
    return;
  }
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

std::size_t Scenario::rack_hosts() const {
  return ft_ ? ft_->hosts_per_edge() : dh_->hosts_per_pair();
}

void Scenario::run() {
  if (cfg_.incast_senders > 0) {
    start_incast();
  } else {
    if (cfg_.start_long_flows && !long_hosts_.empty()) start_long_flows();
    for (std::size_t i = 0; i < short_hosts_.size(); ++i) {
      schedule_short_arrival(i);
    }
    sim_.control_scheduler().schedule(cfg_.check_interval,
                                      [this] { periodic_check(); });
  }
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
  if (trace_) trace_->close();
}

void Scenario::start_incast() {
  // Senders start after the receiver's rack, so every flow crosses the
  // fabric and converges on one access link.
  const std::size_t first = rack_hosts();
  const auto burst = [this, first] {
    for (std::uint32_t i = 0; i < cfg_.incast_senders; ++i) {
      Host& src = host(first + i);
      flows_for(src).push_back(std::make_unique<ClientFlow>(
          sim_, metrics_, src, host(0).addr(), transport_,
          cfg_.short_flow_bytes, /*long_flow=*/false));
    }
  };
  if (cfg_.incast_start > Time::zero()) {
    sim_.control_scheduler().schedule_at(cfg_.incast_start, burst);
  } else {
    burst();
  }
  for (std::uint32_t i = 0; i < cfg_.incast_elephants; ++i) {
    Host& src = host(first + cfg_.incast_senders + i);
    flows_for(src).push_back(std::make_unique<ClientFlow>(
        sim_, metrics_, src, host(0).addr(), long_transport_,
        ClientFlow::kLongFlow, /*long_flow=*/true));
  }
  // Elephants never finish, so only then does the run need a stop poll.
  if (cfg_.incast_elephants > 0) {
    sim_.control_scheduler().schedule(cfg_.check_interval,
                                      [this] { periodic_check(); });
  }
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
    std::size_t dst = rng.uniform(rack_hosts());
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
  bool done = false;
  if (cfg_.incast_senders > 0) {
    // The burst reaps nothing: it is bounded by its sender count, and a
    // finished MPTCP subflow can still exchange FIN packets that reaping
    // would cancel.
    done = metrics_.short_flows_completed() >= cfg_.incast_senders;
  } else {
    const Time gc_cutoff = sim_.now() - cfg_.server_linger;
    sinks_->gc(gc_cutoff);
    for (auto& list : flows_) {
      std::erase_if(list, [this](const std::unique_ptr<ClientFlow>& f) {
        const FlowRecord& rec = metrics_.record(f->flow_id());
        const bool reap =
            !rec.long_flow && rec.is_complete() && f->finished();
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
    done = shorts_started() >= cfg_.short_flow_count &&
           metrics_.short_flows_started() >= cfg_.short_flow_count &&
           metrics_.short_flows_completed() ==
               metrics_.short_flows_started();
  }
  if (done) {
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

std::uint64_t Scenario::short_syn_timeouts() const {
  return metrics_.retired().syn_timeouts +
         metrics_.total(
             [](const FlowRecord& r) { return std::uint64_t(r.syn_timeouts); },
             [](const FlowRecord& r) { return !r.long_flow; });
}

std::uint64_t Scenario::short_fast_retransmits() const {
  return metrics_.retired().fast_retransmits +
         metrics_.total(
             [](const FlowRecord& r) {
               return std::uint64_t(r.fast_retransmits);
             },
             [](const FlowRecord& r) { return !r.long_flow; });
}

Time Scenario::makespan() const {
  Time last = metrics_.retired().last_completed;
  for (const auto* rec : metrics_.flows()) {
    if (!rec->long_flow && rec->is_complete()) {
      last = std::max(last, rec->completed_at);
    }
  }
  return last;
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

}  // namespace mmptcp
