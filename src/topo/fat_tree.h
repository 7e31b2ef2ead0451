#pragma once

// k-ary FatTree (Al-Fares et al., SIGCOMM 2008) with an oversubscription
// knob — the paper's evaluation topology ("4:1 over-subscribed FatTree
// consisting of 512 servers" = k=8 with 16 hosts per edge switch).
//
// Layout for even k:
//   * k pods; each pod has k/2 edge and k/2 aggregation switches;
//   * every edge connects to every aggregation switch in its pod;
//   * (k/2)^2 core switches; aggregation switch a (in every pod) connects
//     to cores [a*k/2, (a+1)*k/2);
//   * each edge switch serves `oversubscription * k/2` hosts, so the
//     host:uplink capacity ratio at the edge is `oversubscription`:1.
//
// Addressing packs (pod, edge, host) into an IPv4-like value
// 10.pod.edge.(host+2); switches route *algorithmically* from the packed
// fields — downward hops are deterministic, upward hops use hash-based
// ECMP.  path_count() derives the number of equal-cost paths from the
// addresses alone, which is exactly the topology information the paper
// proposes end hosts exploit for the dynamic dup-ACK threshold.

#include <cstdint>

#include "topo/network.h"

namespace mmptcp {

/// FatTree construction parameters.
struct FatTreeConfig {
  std::uint32_t k = 4;                  ///< even, >= 4
  std::uint32_t oversubscription = 1;   ///< hosts per edge = this * k/2
  std::uint64_t link_rate_bps = 100'000'000;
  Time link_delay = Time::micros(20);
  /// Propagation delay of agg<->core links; zero means link_delay.  It
  /// is also the conservative lookahead of a decomposed run: agg<->core
  /// links are the only ones that cross domains.
  Time core_link_delay = Time::zero();
  QueueLimits queue{100, 0};
  /// Host egress queue.  Default unbounded: a real sender's NIC ring gets
  /// OS backpressure instead of dropping its own bursts; loss then happens
  /// where the paper studies it — at the shallow switch ports.
  QueueLimits host_queue{0, 0};
  bool shared_buffer = false;           ///< model shared-memory switches
  std::uint64_t shared_buffer_bytes = 0;  ///< 0 = ports * 100 * 1540
  double shared_buffer_alpha = 1.0;     ///< dynamic-threshold alpha
  /// Queueing discipline on every *switch* egress port (host NICs keep
  /// drop-tail: marking/priority model in-network mechanisms).
  QdiscConfig qdisc{};
};

/// Host address <-> (pod, edge, host) packing helpers.
struct FatTreeAddr {
  static constexpr std::uint32_t kPrefix = 10;

  static Addr host(std::uint32_t pod, std::uint32_t edge, std::uint32_t h) {
    return Addr{kPrefix << 24 | pod << 16 | edge << 8 | (h + 2)};
  }
  static bool is_host(Addr a) {
    return (a.raw >> 24) == kPrefix && (a.raw & 0xff) >= 2;
  }
  static std::uint32_t pod(Addr a) { return (a.raw >> 16) & 0xff; }
  static std::uint32_t edge(Addr a) { return (a.raw >> 8) & 0xff; }
  static std::uint32_t host_index(Addr a) { return (a.raw & 0xff) - 2; }
};

/// How a FatTree decomposes into parallel execution domains: one per
/// pod (its hosts, edge and aggregation switches), with core switch c
/// in domain c % k so the spine spreads evenly.  A channel crosses
/// domains iff its endpoints' domains differ, so only agg<->core links
/// cross and the lookahead is the spine delay.
struct FatTreeDomainPlan {
  std::size_t domains = 1;      ///< 1 = not partitionable, run serial
  Time lookahead = Time::zero();  ///< min cross-domain delay when > 1
};

/// Builder/owner of a FatTree network.
class FatTree : public PathOracle {
 public:
  FatTree(Simulation& sim, FatTreeConfig config);

  /// The decomposition this config yields, computable before the
  /// topology is built (the simulation must configure its domains
  /// before any node is wired).  Returns a single-domain plan — the
  /// serial fallback — when the spine delay is zero: conservative
  /// execution needs strictly positive lookahead.
  static FatTreeDomainPlan domain_plan(const FatTreeConfig& config);

  /// Effective agg<->core propagation delay.
  Time core_delay() const {
    return config_.core_link_delay.is_zero() ? config_.link_delay
                                             : config_.core_link_delay;
  }

  Network& network() { return net_; }
  const FatTreeConfig& config() const { return config_; }

  std::uint32_t k() const { return config_.k; }
  std::uint32_t pods() const { return config_.k; }
  std::uint32_t edges_per_pod() const { return config_.k / 2; }
  std::uint32_t aggs_per_pod() const { return config_.k / 2; }
  std::uint32_t hosts_per_edge() const {
    return config_.oversubscription * config_.k / 2;
  }
  std::uint32_t core_count() const { return (config_.k / 2) * (config_.k / 2); }
  std::size_t host_count() const { return net_.host_count(); }

  Host& host(std::size_t i) { return net_.host(i); }
  Host& host_at(std::uint32_t pod, std::uint32_t edge, std::uint32_t h);
  Switch& edge_switch(std::uint32_t pod, std::uint32_t e);
  Switch& agg_switch(std::uint32_t pod, std::uint32_t a);
  Switch& core_switch(std::uint32_t c);

  /// Equal-cost path count between two host addresses:
  /// 0 (same host), 1 (same edge), k/2 (same pod), (k/2)^2 (inter-pod).
  std::uint32_t path_count(Addr a, Addr b) const override;

  /// Static version usable without an instance.
  static std::uint32_t path_count(Addr a, Addr b, std::uint32_t k);

 private:
  std::size_t host_index(std::uint32_t pod, std::uint32_t edge,
                         std::uint32_t h) const;

  FatTreeConfig config_;
  Network net_;
  // Switch indices into net_: edges then aggs (pod-major), then cores.
  std::size_t edge_base_ = 0, agg_base_ = 0, core_base_ = 0;
};

}  // namespace mmptcp
