#pragma once

// Network: the container that owns every node and channel of a topology.
//
// Topology builders (FatTree, DualHomedFatTree) create nodes through the
// factory methods and wire them with connect(), which builds the two
// unidirectional channels and egress ports of a full-duplex link.  Stats
// collection walks all ports through for_each_port().

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/host.h"
#include "net/switch.h"

namespace mmptcp {

/// Interface for topologies that can report equal-cost path counts
/// (consumed by MMPTCP's topology-aware dup-ACK threshold).
class PathOracle {
 public:
  virtual ~PathOracle() = default;
  /// Number of equal-cost paths between two host addresses (0 if equal).
  virtual std::uint32_t path_count(Addr a, Addr b) const = 0;
};

/// Parameters of one full-duplex link.  `queue` bounds the egress queue at
/// endpoint `a`; `queue_b` (if set) overrides the bound at endpoint `b` —
/// used for host<->switch links where the host side models OS
/// backpressure (unbounded) while the switch port stays shallow.
struct LinkSpec {
  std::uint64_t rate_bps = 100'000'000;
  Time delay = Time::micros(20);
  QueueLimits queue{};
  LinkLayer layer = LinkLayer::kOther;
  std::optional<QueueLimits> queue_b{};
  /// Queueing discipline at endpoint `a` (drop-tail by default) and an
  /// optional override at endpoint `b` — mirrors queue / queue_b.
  QdiscConfig qdisc{};
  std::optional<QdiscConfig> qdisc_b{};
};

/// Owns nodes and channels; provides wiring and iteration.
class Network {
 public:
  explicit Network(Simulation& sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Creates a host with the given address.
  Host& make_host(std::string name, Addr addr);

  /// Creates a switch (router installed separately by the builder).
  Switch& make_switch(std::string name);

  /// Wires a full-duplex link a<->b; both directions share the spec.
  /// If an endpoint is a switch with a shared buffer enabled, its egress
  /// port draws from that switch's pool.  Each direction's channel
  /// inserts arrivals into the *receiving* node's domain scheduler; when
  /// the endpoints live in different domains (and the simulation has
  /// domains configured) the channel is routed through the emitting
  /// domain's outbox and registered as a cross-domain edge.
  void connect(Node& a, Node& b, const LinkSpec& spec);

  /// Drains every domain's outboxes into the destination schedulers in
  /// the canonical (arrival time, source domain, emission seq) order.
  /// Cheap no-op when nothing crossed.
  void flush_cross_domain();

  /// The part of flush_cross_domain() bound for execution domain `dst`:
  /// the same deliveries into that domain's scheduler, in the same
  /// order.  Calls for different domains touch disjoint outboxes and
  /// schedulers, so they may run concurrently — the engine's per-domain
  /// barrier hook calls this.
  void flush_cross_domain_into(std::size_t dst);

  /// Minimum propagation delay over cross-domain channels — the
  /// conservative lookahead.  Time::max() when no channel crosses.
  Time min_cross_domain_delay() const { return cross_delay_min_; }
  std::size_t cross_domain_channel_count() const { return cross_channels_; }

  /// Sum of Switch::unroutable() over all switches: packets whose route
  /// fell off the table.  Surfaced into results as a hard canary — any
  /// nonzero value means a routing bug silently vanished traffic.
  std::uint64_t unroutable_total() const;

  std::size_t host_count() const { return hosts_.size(); }
  std::size_t switch_count() const { return switches_.size(); }
  Host& host(std::size_t i) { return *hosts_.at(i); }
  const Host& host(std::size_t i) const { return *hosts_.at(i); }
  Switch& node_switch(std::size_t i) { return *switches_.at(i); }
  const Switch& node_switch(std::size_t i) const { return *switches_.at(i); }

  /// Invokes `fn` for every egress port in the network.
  void for_each_port(const std::function<void(const Node&, const Port&)>& fn) const;

  Simulation& sim() { return sim_; }

 private:
  /// Outbox from domain `src` to domain `dst`, created on demand.
  CrossDomainOutbox& outbox(std::size_t src, std::size_t dst);

  struct FlushRef {
    Time at;
    std::size_t src;  ///< emitting domain
    std::uint64_t seq;
    CrossDomainOutbox::Entry* entry;
  };

  Simulation& sim_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Channel>> channels_;
  /// One outbox per (emitting domain, destination domain) pair: only
  /// the emitting domain's worker posts to it, and splitting by
  /// destination lets each destination drain on its own thread.
  std::vector<std::unique_ptr<CrossDomainOutbox>> outboxes_;
  struct Inbound {
    std::size_t src;  ///< emitting domain
    CrossDomainOutbox* box;
  };
  /// Per destination domain: the outboxes delivering into it.
  std::vector<std::vector<Inbound>> inbound_;
  /// Per destination: sort scratch, so concurrent drains never share.
  std::vector<std::vector<FlushRef>> flush_scratch_;
  Time cross_delay_min_ = Time::max();
  std::size_t cross_channels_ = 0;
  NodeId next_id_ = 0;
};

}  // namespace mmptcp
