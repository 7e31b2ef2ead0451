#include "topo/fat_tree.h"

#include <initializer_list>
#include <string>

#include "net/ecmp.h"

namespace mmptcp {

namespace {

/// "<prefix><id>.<id>..." node names, built by appending: GCC 12 at -O3
/// misreports `"literal" + std::to_string(...)` under -Werror=restrict.
std::string node_name(const char* prefix,
                      std::initializer_list<std::uint32_t> ids) {
  std::string name = prefix;
  const char* sep = "";
  for (std::uint32_t id : ids) {
    name += sep;
    name += std::to_string(id);
    sep = ".";
  }
  return name;
}

// Routing is algorithmic (two-level routing from the Al-Fares paper,
// collapsed to address arithmetic): downward hops are fully determined by
// the destination address; upward hops pick among uplinks with hash ECMP.

class EdgeRouter final : public Router {
 public:
  EdgeRouter(std::uint32_t pod, std::uint32_t edge, std::uint32_t uplinks,
             std::uint32_t hosts)
      : pod_(pod), edge_(edge), uplinks_(uplinks), hosts_(hosts) {}

  std::size_t route(const Switch& sw, const Packet& pkt) const override {
    if (!FatTreeAddr::is_host(pkt.dst)) return sw.port_count();
    if (FatTreeAddr::pod(pkt.dst) == pod_ &&
        FatTreeAddr::edge(pkt.dst) == edge_) {
      const std::uint32_t h = FatTreeAddr::host_index(pkt.dst);
      return h < hosts_ ? h : sw.port_count();
    }
    return hosts_ + ecmp_select(sw.salt(), pkt.src, pkt.dst, pkt.sport,
                                pkt.dport, uplinks_);
  }

 private:
  std::uint32_t pod_, edge_, uplinks_, hosts_;
};

class AggRouter final : public Router {
 public:
  AggRouter(std::uint32_t pod, std::uint32_t half_k)
      : pod_(pod), half_k_(half_k) {}

  std::size_t route(const Switch& sw, const Packet& pkt) const override {
    if (!FatTreeAddr::is_host(pkt.dst)) return sw.port_count();
    if (FatTreeAddr::pod(pkt.dst) == pod_) {
      const std::uint32_t e = FatTreeAddr::edge(pkt.dst);
      return e < half_k_ ? e : sw.port_count();
    }
    return half_k_ + ecmp_select(sw.salt(), pkt.src, pkt.dst, pkt.sport,
                                 pkt.dport, half_k_);
  }

 private:
  std::uint32_t pod_, half_k_;
};

class CoreRouter final : public Router {
 public:
  explicit CoreRouter(std::uint32_t k) : k_(k) {}

  std::size_t route(const Switch& sw, const Packet& pkt) const override {
    if (!FatTreeAddr::is_host(pkt.dst)) return sw.port_count();
    const std::uint32_t p = FatTreeAddr::pod(pkt.dst);
    return p < k_ ? p : sw.port_count();
  }

 private:
  std::uint32_t k_;
};

}  // namespace

FatTree::FatTree(Simulation& sim, FatTreeConfig config)
    : config_(config), net_(sim) {
  require(config_.k >= 4 && config_.k % 2 == 0,
          "FatTree k must be even and >= 4");
  require(config_.oversubscription >= 1, "oversubscription must be >= 1");
  require(config_.k <= 254, "FatTree k too large for addressing");
  require(hosts_per_edge() <= 253, "too many hosts per edge for addressing");

  const std::uint32_t half = config_.k / 2;
  const std::uint32_t hosts = hosts_per_edge();
  // Host->edge direction uses the (deep) host queue; edge->host keeps the
  // shallow switch queue, so last-hop incast drops are preserved.
  const LinkSpec host_link{config_.link_rate_bps, config_.link_delay,
                           config_.host_queue, LinkLayer::kHostEdge,
                           config_.queue, QdiscConfig{}, config_.qdisc};
  const LinkSpec agg_link{config_.link_rate_bps, config_.link_delay,
                          config_.queue, LinkLayer::kEdgeAgg, std::nullopt,
                          config_.qdisc, std::nullopt};
  const LinkSpec core_link{config_.link_rate_bps, core_delay(),
                           config_.queue, LinkLayer::kAggCore, std::nullopt,
                           config_.qdisc, std::nullopt};

  auto maybe_shared = [&](Switch& sw, std::size_t ports) {
    if (!config_.shared_buffer) return;
    const std::uint64_t bytes =
        config_.shared_buffer_bytes != 0
            ? config_.shared_buffer_bytes
            : std::uint64_t(ports) * 100 * 1540;
    sw.enable_shared_buffer(bytes, config_.shared_buffer_alpha);
  };

  // Domain tagging happens at creation, before any port is wired.
  // Harmless when the simulation never configured domains (everything
  // collapses to the control scheduler), mandatory before add_port()
  // when it did.  Pod p's hosts, edge and agg switches run in domain p;
  // core c joins domain c % k.
  //
  // Hosts first so net_.host(i) is pod-major, edge-major, host-minor.
  for (std::uint32_t p = 0; p < config_.k; ++p) {
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t h = 0; h < hosts; ++h) {
        const Addr a = FatTreeAddr::host(p, e, h);
        net_.make_host(node_name("h", {p, e, h}), a).set_domain(p);
      }
    }
  }

  edge_base_ = 0;
  for (std::uint32_t p = 0; p < config_.k; ++p) {
    for (std::uint32_t e = 0; e < half; ++e) {
      Switch& sw = net_.make_switch(node_name("edge", {p, e}));
      sw.set_domain(p);
      maybe_shared(sw, hosts + half);
      sw.set_router(std::make_unique<EdgeRouter>(p, e, half, hosts));
    }
  }
  agg_base_ = net_.switch_count();
  for (std::uint32_t p = 0; p < config_.k; ++p) {
    for (std::uint32_t a = 0; a < half; ++a) {
      Switch& sw = net_.make_switch(node_name("agg", {p, a}));
      sw.set_domain(p);
      maybe_shared(sw, config_.k);
      sw.set_router(std::make_unique<AggRouter>(p, half));
    }
  }
  core_base_ = net_.switch_count();
  for (std::uint32_t c = 0; c < core_count(); ++c) {
    Switch& sw = net_.make_switch(node_name("core", {c}));
    sw.set_domain(c % config_.k);
    maybe_shared(sw, config_.k);
    sw.set_router(std::make_unique<CoreRouter>(config_.k));
  }

  // Host <-> edge links: edge ports [0, hosts) point at hosts in order.
  for (std::uint32_t p = 0; p < config_.k; ++p) {
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t h = 0; h < hosts; ++h) {
        net_.connect(net_.host(host_index(p, e, h)), edge_switch(p, e),
                     host_link);
      }
    }
  }
  // Edge <-> agg: edge port (hosts + a) -> agg a; agg port e -> edge e.
  for (std::uint32_t p = 0; p < config_.k; ++p) {
    for (std::uint32_t a = 0; a < half; ++a) {
      for (std::uint32_t e = 0; e < half; ++e) {
        net_.connect(edge_switch(p, e), agg_switch(p, a), agg_link);
      }
    }
  }
  // Loop order above is load-bearing: outer `a` gives every edge its
  // uplink ports in ascending agg order, inner `e` gives every agg its
  // down ports in ascending edge order — the routers index ports that way.
  //
  // Agg <-> core: agg a connects to cores [a*half, (a+1)*half); agg port
  // (half + j) -> core a*half+j; core port p -> pod p's agg a.
  for (std::uint32_t a = 0; a < half; ++a) {
    for (std::uint32_t j = 0; j < half; ++j) {
      const std::uint32_t c = a * half + j;
      for (std::uint32_t p = 0; p < config_.k; ++p) {
        net_.connect(agg_switch(p, a), core_switch(c), core_link);
      }
    }
  }
  // The inner loops give agg(p, a) its up-ports in ascending j order and
  // core c its ports in ascending pod order, matching the routers.
}

FatTreeDomainPlan FatTree::domain_plan(const FatTreeConfig& config) {
  FatTreeDomainPlan plan;
  // Every pod is one domain, so host<->edge and edge<->agg links stay
  // inside it; only agg<->core links cross, and the spine delay alone
  // bounds how soon one domain can affect another.
  const Time cross = config.core_link_delay.is_zero() ? config.link_delay
                                                      : config.core_link_delay;
  if (cross <= Time::zero()) return plan;  // zero lookahead: serial fallback
  plan.domains = config.k;
  plan.lookahead = cross;
  return plan;
}

std::size_t FatTree::host_index(std::uint32_t pod, std::uint32_t edge,
                                std::uint32_t h) const {
  return (std::size_t(pod) * edges_per_pod() + edge) * hosts_per_edge() + h;
}

Host& FatTree::host_at(std::uint32_t pod, std::uint32_t edge,
                       std::uint32_t h) {
  return net_.host(host_index(pod, edge, h));
}

Switch& FatTree::edge_switch(std::uint32_t pod, std::uint32_t e) {
  return net_.node_switch(edge_base_ + std::size_t(pod) * edges_per_pod() + e);
}

Switch& FatTree::agg_switch(std::uint32_t pod, std::uint32_t a) {
  return net_.node_switch(agg_base_ + std::size_t(pod) * aggs_per_pod() + a);
}

Switch& FatTree::core_switch(std::uint32_t c) {
  return net_.node_switch(core_base_ + c);
}

std::uint32_t FatTree::path_count(Addr a, Addr b) const {
  return path_count(a, b, config_.k);
}

std::uint32_t FatTree::path_count(Addr a, Addr b, std::uint32_t k) {
  if (!FatTreeAddr::is_host(a) || !FatTreeAddr::is_host(b)) return 0;
  if (a == b) return 0;
  const std::uint32_t half = k / 2;
  if (FatTreeAddr::pod(a) != FatTreeAddr::pod(b)) return half * half;
  if (FatTreeAddr::edge(a) != FatTreeAddr::edge(b)) return half;
  return 1;
}

}  // namespace mmptcp
