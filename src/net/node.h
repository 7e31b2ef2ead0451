#pragma once

// Base class for anything attached to the network (hosts and switches).
//
// A node owns its egress ports (ingress is implicit: channels deliver
// straight into receive()).  Ports are held by unique_ptr so their
// addresses stay stable as ports are added during topology construction.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "sim/simulation.h"

namespace mmptcp {

using NodeId = std::uint32_t;

/// A device with egress ports that can receive packets.
class Node {
 public:
  Node(Simulation& sim, NodeId id, std::string name);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Handles a packet arriving on ingress `in_port`.
  virtual void receive(Packet pkt, std::size_t in_port) = 0;

  /// Appends an egress port; returns its index.  `qdisc` selects the
  /// queueing discipline (drop-tail by default).
  std::size_t add_port(std::uint64_t rate_bps, QueueLimits limits,
                       Channel* out, LinkLayer layer,
                       SharedBufferPool* pool = nullptr,
                       QdiscConfig qdisc = QdiscConfig{});

  /// Execution domain for parallel runs.  Builders tag every node right
  /// after creation and before its ports are wired: add_port() binds the
  /// port's transmitter to the domain's scheduler.  Defaults to 0, which
  /// is the control scheduler while domains are unconfigured.
  void set_domain(std::size_t d) { domain_ = d; }
  std::size_t domain() const { return domain_; }

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  std::size_t port_count() const { return ports_.size(); }
  Port& port(std::size_t i) { return *ports_.at(i); }
  const Port& port(std::size_t i) const { return *ports_.at(i); }

 protected:
  Simulation& sim() { return sim_; }
  const Simulation& sim() const { return sim_; }

 private:
  Simulation& sim_;
  NodeId id_;
  std::string name_;
  std::size_t domain_ = 0;
  std::vector<std::unique_ptr<Port>> ports_;
};

}  // namespace mmptcp
