#pragma once

// Egress ports and unidirectional channels.
//
// A Port owns the queueing discipline and the transmitter state machine of
// one network interface: store-and-forward, one packet serialising at a
// time at the channel rate.  The discipline is pluggable (net/qdisc/):
// drop-tail by default, ECN-marking or strict-priority when the topology
// asks for them.  A Channel carries fully-serialised packets to the peer
// node after a fixed propagation delay; the packet travels inside the
// scheduler event itself (EventFn stores a Packet-sized capture inline),
// so delivery allocates nothing and needs no side queue.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/queue.h"
#include "sim/scheduler.h"
#include "util/logging.h"

namespace mmptcp {

class Node;
class Simulation;
class TraceRecorder;

/// Where a link sits in the datacenter hierarchy (for loss accounting).
enum class LinkLayer : std::uint8_t {
  kHostEdge,     ///< host <-> edge(ToR) links
  kEdgeAgg,      ///< edge <-> aggregation links ("aggregation layer")
  kAggCore,      ///< aggregation <-> core links ("core layer")
  kOther,
};

std::string to_string(LinkLayer layer);

/// Monotonic counters exposed by every port (read by the stats module).
struct PortCounters {
  std::uint64_t enqueued_packets = 0;
  std::uint64_t enqueued_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t injected_drops = 0;  ///< test-hook forced drops
};

class Channel;

/// Buffer of cross-domain deliveries emitted by one source domain during
/// one parallel window (the network keeps one per source and destination
/// domain).  Single-writer (only that domain's worker posts) and drained
/// by the barrier: entries bound for one destination are sorted by
/// (arrival time, source domain, emission seq) and inserted into its
/// scheduler in that canonical order, so event sequence numbers — and
/// therefore the whole run — do not depend on the worker count.
class CrossDomainOutbox {
 public:
  struct Entry {
    Time at;                    ///< arrival time at the destination
    std::uint64_t seq = 0;      ///< emission order within this outbox
    Channel* channel = nullptr;
    Packet pkt;
  };

  void post(Time at, Channel* channel, const Packet& pkt) {
    entries_.push_back(Entry{at, next_seq_++, channel, pkt});
  }

  std::vector<Entry>& entries() { return entries_; }
  void clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

/// Unidirectional wire: fixed rate (modelled at the Port) and delay.
class Channel {
 public:
  /// `sched` is the scheduler arrivals are inserted into — the receiving
  /// node's domain scheduler in parallel runs.
  Channel(Scheduler& sched, Time propagation_delay);

  /// Sets the receiving node and its ingress port index (wiring step).
  void attach_sink(Node* dst, std::size_t dst_port);

  /// Marks this channel as crossing domains: deliveries are buffered in
  /// `outbox` (arrival times read off the emitting side's `src_sched`)
  /// and inserted at the next barrier instead of being scheduled
  /// directly.
  void make_cross_domain(const Scheduler& src_sched,
                         CrossDomainOutbox* outbox) {
    src_sched_ = &src_sched;
    outbox_ = outbox;
  }
  bool cross_domain() const { return outbox_ != nullptr; }

  /// Accepts a fully-serialised packet; delivers it after the delay.
  void deliver(Packet pkt);

  /// Barrier-time insertion of a delivery buffered by deliver().
  void deliver_at(Time at, const Packet& pkt);

  Time propagation_delay() const { return delay_; }
  Node* sink() const { return dst_; }

 private:
  Scheduler& sched_;
  Time delay_;
  Node* dst_ = nullptr;
  std::size_t dst_port_ = 0;
  const Scheduler* src_sched_ = nullptr;  ///< set on cross-domain channels
  CrossDomainOutbox* outbox_ = nullptr;
};

/// Egress interface: queue + serialising transmitter feeding a Channel.
class Port {
 public:
  /// Called on every drop with the dropped packet (optional, for tests).
  using DropFilter = std::function<bool(const Packet&, std::uint64_t index)>;

  /// Takes the Simulation (not just its scheduler) so the port can pick
  /// up the cross-cutting services: the flight recorder's queue channel
  /// and the qdisc component logger.  `sched` is the owning node's
  /// domain scheduler, where transmit-completion events run.
  Port(Simulation& sim, Scheduler& sched, std::string name,
       std::uint64_t rate_bps, QueueLimits limits, Channel* out,
       LinkLayer layer, SharedBufferPool* pool = nullptr,
       QdiscConfig qdisc = QdiscConfig{});

  /// Enqueues for transmission; drops (and counts) when the queue is full
  /// or the injected drop filter matches.  By value: callers that own
  /// their copy (every forwarding hop) move it straight into the qdisc.
  void enqueue(Packet pkt);

  const PortCounters& counters() const { return counters_; }
  LinkLayer layer() const { return layer_; }
  std::uint64_t rate_bps() const { return rate_bps_; }
  const std::string& name() const { return name_; }
  std::size_t queue_packets() const { return queue_->size_packets(); }
  std::uint64_t queue_bytes() const { return queue_->size_bytes(); }
  /// The installed queueing discipline (marks, peak occupancy, bands).
  const Qdisc& qdisc() const { return *queue_; }

  /// Test hook: every would-be-enqueued packet is offered to `filter`;
  /// returning true forces a drop.  Pass nullptr to clear.
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

 private:
  void maybe_start_tx();
  void on_tx_done();

  Scheduler& sched_;
  std::string name_;
  std::uint64_t rate_bps_;
  std::unique_ptr<Qdisc> queue_;
  Channel* out_;
  LinkLayer layer_;
  TraceRecorder* trace_;          ///< queue channel, or null (cached once)
  std::uint64_t traced_marks_ = 0;  ///< qdisc mark count already traced
  Logger log_;
  PortCounters counters_;
  DropFilter drop_filter_;
  std::uint64_t offer_index_ = 0;  ///< packets offered so far (for filters)
  bool transmitting_ = false;
  Packet in_tx_{};
};

}  // namespace mmptcp
