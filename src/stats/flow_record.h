#pragma once

// Per-flow bookkeeping shared by all transports.
//
// Completion is recorded when the *receiver* has the whole byte stream
// (matching how flow completion time is normally measured in datacenter
// transport papers); RTO / retransmission counters are incremented by the
// sender-side machinery.

#include <cstdint>
#include <string>

#include "net/address.h"
#include "sim/time.h"

namespace mmptcp {

/// Transport protocol of a flow, as selected by the TransportFactory.
enum class Protocol : std::uint8_t {
  kTcp,            ///< single-path TCP NewReno
  kMptcp,          ///< MPTCP with N subflows from the start
  kPacketScatter,  ///< MMPTCP that never leaves the PS phase (baseline)
  kMmptcp,         ///< the paper's hybrid: PS phase then MPTCP phase
  kDctcp,          ///< single-path DCTCP (needs an ECN-marking qdisc)
  kMptcpDctcp,     ///< MPTCP with per-subflow DCTCP ECN reaction
  kMmptcpDctcp,    ///< MMPTCP, all subflows (PS included) ECN-aware
};

std::string to_string(Protocol p);

/// True for the protocols that start in the packet-scatter phase.
constexpr bool has_ps_phase(Protocol p) {
  return p == Protocol::kPacketScatter || p == Protocol::kMmptcp ||
         p == Protocol::kMmptcpDctcp;
}

/// Which budget bucket a flow's elapsed time is currently charged to.
/// Exactly one bucket is open at any instant, so for completed flows the
/// buckets partition [start, completed_at] with no gap or overlap.
enum class BudgetState : std::uint8_t {
  kHandshake,     ///< waiting for the first subflow's SYN-ACK
  kTransfer,      ///< nominal data transfer (includes queueing delay)
  kFastRecovery,  ///< at least one subflow in fast recovery
  kDone,          ///< flow completed; budget frozen
};

/// Everything we track about one flow.
struct FlowRecord {
  std::uint32_t flow_id = 0;
  Protocol protocol = Protocol::kTcp;
  Addr src;
  Addr dst;
  std::uint64_t request_bytes = 0;  ///< 0 = unbounded (long background flow)
  bool long_flow = false;

  Time start;                        ///< client initiated the connection
  Time completed_at = Time::max();   ///< receiver held all bytes
  std::uint64_t delivered_bytes = 0; ///< receiver-side in-order bytes
  /// Folded into Metrics' retired aggregates (streaming mode); the slot
  /// is awaiting recycling and queries must skip it.
  bool retired = false;

  std::uint32_t rto_count = 0;
  std::uint32_t fast_retransmits = 0;
  std::uint32_t spurious_retransmits = 0;
  std::uint32_t syn_timeouts = 0;
  std::uint32_t packets_sent = 0;     ///< data segments (incl. rtx)
  std::uint32_t subflows_used = 0;    ///< subflows that carried data
  Time phase_switch_at = Time::max(); ///< MMPTCP PS->MPTCP switch

  // Flow-time budget: where the flow's wall-clock went.  The four Time
  // buckets are exclusive and, once the flow completes, sum exactly to
  // fct().  RTO stalls are attributed retroactively when the timer fires
  // (clamped to budget_since so overlapping subflow stalls never double
  // count); t_transfer absorbs everything not otherwise attributed, which
  // in an incast is dominated by queueing delay.
  Time t_handshake;      ///< connect/handshake time (minus timer stalls)
  Time t_rto_stall;      ///< idle in RTO/SYN timer waits (incl. handshake)
  Time t_fast_recovery;  ///< some subflow in dupack-triggered recovery
  Time t_transfer;       ///< the remainder: transmission + queueing
  BudgetState budget_state = BudgetState::kHandshake;
  Time budget_since;                 ///< when the open bucket was opened
  std::uint32_t recovery_depth = 0;  ///< subflows currently in recovery

  // Overlay timings: informational, NOT part of the additive partition.
  Time first_byte_at = Time::max();  ///< receiver got the first payload byte
  Time t_reorder_wait;  ///< receiver head-of-line blocking (scatter penalty)

  bool is_complete() const { return completed_at != Time::max(); }
  bool switched_phase() const { return phase_switch_at != Time::max(); }

  /// Flow completion time; only meaningful when is_complete().
  Time fct() const { return completed_at - start; }

  /// Sum of the budget buckets; equals fct() once complete.
  Time budget_total() const {
    return t_handshake + t_rto_stall + t_fast_recovery + t_transfer;
  }

  bool saw_first_byte() const { return first_byte_at != Time::max(); }
  /// Time to first byte at the receiver; only when saw_first_byte().
  Time ttfb() const { return first_byte_at - start; }

  /// Time spent in the packet-scatter phase (PS-capable protocols); the
  /// whole flow when the switch never happened.  Only once complete.
  Time ps_phase_time() const {
    return (switched_phase() ? phase_switch_at : completed_at) - start;
  }
  /// Time spent in the MPTCP phase after the switch; only once complete.
  Time mptcp_phase_time() const {
    return switched_phase() ? completed_at - phase_switch_at : Time::zero();
  }
};

}  // namespace mmptcp
