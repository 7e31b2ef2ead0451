#pragma once

// Metrics registry: one per simulation run.
//
// Transports report events against a flow id; benches and tests query
// summaries.  Flow ids are shard-local dense indices (shard in the high
// 8 bits) into per-shard deques, so records have stable addresses and
// O(1) lookup.  With one shard — the default — ids are plain dense
// indices, exactly the classic behaviour.
//
// Parallel runs configure one shard and one journal per execution
// domain.  Three rules then make concurrent mutation deterministic and
// race-free:
//   * on_flow_started allocates synchronously from the calling domain's
//     shard (a flow starts on its source host's scheduler), so id
//     assignment never depends on cross-domain interleaving;
//   * every other mutator appends to the calling domain's journal
//     instead of touching the record (a flow's record is written from
//     both endpoints' domains — sender retransmit state, receiver
//     delivery — which may execute concurrently);
//   * flush_journals(), called at every window barrier, applies the
//     buffered ops in the canonical (time, domain, append order) order,
//     which is identical at any worker count.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/parallel.h"
#include "stats/flow_record.h"
#include "stats/sketch.h"
#include "util/summary.h"

namespace mmptcp {

/// Streaming sketches over completed short flows of one protocol: FCT and
/// its budget decomposition, all in milliseconds.  O(1) memory regardless
/// of flow count; mergeable across shards with byte-identical state.
struct FlowSketches {
  QuantileSketch fct_ms;
  QuantileSketch handshake_ms;
  QuantileSketch rto_stall_ms;
  QuantileSketch fast_recovery_ms;
  QuantileSketch transfer_ms;
  QuantileSketch reorder_wait_ms;
  QuantileSketch ttfb_ms;
  // PS-capable protocols only (zero elsewhere); ps + mptcp sum to fct.
  QuantileSketch ps_phase_ms;
  QuantileSketch mptcp_phase_ms;

  /// Folds a completed flow record into every component sketch.
  void add(const FlowRecord& rec);
  void merge(const FlowSketches& other);
};

/// Counters a retired short-flow record folds into before its slot is
/// recycled (streaming mode).  Everything the Scenario result helpers
/// still need once the record itself is gone.
struct RetiredTotals {
  std::uint64_t flows = 0;            ///< retired (completed) short flows
  std::uint64_t delivered_bytes = 0;
  std::uint64_t rtos = 0;             ///< rto_count + syn_timeouts
  std::uint64_t flows_with_rto = 0;
  std::uint64_t spurious = 0;
};

/// Collects flow records and protocol event counters for one run.
class Metrics {
 public:
  /// Flow id layout: shard (= the starting domain) in the high bits,
  /// dense local index below.  Up to 1024 shards, 4.2M live flows each;
  /// with one shard ids are plain dense indices.
  static constexpr unsigned kShardShift = 22;
  static constexpr std::uint32_t kLocalMask = (1u << kShardShift) - 1;

  /// Splits flow storage and journals into one shard and one journal
  /// per execution domain.  Call before the first flow starts (parallel
  /// scenario setup).
  void configure_shards(std::size_t domains);
  std::size_t shard_count() const { return shards_.size(); }

  /// Applies every journaled mutation in canonical (time, domain,
  /// append-order) order.  The engine's barrier hook calls this between
  /// windows; serial runs never journal, so it is a no-op for them.
  void flush_journals();

  /// Registers a new flow and returns its record (flow_id assigned).
  FlowRecord& on_flow_started(Protocol proto, Addr src, Addr dst,
                              std::uint64_t request_bytes, bool long_flow,
                              Time now);

  FlowRecord& record(std::uint32_t flow_id);
  const FlowRecord& record(std::uint32_t flow_id) const;

  /// Receiver-side events.
  void on_delivered(std::uint32_t flow_id, std::uint64_t bytes, Time now);
  void on_flow_completed(std::uint32_t flow_id, Time now);
  /// Receiver head-of-line blocking episode ended after `wait`.
  void on_reorder_wait(std::uint32_t flow_id, Time wait);

  /// Sender-side events.
  void on_rto(std::uint32_t flow_id);
  void on_fast_retransmit(std::uint32_t flow_id);
  void on_spurious_retransmit(std::uint32_t flow_id);
  void on_syn_timeout(std::uint32_t flow_id);
  void on_data_packet_sent(std::uint32_t flow_id);
  void on_phase_switch(std::uint32_t flow_id, Time now);
  void on_subflow_used(std::uint32_t flow_id);

  /// Budget transitions (see FlowRecord): the first subflow's handshake
  /// completed; a subflow entered/left fast recovery; a retransmission
  /// timer fired after stalling since `stall_begin` (charged retroactively,
  /// clamped so overlapping subflow stalls never double count).
  void on_flow_established(std::uint32_t flow_id, Time now);
  void on_recovery_enter(std::uint32_t flow_id, Time now);
  void on_recovery_exit(std::uint32_t flow_id, Time now);
  void on_rto_stall(std::uint32_t flow_id, Time stall_begin, Time now);

  std::size_t flow_count() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) n += s.records.size();
    return n;
  }

  // ---- streaming (million-flow) mode ----
  //
  // With streaming on, completed short flows can be *retired*: their
  // counters fold into RetiredTotals (the sketches already absorbed them
  // at completion) and, once the server endpoint is gone too, the record
  // slot is recycled for a future flow.  Memory then stays O(live flows)
  // instead of O(all flows).  Flow ids are never observable by the
  // simulation (ECMP hashes the 5-tuple), so recycling does not change
  // behaviour — results are byte-identical to the non-streaming run.
  void set_streaming(bool on) { streaming_ = on; }
  bool streaming() const { return streaming_; }

  /// Folds a completed short flow into the retired aggregates and queues
  /// its slot for recycling.  Call only when the client side is finished;
  /// the slot stays valid (marked retired) until recycle_before().
  void retire(std::uint32_t flow_id);

  /// Recycles retired slots whose flow completed before `cutoff`.  Call
  /// only after the server endpoints for those flows were destroyed
  /// (Sink::gc with the same cutoff) — afterwards the ids may be handed
  /// to new flows.
  void recycle_before(Time cutoff);

  const RetiredTotals& retired() const { return retired_; }
  /// Retired (completed) short flows of `proto`.
  std::uint64_t retired_short_flows(Protocol proto) const;

  /// Short flows ever started / completed, retired ones included.
  /// O(shards); the scenario stop condition uses these instead of
  /// scanning records.
  std::uint64_t short_flows_started() const {
    std::uint64_t n = 0;
    for (const Shard& s : shards_) n += s.short_started;
    return n;
  }
  std::uint64_t short_flows_completed() const { return short_completed_; }

  /// All records matching `pred` (nullptr = all).
  std::vector<const FlowRecord*> flows(
      const std::function<bool(const FlowRecord&)>& pred = nullptr) const;

  /// FCTs (milliseconds) of completed short flows of `proto`.
  Summary short_flow_fct_ms(Protocol proto) const;

  /// Goodput (Mbit/s) of long flows of `proto`, measured to `now`.
  Summary long_flow_goodput_mbps(Protocol proto, Time now) const;

  /// Completed short flows / total short flows for `proto`.
  double short_flow_completion_ratio(Protocol proto) const;

  /// Sum of a counter over flows matching `pred`.
  std::uint64_t total(
      const std::function<std::uint64_t(const FlowRecord&)>& field,
      const std::function<bool(const FlowRecord&)>& pred = nullptr) const;

  /// Streaming FCT/budget sketches over completed short flows of `proto`
  /// (an empty set of sketches when none completed).
  const FlowSketches& short_flow_sketches(Protocol proto) const;

 private:
  /// One domain's flow storage (single shard when serial).
  struct Shard {
    std::deque<FlowRecord> records;
    std::vector<std::uint32_t> free_slots;  ///< recycled local indices
    std::uint64_t short_started = 0;
  };

  /// One buffered mutation.  `at` is the ambient event time when the op
  /// was journaled — the canonical primary sort key at flush.
  struct MetricOp {
    enum class Kind : std::uint8_t {
      kDelivered, kCompleted, kReorderWait, kRto, kFastRetransmit,
      kSpurious, kSynTimeout, kDataSent, kPhaseSwitch, kSubflowUsed,
      kEstablished, kRecoveryEnter, kRecoveryExit, kRtoStall,
    };
    Time at;
    Time t2;               ///< wait (ReorderWait) / stall_begin (RtoStall)
    std::uint64_t a = 0;   ///< bytes (Delivered)
    std::uint32_t flow = 0;
    Kind kind{};
  };

  static constexpr std::uint32_t encode_id(std::size_t shard,
                                           std::uint32_t local) {
    return static_cast<std::uint32_t>(shard << kShardShift) | local;
  }

  /// Buffers `op` when called from inside a domain window of a sharded
  /// run; returns false (caller applies immediately) otherwise.
  bool journal(MetricOp::Kind kind, std::uint32_t flow, Time t2 = Time::zero(),
               std::uint64_t a = 0) {
    const int d = par::current_domain();
    if (d < 0 || static_cast<std::size_t>(d) >= journals_.size()) return false;
    journals_[d].push_back(
        MetricOp{par::tls_scheduler->now(), t2, a, flow, kind});
    return true;
  }

  /// Position of one journaled op in the canonical flush order.
  struct OpRef {
    Time at;
    std::uint32_t domain;
    std::uint32_t idx;  ///< append order within the domain's journal
  };

  void apply(const MetricOp& op);

  void apply_delivered(std::uint32_t flow_id, std::uint64_t bytes, Time now);
  void apply_completed(std::uint32_t flow_id, Time now);
  void apply_reorder_wait(std::uint32_t flow_id, Time wait);
  void apply_established(std::uint32_t flow_id, Time now);
  void apply_recovery_enter(std::uint32_t flow_id, Time now);
  void apply_recovery_exit(std::uint32_t flow_id, Time now);
  void apply_rto_stall(std::uint32_t flow_id, Time stall_begin, Time now);
  void apply_phase_switch(std::uint32_t flow_id, Time now);

  /// Charges [budget_since, now) to the open bucket and opens `next`.
  static void close_budget_bucket(FlowRecord& rec, Time now, BudgetState next);

  std::vector<Shard> shards_{1};
  std::vector<std::vector<MetricOp>> journals_;  ///< one per domain
  std::vector<OpRef> flush_order_;               ///< scratch for flush
  std::map<Protocol, FlowSketches> short_sketches_;

  bool streaming_ = false;
  RetiredTotals retired_;
  std::map<Protocol, std::uint64_t> retired_by_proto_;
  /// Retired slots not yet recyclable: (completed_at, flow_id), in
  /// retirement order (completion times are non-decreasing across
  /// periodic checks, so a prefix scan suffices).
  std::deque<std::pair<Time, std::uint32_t>> retire_queue_;
  std::uint64_t short_completed_ = 0;
};

}  // namespace mmptcp
