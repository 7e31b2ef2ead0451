#include "stats/metrics.h"

#include <algorithm>

#include "util/check.h"

namespace mmptcp {

namespace {

Time& open_bucket(FlowRecord& rec) {
  switch (rec.budget_state) {
    case BudgetState::kHandshake:
      return rec.t_handshake;
    case BudgetState::kFastRecovery:
      return rec.t_fast_recovery;
    default:
      return rec.t_transfer;
  }
}

}  // namespace

void FlowSketches::add(const FlowRecord& rec) {
  fct_ms.add(rec.fct().to_millis());
  handshake_ms.add(rec.t_handshake.to_millis());
  rto_stall_ms.add(rec.t_rto_stall.to_millis());
  fast_recovery_ms.add(rec.t_fast_recovery.to_millis());
  transfer_ms.add(rec.t_transfer.to_millis());
  reorder_wait_ms.add(rec.t_reorder_wait.to_millis());
  ttfb_ms.add(rec.saw_first_byte() ? rec.ttfb().to_millis() : 0.0);
  if (has_ps_phase(rec.protocol)) {
    ps_phase_ms.add(rec.ps_phase_time().to_millis());
    mptcp_phase_ms.add(rec.mptcp_phase_time().to_millis());
  }
}

void FlowSketches::merge(const FlowSketches& other) {
  fct_ms.merge(other.fct_ms);
  handshake_ms.merge(other.handshake_ms);
  rto_stall_ms.merge(other.rto_stall_ms);
  fast_recovery_ms.merge(other.fast_recovery_ms);
  transfer_ms.merge(other.transfer_ms);
  reorder_wait_ms.merge(other.reorder_wait_ms);
  ttfb_ms.merge(other.ttfb_ms);
  ps_phase_ms.merge(other.ps_phase_ms);
  mptcp_phase_ms.merge(other.mptcp_phase_ms);
}

void Metrics::configure_shards(std::size_t domains) {
  check(domains >= 1, "Metrics needs at least one shard");
  check(domains <= 0x3ff, "too many shards for the flow-id encoding");
  check(flow_count() == 0, "configure_shards after flows started");
  shards_.assign(domains, Shard{});
  journals_.assign(domains, std::vector<MetricOp>{});
}

FlowRecord& Metrics::on_flow_started(Protocol proto, Addr src, Addr dst,
                                     std::uint64_t request_bytes,
                                     bool long_flow, Time now) {
  // Allocate from the calling domain's shard: a flow starts on its
  // source host's scheduler, so ids never depend on how concurrent
  // windows interleave and no two threads share a shard.  Outside a
  // domain window (serial runs, incast, control events) it is shard 0.
  const int d = par::current_domain();
  const std::size_t s =
      d >= 0 && static_cast<std::size_t>(d) < shards_.size() ? d : 0;
  Shard& shard = shards_[s];
  if (!long_flow) ++shard.short_started;
  FlowRecord rec;
  rec.protocol = proto;
  rec.src = src;
  rec.dst = dst;
  rec.request_bytes = request_bytes;
  rec.long_flow = long_flow;
  rec.start = now;
  rec.budget_since = now;
  if (!shard.free_slots.empty()) {
    const std::uint32_t local = shard.free_slots.back();
    shard.free_slots.pop_back();
    rec.flow_id = encode_id(s, local);
    shard.records[local] = rec;
    return shard.records[local];
  }
  const std::uint32_t local = static_cast<std::uint32_t>(shard.records.size());
  check(local <= kLocalMask, "per-shard flow-id space exhausted");
  rec.flow_id = encode_id(s, local);
  shard.records.push_back(rec);
  return shard.records.back();
}

void Metrics::retire(std::uint32_t flow_id) {
  check(streaming_, "Metrics::retire without streaming mode");
  FlowRecord& rec = record(flow_id);
  check(!rec.long_flow && rec.is_complete() && !rec.retired,
        "retire needs a completed, unretired short flow");
  ++retired_.flows;
  retired_.delivered_bytes += rec.delivered_bytes;
  retired_.rtos += std::uint64_t(rec.rto_count) + rec.syn_timeouts;
  if (rec.rto_count + rec.syn_timeouts > 0) ++retired_.flows_with_rto;
  retired_.spurious += rec.spurious_retransmits;
  ++retired_by_proto_[rec.protocol];
  rec.retired = true;
  retire_queue_.emplace_back(rec.completed_at, flow_id);
}

void Metrics::recycle_before(Time cutoff) {
  while (!retire_queue_.empty() && retire_queue_.front().first < cutoff) {
    const std::uint32_t id = retire_queue_.front().second;
    shards_[id >> kShardShift].free_slots.push_back(id & kLocalMask);
    retire_queue_.pop_front();
  }
}

std::uint64_t Metrics::retired_short_flows(Protocol proto) const {
  const auto it = retired_by_proto_.find(proto);
  return it == retired_by_proto_.end() ? 0 : it->second;
}

FlowRecord& Metrics::record(std::uint32_t flow_id) {
  const std::size_t s = flow_id >> kShardShift;
  const std::uint32_t local = flow_id & kLocalMask;
  check(s < shards_.size() && local < shards_[s].records.size(),
        "unknown flow id");
  return shards_[s].records[local];
}

const FlowRecord& Metrics::record(std::uint32_t flow_id) const {
  const std::size_t s = flow_id >> kShardShift;
  const std::uint32_t local = flow_id & kLocalMask;
  check(s < shards_.size() && local < shards_[s].records.size(),
        "unknown flow id");
  return shards_[s].records[local];
}

void Metrics::flush_journals() {
  flush_order_.clear();
  for (std::size_t d = 0; d < journals_.size(); ++d) {
    for (std::size_t i = 0; i < journals_[d].size(); ++i) {
      flush_order_.push_back(OpRef{journals_[d][i].at,
                                   static_cast<std::uint32_t>(d),
                                   static_cast<std::uint32_t>(i)});
    }
  }
  if (flush_order_.empty()) return;
  std::sort(flush_order_.begin(), flush_order_.end(),
            [](const OpRef& x, const OpRef& y) {
              if (x.at != y.at) return x.at < y.at;
              if (x.domain != y.domain) return x.domain < y.domain;
              return x.idx < y.idx;
            });
  for (const OpRef& ref : flush_order_) apply(journals_[ref.domain][ref.idx]);
  for (auto& j : journals_) j.clear();
}

void Metrics::apply(const MetricOp& op) {
  using Kind = MetricOp::Kind;
  switch (op.kind) {
    case Kind::kDelivered:
      apply_delivered(op.flow, op.a, op.at);
      break;
    case Kind::kCompleted:
      apply_completed(op.flow, op.at);
      break;
    case Kind::kReorderWait:
      apply_reorder_wait(op.flow, op.t2);
      break;
    case Kind::kRto:
      ++record(op.flow).rto_count;
      break;
    case Kind::kFastRetransmit:
      ++record(op.flow).fast_retransmits;
      break;
    case Kind::kSpurious:
      ++record(op.flow).spurious_retransmits;
      break;
    case Kind::kSynTimeout:
      ++record(op.flow).syn_timeouts;
      break;
    case Kind::kDataSent:
      ++record(op.flow).packets_sent;
      break;
    case Kind::kPhaseSwitch:
      apply_phase_switch(op.flow, op.at);
      break;
    case Kind::kSubflowUsed:
      ++record(op.flow).subflows_used;
      break;
    case Kind::kEstablished:
      apply_established(op.flow, op.at);
      break;
    case Kind::kRecoveryEnter:
      apply_recovery_enter(op.flow, op.at);
      break;
    case Kind::kRecoveryExit:
      apply_recovery_exit(op.flow, op.at);
      break;
    case Kind::kRtoStall:
      apply_rto_stall(op.flow, op.t2, op.at);
      break;
  }
}

void Metrics::on_delivered(std::uint32_t flow_id, std::uint64_t bytes,
                           Time now) {
  if (journal(MetricOp::Kind::kDelivered, flow_id, Time::zero(), bytes)) return;
  apply_delivered(flow_id, bytes, now);
}

void Metrics::apply_delivered(std::uint32_t flow_id, std::uint64_t bytes,
                              Time now) {
  FlowRecord& rec = record(flow_id);
  if (bytes > 0 && !rec.saw_first_byte()) rec.first_byte_at = now;
  rec.delivered_bytes += bytes;
}

void Metrics::on_flow_completed(std::uint32_t flow_id, Time now) {
  if (journal(MetricOp::Kind::kCompleted, flow_id)) return;
  apply_completed(flow_id, now);
}

void Metrics::apply_completed(std::uint32_t flow_id, Time now) {
  FlowRecord& rec = record(flow_id);
  check(!rec.is_complete(), "flow completed twice");
  rec.completed_at = now;
  close_budget_bucket(rec, now, BudgetState::kDone);
  if (!rec.long_flow) {
    ++short_completed_;
    short_sketches_[rec.protocol].add(rec);
  }
}

void Metrics::on_reorder_wait(std::uint32_t flow_id, Time wait) {
  if (journal(MetricOp::Kind::kReorderWait, flow_id, wait)) return;
  apply_reorder_wait(flow_id, wait);
}

void Metrics::apply_reorder_wait(std::uint32_t flow_id, Time wait) {
  record(flow_id).t_reorder_wait += wait;
}

void Metrics::close_budget_bucket(FlowRecord& rec, Time now,
                                  BudgetState next) {
  if (rec.budget_state == BudgetState::kDone) return;
  if (now > rec.budget_since) {
    open_bucket(rec) += now - rec.budget_since;
    rec.budget_since = now;
  }
  rec.budget_state = next;
}

void Metrics::on_flow_established(std::uint32_t flow_id, Time now) {
  if (journal(MetricOp::Kind::kEstablished, flow_id)) return;
  apply_established(flow_id, now);
}

void Metrics::apply_established(std::uint32_t flow_id, Time now) {
  FlowRecord& rec = record(flow_id);
  // Only the first subflow's handshake bounds the connect bucket; later
  // joins establish while the flow is already transferring.
  if (rec.budget_state == BudgetState::kHandshake) {
    close_budget_bucket(rec, now, BudgetState::kTransfer);
  }
}

void Metrics::on_recovery_enter(std::uint32_t flow_id, Time now) {
  if (journal(MetricOp::Kind::kRecoveryEnter, flow_id)) return;
  apply_recovery_enter(flow_id, now);
}

void Metrics::apply_recovery_enter(std::uint32_t flow_id, Time now) {
  FlowRecord& rec = record(flow_id);
  if (rec.budget_state == BudgetState::kDone) return;
  ++rec.recovery_depth;
  if (rec.recovery_depth == 1 &&
      rec.budget_state == BudgetState::kTransfer) {
    close_budget_bucket(rec, now, BudgetState::kFastRecovery);
  }
}

void Metrics::on_recovery_exit(std::uint32_t flow_id, Time now) {
  if (journal(MetricOp::Kind::kRecoveryExit, flow_id)) return;
  apply_recovery_exit(flow_id, now);
}

void Metrics::apply_recovery_exit(std::uint32_t flow_id, Time now) {
  FlowRecord& rec = record(flow_id);
  if (rec.budget_state == BudgetState::kDone) return;
  if (rec.recovery_depth > 0) --rec.recovery_depth;
  if (rec.recovery_depth == 0 &&
      rec.budget_state == BudgetState::kFastRecovery) {
    close_budget_bucket(rec, now, BudgetState::kTransfer);
  }
}

void Metrics::on_rto_stall(std::uint32_t flow_id, Time stall_begin,
                           Time now) {
  if (journal(MetricOp::Kind::kRtoStall, flow_id, stall_begin)) return;
  apply_rto_stall(flow_id, stall_begin, now);
}

void Metrics::apply_rto_stall(std::uint32_t flow_id, Time stall_begin,
                              Time now) {
  FlowRecord& rec = record(flow_id);
  if (rec.budget_state == BudgetState::kDone) return;
  // Charge [budget_since, begin) to the open bucket and [begin, now) to
  // the stall; clamping `begin` to budget_since keeps the partition exact
  // when stalls overlap other attributed intervals.
  Time begin = stall_begin > rec.budget_since ? stall_begin : rec.budget_since;
  if (begin > now) begin = now;
  if (begin > rec.budget_since) {
    open_bucket(rec) += begin - rec.budget_since;
  }
  rec.t_rto_stall += now - begin;
  rec.budget_since = now;
}

void Metrics::on_rto(std::uint32_t flow_id) {
  if (journal(MetricOp::Kind::kRto, flow_id)) return;
  ++record(flow_id).rto_count;
}

void Metrics::on_fast_retransmit(std::uint32_t flow_id) {
  if (journal(MetricOp::Kind::kFastRetransmit, flow_id)) return;
  ++record(flow_id).fast_retransmits;
}

void Metrics::on_spurious_retransmit(std::uint32_t flow_id) {
  if (journal(MetricOp::Kind::kSpurious, flow_id)) return;
  ++record(flow_id).spurious_retransmits;
}

void Metrics::on_syn_timeout(std::uint32_t flow_id) {
  if (journal(MetricOp::Kind::kSynTimeout, flow_id)) return;
  ++record(flow_id).syn_timeouts;
}

void Metrics::on_data_packet_sent(std::uint32_t flow_id) {
  if (journal(MetricOp::Kind::kDataSent, flow_id)) return;
  ++record(flow_id).packets_sent;
}

void Metrics::on_phase_switch(std::uint32_t flow_id, Time now) {
  if (journal(MetricOp::Kind::kPhaseSwitch, flow_id)) return;
  apply_phase_switch(flow_id, now);
}

void Metrics::apply_phase_switch(std::uint32_t flow_id, Time now) {
  FlowRecord& rec = record(flow_id);
  check(!rec.switched_phase(), "flow switched phase twice");
  rec.phase_switch_at = now;
}

void Metrics::on_subflow_used(std::uint32_t flow_id) {
  if (journal(MetricOp::Kind::kSubflowUsed, flow_id)) return;
  ++record(flow_id).subflows_used;
}

std::vector<const FlowRecord*> Metrics::flows(
    const std::function<bool(const FlowRecord&)>& pred) const {
  std::vector<const FlowRecord*> out;
  for (const Shard& shard : shards_) {
    for (const auto& rec : shard.records) {
      if (rec.retired) continue;  // folded into retired() already
      if (!pred || pred(rec)) out.push_back(&rec);
    }
  }
  return out;
}

Summary Metrics::short_flow_fct_ms(Protocol proto) const {
  Summary s;
  for (const Shard& shard : shards_) {
    for (const auto& rec : shard.records) {
      if (rec.retired) continue;
      if (!rec.long_flow && rec.protocol == proto && rec.is_complete()) {
        s.add(rec.fct().to_millis());
      }
    }
  }
  return s;
}

Summary Metrics::long_flow_goodput_mbps(Protocol proto, Time now) const {
  Summary s;
  for (const Shard& shard : shards_) {
    for (const auto& rec : shard.records) {
      if (!rec.long_flow || rec.protocol != proto) continue;
      const Time end = rec.is_complete() ? rec.completed_at : now;
      const double secs = (end - rec.start).to_seconds();
      if (secs <= 0) continue;
      s.add(static_cast<double>(rec.delivered_bytes) * 8.0 / 1e6 / secs);
    }
  }
  return s;
}

double Metrics::short_flow_completion_ratio(Protocol proto) const {
  // Retired flows are by definition complete: they count in both terms.
  std::uint64_t total = retired_short_flows(proto);
  std::uint64_t done = total;
  for (const Shard& shard : shards_) {
    for (const auto& rec : shard.records) {
      if (rec.retired || rec.long_flow || rec.protocol != proto) continue;
      ++total;
      if (rec.is_complete()) ++done;
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(done) / static_cast<double>(total);
}

const FlowSketches& Metrics::short_flow_sketches(Protocol proto) const {
  static const FlowSketches empty;
  const auto it = short_sketches_.find(proto);
  return it == short_sketches_.end() ? empty : it->second;
}

std::uint64_t Metrics::total(
    const std::function<std::uint64_t(const FlowRecord&)>& field,
    const std::function<bool(const FlowRecord&)>& pred) const {
  std::uint64_t sum = 0;
  for (const Shard& shard : shards_) {
    for (const auto& rec : shard.records) {
      if (rec.retired) continue;  // folded into retired() already
      if (!pred || pred(rec)) sum += field(rec);
    }
  }
  return sum;
}

}  // namespace mmptcp
