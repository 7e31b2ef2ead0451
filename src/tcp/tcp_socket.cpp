#include "tcp/tcp_socket.h"

#include <algorithm>
#include <iterator>

#include "trace/recorder.h"

namespace mmptcp {

TcpSocket::TcpSocket(Simulation& sim, Metrics& metrics, Host& local,
                     SocketRole role, Addr peer, std::uint16_t local_port,
                     std::uint16_t peer_port, std::uint32_t token,
                     std::uint32_t flow_id, TcpConfig config,
                     std::unique_ptr<CongestionControl> cc,
                     std::uint32_t path_count)
    : sim_(sim), metrics_(metrics), local_(local), role_(role), peer_(peer),
      local_port_(local_port), peer_port_(peer_port), token_(token),
      flow_id_(flow_id), config_(config), cc_(std::move(cc)),
      dupack_policy_(config.dupack, path_count), rtt_(config.rto) {
  check(cc_ != nullptr, "socket needs a congestion controller");
  if (role_ == SocketRole::kClient) {
    // Only the data sender has a window worth recording; the server side
    // never touches its controller.
    trace_cwnd_ = sim_.trace_for(kTraceCwnd);
    trace_retx_ = sim_.trace_for(kTraceRetx);
  }
}

void TcpSocket::trace_cwnd_point(const char* event) {
  trace_cwnd_->cwnd_sample(sim_.now(), flow_id_, trace_sf_, event, cc_->cwnd(),
                           cc_->ssthresh(), cc_->ecn_alpha(), srtt());
}

TcpSocket::~TcpSocket() {
  cancel_rto();
  if (registered_) local_.unregister_token(token_);
}

std::uint64_t TcpSocket::bytes_in_flight() const {
  return high_water_ - snd_una_;
}

void TcpSocket::connect_and_send(std::uint64_t bytes) {
  check(role_ == SocketRole::kClient, "only clients connect");
  check(!syn_sent_, "connect_and_send called twice");
  own_stream_ = true;
  write_end_ = bytes;
  if (bytes == 0) {
    stream_ended_ = true;
    fin_seq_ = 0;
  }
  if (demux_registration_) {
    local_.register_token(token_, this);
    registered_ = true;
  }
  send_syn();
}

void TcpSocket::accept(const Packet& syn) {
  check(role_ == SocketRole::kServer, "only servers accept");
  check(syn.is_syn(), "accept needs a SYN");
  local_.register_token(token_, this);
  registered_ = true;
  handle_packet(syn);
}

void TcpSocket::freeze_stream() {
  stream_frozen_ = true;
  maybe_sender_drained();
}

// ---------------------------------------------------------------------------
// Packet ingress
// ---------------------------------------------------------------------------

void TcpSocket::handle_packet(const Packet& pkt) {
  if (dead_) return;
  if (pkt.is_syn()) {
    if (role_ == SocketRole::kServer) {
      // First or duplicate SYN: (re)send the SYN-ACK.
      if (!established_) {
        established_ = true;
        on_established();
      }
      send_syn_ack();
    } else {
      // SYN-ACK for our SYN.
      if (!established_) {
        established_ = true;
        if (timing_valid_ && syn_retries_ == 0) {
          rtt_.add_sample(sim_.now() - timed_sent_at_);
        }
        timing_valid_ = false;
        cancel_rto();
        metrics_.on_flow_established(flow_id_, sim_.now());
        send_pure_ack_for_handshake();
        on_established();
        if (trace_cwnd_ != nullptr) trace_cwnd_point("established");
        try_send();
        maybe_sender_drained();
      } else {
        send_pure_ack_for_handshake();  // duplicate SYN-ACK
      }
    }
    return;
  }
  if (!established_) {
    // Server side: any non-SYN segment from the peer implies our SYN-ACK
    // arrived.
    established_ = true;
    on_established();
  }
  if (pkt.payload > 0 || pkt.has(pkt_flags::kFin)) {
    process_data(pkt);
  } else {
    process_ack(pkt);
  }
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

std::optional<Mapping> TcpSocket::next_mapping(std::uint32_t max_len) {
  if (!own_stream_ || snd_nxt_ >= write_end_) return std::nullopt;
  const std::uint32_t len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(max_len, write_end_ - snd_nxt_));
  return Mapping{snd_nxt_, len, snd_nxt_ + len == write_end_};
}

void TcpSocket::decorate_data(Packet& pkt) { (void)pkt; }
void TcpSocket::decorate_ack(Packet& pkt) { (void)pkt; }

void TcpSocket::on_first_data_sent() {
  metrics_.on_subflow_used(flow_id_);
}

void TcpSocket::deliver_in_order(std::uint64_t newly) {
  metrics_.on_delivered(flow_id_, newly, sim_.now());
}

void TcpSocket::on_reorder_release(Time wait) {
  metrics_.on_reorder_wait(flow_id_, wait);
}

void TcpSocket::stream_complete() {
  metrics_.on_flow_completed(flow_id_, sim_.now());
}

void TcpSocket::try_send() {
  if (dead_ || !established_) return;
  while (true) {
    const std::uint64_t in_flight = snd_nxt_ - snd_una_;
    // FIN position (first transmission or retransmission).
    if (fin_enabled_ && stream_ended_ && snd_nxt_ == fin_seq_) {
      if (in_flight + 1 > cc_->cwnd() && in_flight > 0) break;
      send_fin();
      snd_nxt_ = fin_seq_ + 1;
      high_water_ = std::max(high_water_, snd_nxt_);
      continue;
    }
    if (snd_nxt_ < high_water_) {
      // Retransmission region (after an RTO rolled snd_nxt back).
      const auto it = mappings_.find(snd_nxt_);
      check(it != mappings_.end(), "retransmit point not a segment boundary");
      const Mapping m = it->second;
      if (in_flight + m.len > cc_->cwnd() && in_flight > 0) break;
      send_segment(m, snd_nxt_, /*rtx=*/true);
      snd_nxt_ += m.len;
      continue;
    }
    // New data.
    if (stream_frozen_ || stream_ended_ || dead_) break;
    if (in_flight >= config_.send_window_limit) break;
    if (in_flight + config_.mss > cc_->cwnd() && in_flight > 0) break;
    const auto room = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        config_.mss,
        in_flight == 0 ? config_.mss : cc_->cwnd() - in_flight));
    const auto m = next_mapping(room);
    if (!m.has_value()) break;
    check(m->len > 0 && m->len <= config_.mss, "bad mapping length");
    mappings_.emplace(snd_nxt_, *m);
    if (m->last) {
      stream_ended_ = true;
      fin_seq_ = snd_nxt_ + m->len;
    }
    send_segment(*m, snd_nxt_, /*rtx=*/false);
    snd_nxt_ += m->len;
    high_water_ = std::max(high_water_, snd_nxt_);
  }
  arm_rto_if_needed();
}

void TcpSocket::send_segment(const Mapping& mapping, std::uint64_t seq,
                             bool rtx) {
  Packet p;
  p.src = local_.addr();
  p.dst = peer_;
  p.sport = local_port_;
  p.dport = peer_port_;
  p.token = token_;
  p.flow_id = flow_id_;
  p.seq = seq;
  p.ack = rcv_nxt_;
  p.payload = mapping.len;
  p.data_seq = mapping.data_seq;
  if (mapping.last) p.flags |= pkt_flags::kDataFin;
  if (cc_->ecn_capable()) p.ecn |= ecn_bits::kEct;
  decorate_data(p);
  if (!rtx && !timing_valid_) {
    timing_valid_ = true;
    timed_end_ = seq + mapping.len;
    timed_sent_at_ = sim_.now();
  }
  if (rtx && timing_valid_ && seq < timed_end_) {
    timing_valid_ = false;  // Karn: never time a retransmitted range
  }
  metrics_.on_data_packet_sent(flow_id_);
  if (!first_data_sent_) {
    first_data_sent_ = true;
    on_first_data_sent();
  }
  local_.send(p);
}

void TcpSocket::send_syn() {
  Packet p;
  p.src = local_.addr();
  p.dst = peer_;
  p.sport = local_port_;
  p.dport = peer_port_;
  p.token = token_;
  p.flow_id = flow_id_;
  p.flags = pkt_flags::kSyn;
  decorate_data(p);
  if (!syn_sent_) {
    syn_sent_ = true;
    timing_valid_ = true;
    timed_end_ = 0;
    timed_sent_at_ = sim_.now();
  }
  local_.send(p);
  arm_rto_if_needed();
}

void TcpSocket::send_syn_ack() {
  Packet p;
  p.src = local_.addr();
  p.dst = peer_;
  p.sport = local_port_;
  p.dport = peer_port_;
  p.token = token_;
  p.flow_id = flow_id_;
  p.flags = pkt_flags::kSyn;
  p.ack = rcv_nxt_;
  decorate_ack(p);
  local_.send(p);
}

void TcpSocket::send_pure_ack_for_handshake() {
  Packet p;
  p.src = local_.addr();
  p.dst = peer_;
  p.sport = local_port_;
  p.dport = peer_port_;
  p.token = token_;
  p.flow_id = flow_id_;
  p.ack = 0;
  local_.send(p);
}

void TcpSocket::send_fin() {
  Packet p;
  p.src = local_.addr();
  p.dst = peer_;
  p.sport = local_port_;
  p.dport = peer_port_;
  p.token = token_;
  p.flow_id = flow_id_;
  p.seq = fin_seq_;
  p.ack = rcv_nxt_;
  p.flags = pkt_flags::kFin;
  decorate_data(p);
  fin_ever_sent_ = true;
  local_.send(p);
}

void TcpSocket::process_ack(const Packet& pkt) {
  on_peer_ack(pkt);
  if (pkt.has(pkt_flags::kDsack)) {
    ++spurious_;
    metrics_.on_spurious_retransmit(flow_id_);
    dupack_policy_.on_spurious_retransmit();
    if (config_.undo_on_spurious && undo_pending_ &&
        pkt.dsack_seq == undo_seq_) {
      // The duplicate is our fast-retransmitted segment: the original was
      // merely reordered.  Revert the window reduction (RR-TCP).
      undo_pending_ = false;
      cc_->undo_after_spurious(undo_cwnd_, undo_ssthresh_);
      if (in_recovery_) {
        in_recovery_ = false;
        dup_acks_ = 0;
        metrics_.on_recovery_exit(flow_id_, sim_.now());
      }
      if (trace_cwnd_ != nullptr) trace_cwnd_point("undo");
    }
  }
  const std::uint64_t ack = pkt.ack;
  if (ack > snd_una_) {
    const std::uint64_t acked = ack - snd_una_;
    snd_una_ = ack;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    consecutive_rtos_ = 0;
    if (timing_valid_ && snd_una_ >= timed_end_) {
      rtt_.add_sample(sim_.now() - timed_sent_at_);
      timing_valid_ = false;
    }
    // Drop mappings that are fully acknowledged.
    while (!mappings_.empty()) {
      const auto it = mappings_.begin();
      if (it->first + it->second.len > snd_una_) break;
      mappings_.erase(it);
    }
    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        in_recovery_ = false;
        dup_acks_ = 0;
        cc_->exit_recovery();
        metrics_.on_recovery_exit(flow_id_, sim_.now());
      } else {
        // Partial ACK: retransmit the next hole immediately (RFC 6582).
        cc_->partial_ack(acked);
        retransmit_one(snd_una_);
        restart_rto();
      }
    } else {
      dup_acks_ = 0;
      // DCTCP-style ECN response (no-op for non-ECN controllers); kept
      // out of loss recovery, which already owns the window there.
      cc_->on_ecn_feedback(acked, pkt.ece(), snd_una_, snd_nxt_);
      cc_->on_ack(acked);
    }
    if (trace_cwnd_ != nullptr) trace_cwnd_point("ack");
    if (bytes_in_flight() > 0) {
      restart_rto();
    } else {
      cancel_rto();
    }
    try_send();
    maybe_sender_drained();
    return;
  }
  if (ack == snd_una_ && high_water_ > snd_una_) {
    ++dup_acks_;
    if (in_recovery_) {
      cc_->dupack_inflate();
      try_send();
    } else if (dup_acks_ >= dupack_policy_.threshold()) {
      enter_fast_retransmit();
    }
  }
}

void TcpSocket::enter_fast_retransmit() {
  in_recovery_ = true;
  recover_ = high_water_;
  undo_pending_ = true;
  undo_seq_ = snd_una_;
  undo_cwnd_ = cc_->cwnd();
  undo_ssthresh_ = cc_->ssthresh();
  cc_->enter_recovery(bytes_in_flight());
  ++fast_rtx_;
  metrics_.on_fast_retransmit(flow_id_);
  metrics_.on_recovery_enter(flow_id_, sim_.now());
  if (trace_retx_ != nullptr) {
    trace_retx_->retx_event(sim_.now(), flow_id_, trace_sf_, "fast_rtx");
  }
  if (trace_cwnd_ != nullptr) trace_cwnd_point("fast_rtx");
  retransmit_one(snd_una_);
  restart_rto();
  on_congestion_event(CongestionEventKind::kFastRetransmit);
  try_send();
}

void TcpSocket::retransmit_one(std::uint64_t seq) {
  if (fin_enabled_ && stream_ended_ && seq == fin_seq_ && fin_ever_sent_) {
    send_fin();
    return;
  }
  const auto it = mappings_.find(seq);
  check(it != mappings_.end(), "retransmission of unknown segment");
  send_segment(it->second, seq, /*rtx=*/true);
}

void TcpSocket::maybe_sender_drained() {
  if (sender_drained_ || !established_) return;
  if (snd_una_ != high_water_) return;
  const bool fin_done =
      !fin_enabled_ || (fin_ever_sent_ && snd_una_ >= fin_seq_ + 1);
  if (stream_frozen_ || (stream_ended_ && fin_done)) {
    sender_drained_ = true;
    cancel_rto();
    on_sender_drained();
  }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

void TcpSocket::process_data(const Packet& pkt) {
  on_data_segment(pkt);
  std::uint64_t added = 0;
  if (pkt.payload > 0) {
    added += rx_ranges_.insert(pkt.seq, pkt.seq + pkt.payload);
  }
  if (pkt.has(pkt_flags::kFin)) {
    const std::uint64_t fs = pkt.seq + pkt.payload;
    if (!fin_received_) {
      fin_received_ = true;
      fin_seq_rx_ = fs;
    }
    added += rx_ranges_.insert(fs, fs + 1);
  }
  const bool dup = (added == 0);
  const std::uint64_t old_nxt = rcv_nxt_;
  rcv_nxt_ = rx_ranges_.first_missing_after(rcv_nxt_);
  const std::uint64_t ceiling =
      fin_received_ ? fin_seq_rx_ : std::uint64_t(-1);
  const std::uint64_t newly =
      std::min(rcv_nxt_, ceiling) - std::min(old_nxt, ceiling);
  if (newly > 0) {
    delivered_payload_ += newly;
    deliver_in_order(newly);
  }
  // Head-of-line blocking: bytes beyond rcv_nxt_ are held in the reorder
  // buffer until the hole fills; the episode's duration is the receiver
  // reorder wait (packet scatter's main cost).
  const bool blocked = !rx_ranges_.empty() &&
                       std::prev(rx_ranges_.end())->second > rcv_nxt_;
  if (blocked && !ooo_pending_) {
    ooo_pending_ = true;
    ooo_since_ = sim_.now();
  } else if (!blocked && ooo_pending_) {
    ooo_pending_ = false;
    on_reorder_release(sim_.now() - ooo_since_);
  }
  send_ack_reply(pkt, dup);
  if (fin_received_ && rcv_nxt_ >= fin_seq_rx_ + 1 && !receiver_complete_) {
    receiver_complete_ = true;
    stream_complete();
  }
}

void TcpSocket::send_ack_reply(const Packet& cause, bool dsack) {
  Packet a;
  a.src = local_.addr();
  a.dst = cause.src;
  // Echo the (possibly randomised) ports so the reverse path of a sprayed
  // packet is sprayed as well.
  a.sport = cause.dport;
  a.dport = cause.sport;
  a.token = token_;
  a.flow_id = flow_id_;
  a.subflow = cause.subflow;
  a.ack = rcv_nxt_;
  if (dsack) {
    a.flags |= pkt_flags::kDsack;
    a.dsack_seq = cause.seq;
  }
  // Per-segment CE echo: with an ACK for every data segment this is
  // precisely the feedback loop DCTCP wants (RFC 8257 §3.2).
  if (cause.ce()) a.ecn |= ecn_bits::kEce;
  decorate_ack(a);
  local_.send(a);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

Time TcpSocket::current_rto() const {
  Time base;
  std::uint32_t shifts;
  if (!established_) {
    base = config_.conn_timeout;
    shifts = syn_retries_;
  } else {
    base = rtt_.rto();
    shifts = consecutive_rtos_;
  }
  shifts = std::min<std::uint32_t>(shifts, 16);
  Time rto = base * (std::int64_t(1) << shifts);
  if (rto > config_.rto.max_rto) rto = config_.rto.max_rto;
  return rto;
}

void TcpSocket::arm_rto_if_needed() {
  if (rto_armed_ || dead_) return;
  const bool need = (syn_sent_ && !established_) ||
                    (established_ && bytes_in_flight() > 0);
  if (!need) return;
  rto_armed_ = true;
  rto_armed_at_ = sim_.now();
  const std::uint64_t gen = ++rto_generation_;
  rto_sched_ = &sim_.scheduler();
  rto_event_ = rto_sched_->schedule(current_rto(),
                                    [this, gen] { on_rto_timer(gen); });
}

void TcpSocket::restart_rto() {
  cancel_rto();
  arm_rto_if_needed();
}

void TcpSocket::cancel_rto() {
  if (!rto_armed_) return;
  rto_sched_->cancel(rto_event_);
  ++rto_generation_;
  rto_armed_ = false;
}

void TcpSocket::on_rto_timer(std::uint64_t generation) {
  if (generation != rto_generation_ || dead_) return;
  rto_armed_ = false;
  if (!established_) {
    handle_syn_timeout();
  } else {
    handle_data_timeout();
  }
}

void TcpSocket::handle_syn_timeout() {
  ++syn_retries_;
  if (syn_retries_ > config_.max_syn_retries) {
    give_up();
    return;
  }
  metrics_.on_syn_timeout(flow_id_);
  metrics_.on_rto_stall(flow_id_, rto_armed_at_, sim_.now());
  if (trace_retx_ != nullptr) {
    trace_retx_->retx_event(sim_.now(), flow_id_, trace_sf_, "syn_timeout");
  }
  on_congestion_event(CongestionEventKind::kSynTimeout);
  send_syn();
}

void TcpSocket::handle_data_timeout() {
  if (bytes_in_flight() == 0) return;  // stale timer
  ++rto_fires_;
  ++consecutive_rtos_;
  if (consecutive_rtos_ > config_.max_data_retries) {
    give_up();
    return;
  }
  metrics_.on_rto(flow_id_);
  metrics_.on_rto_stall(flow_id_, rto_armed_at_, sim_.now());
  if (in_recovery_) metrics_.on_recovery_exit(flow_id_, sim_.now());
  dupack_policy_.on_rto();
  cc_->on_rto(bytes_in_flight());
  if (trace_retx_ != nullptr) {
    trace_retx_->retx_event(sim_.now(), flow_id_, trace_sf_, "rto");
  }
  if (trace_cwnd_ != nullptr) trace_cwnd_point("rto");
  in_recovery_ = false;
  undo_pending_ = false;  // a timeout is strong evidence of genuine loss
  dup_acks_ = 0;
  recover_ = high_water_;
  timing_valid_ = false;
  snd_nxt_ = snd_una_;
  on_congestion_event(CongestionEventKind::kRto);
  try_send();
  arm_rto_if_needed();
}

void TcpSocket::give_up() {
  dead_ = true;
  cancel_rto();
}

}  // namespace mmptcp
