#pragma once

// Full-featured simulated TCP socket (NewReno), designed for subclassing:
// MPTCP subflows and MMPTCP's packet-scatter flow override the protected
// hooks to attach data-sequence mappings, randomise source ports, and
// forward delivery events to their owning connection.
//
// Model notes (documented divergences from a kernel TCP):
//  * Sequence numbers are 64-bit and start at zero; no wraparound handling.
//  * The handshake is SYN / SYN-ACK / ACK; SYNs and FINs do not consume
//    payload sequence space, but the FIN occupies one unit at the end of
//    the stream so its delivery is acknowledged like data.
//  * Demultiplexing is by connection token (MPTCP-style), so per-packet
//    source-port randomisation — the heart of packet scatter — is safe.
//  * The receiver ACKs every data segment (no delayed ACKs by default) and
//    flags fully-duplicate segments with a DSACK-equivalent bit, which the
//    sender uses to detect spurious retransmissions (RR-TCP, [9] in the
//    paper).
//  * Data flows client -> server; the server side generates only ACKs.

#include <cstdint>
#include <map>
#include <optional>

#include "net/host.h"
#include "stats/metrics.h"
#include "tcp/congestion.h"
#include "tcp/dupack_policy.h"
#include "tcp/rtt_estimator.h"
#include "util/interval_set.h"

namespace mmptcp {

class TraceRecorder;

/// Which side of the connection this socket is.
enum class SocketRole : std::uint8_t { kClient, kServer };

/// Congestion-related events surfaced to subclasses (MMPTCP's
/// congestion-event phase switch listens to these).
enum class CongestionEventKind : std::uint8_t {
  kFastRetransmit,
  kRto,
  kSynTimeout,
};

/// A data-sequence mapping: `len` connection-level bytes at `data_seq`.
struct Mapping {
  std::uint64_t data_seq = 0;
  std::uint32_t len = 0;
  bool last = false;  ///< carries the connection-level DATA_FIN
};

/// Socket tuning knobs (defaults mirror the ns-3 models of the paper's era).
struct TcpConfig {
  std::uint32_t mss = 1400;                ///< payload bytes per segment
  /// ns-3-era default.  Small initial windows are load-bearing for the
  /// paper's Figure 1(a): a 70 KB flow split over 8 subflows leaves each
  /// subflow's window so small that a single loss cannot gather three
  /// dup-ACKs and must wait out an RTO.
  std::uint32_t initial_cwnd_segments = 2;
  RtoConfig rto{};
  Time conn_timeout = Time::seconds(3);    ///< SYN retransmission base
  std::uint32_t max_syn_retries = 8;
  std::uint32_t max_data_retries = 16;
  DupAckConfig dupack{};
  /// Cap on unacknowledged bytes in flight — the socket-buffer /
  /// receive-window stand-in.  Far above the fabric's bandwidth-delay
  /// product, so it never limits throughput; it only stops a loss-free
  /// path from inflating cwnd (and the host queue) without bound.
  std::uint64_t send_window_limit = 256 * 1024;
  /// RR-TCP style undo: when a DSACK proves the last fast retransmission
  /// spurious (reordering, not loss), revert the window reduction.
  bool undo_on_spurious = true;
};

/// Simulated TCP endpoint; one instance per side per (sub)flow.
class TcpSocket : public Endpoint {
 public:
  /// `peer_port`/`local_port`: the nominal 4-tuple (subclasses may
  /// randomise the source port per packet).  `path_count` feeds the
  /// topology-aware dup-ACK policy (0 = unknown).
  TcpSocket(Simulation& sim, Metrics& metrics, Host& local, SocketRole role,
            Addr peer, std::uint16_t local_port, std::uint16_t peer_port,
            std::uint32_t token, std::uint32_t flow_id, TcpConfig config,
            std::unique_ptr<CongestionControl> cc,
            std::uint32_t path_count = 0);
  ~TcpSocket() override;

  /// Client: registers demux, sends SYN, then streams `bytes` payload
  /// (pass kUnboundedBytes for a long background flow).
  void connect_and_send(std::uint64_t bytes);
  static constexpr std::uint64_t kUnboundedBytes = std::uint64_t(1) << 62;

  /// Server: registers demux and processes the SYN that opened the flow.
  void accept(const Packet& syn);

  void handle_packet(const Packet& pkt) override;

  // ---- introspection (tests, stats, schedulers) ----
  bool established() const { return established_; }
  bool sender_drained() const { return sender_drained_; }
  bool receiver_complete() const { return receiver_complete_; }
  bool dead() const { return dead_; }
  std::uint64_t snd_una() const { return snd_una_; }
  std::uint64_t snd_nxt() const { return snd_nxt_; }
  std::uint64_t high_water() const { return high_water_; }
  std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  std::uint64_t cwnd() const { return cc_->cwnd(); }
  std::uint64_t bytes_in_flight() const;
  std::uint32_t dup_ack_count() const { return dup_acks_; }
  std::uint32_t dupack_threshold() const { return dupack_policy_.threshold(); }
  Time srtt() const { return rtt_.has_sample() ? rtt_.srtt() : Time::zero(); }
  const CongestionControl& congestion() const { return *cc_; }
  std::uint32_t flow_id() const { return flow_id_; }
  std::uint32_t token() const { return token_; }
  SocketRole role() const { return role_; }
  Host& local_host() { return local_; }
  std::uint32_t local_rto_count() const { return rto_fires_; }
  std::uint32_t local_fast_retransmits() const { return fast_rtx_; }
  std::uint32_t local_spurious_retransmits() const { return spurious_; }

  /// Stops accepting new mappings forever (the stream may still drain);
  /// used to deactivate MMPTCP's PS flow after the phase switch.
  void freeze_stream();
  bool stream_frozen() const { return stream_frozen_; }

  /// Subclasses/connections call this when new data may be available.
  void poke() { try_send(); }

 protected:
  // ---- subclass hooks -------------------------------------------------
  /// Next chunk of stream data to transmit (default: the socket's own
  /// linear stream set by connect_and_send).  Returning nullopt pauses.
  virtual std::optional<Mapping> next_mapping(std::uint32_t max_len);

  /// Last chance to edit an outgoing data segment (DSS flags, PS source
  /// port randomisation...).
  virtual void decorate_data(Packet& pkt);

  /// Last chance to edit an outgoing ACK (attach connection-level
  /// data_ack).
  virtual void decorate_ack(Packet& pkt);

  /// Sender side: every arriving ACK, before normal processing.
  virtual void on_peer_ack(const Packet& pkt) { (void)pkt; }

  /// Receiver side: every arriving data segment (duplicates included);
  /// MPTCP forwards these to connection-level reassembly.
  virtual void on_data_segment(const Packet& pkt) { (void)pkt; }

  /// Receiver side: `newly` contiguous payload bytes became in-order.
  virtual void deliver_in_order(std::uint64_t newly);

  /// Receiver side: a head-of-line blocking episode ended — out-of-order
  /// bytes were held for `wait` before the hole filled.  The default
  /// reports receiver reorder wait to metrics; subflows override to a
  /// no-op (reassembly happens at the connection level).
  virtual void on_reorder_release(Time wait);

  /// Receiver side: FIN delivered, whole stream in order.
  virtual void stream_complete();

  /// Both sides: handshake completed.
  virtual void on_established() {}

  /// Sender side: congestion event (fast retransmit / RTO / SYN timeout).
  virtual void on_congestion_event(CongestionEventKind kind) { (void)kind; }

  /// Sender side: all mapped data (and FIN if any) acknowledged and no
  /// further data will ever be mapped (stream ended or frozen).
  virtual void on_sender_drained() {}

  /// Sender side: first data segment handed to the NIC.  The default
  /// counts this (sub)flow as "used" in the flow record.
  virtual void on_first_data_sent();

  Simulation& sim() { return sim_; }
  Metrics& metrics() { return metrics_; }
  const TcpConfig& config() const { return config_; }
  CongestionControl& cc() { return *cc_; }
  std::uint16_t local_port() const { return local_port_; }
  std::uint16_t peer_port() const { return peer_port_; }
  Addr peer() const { return peer_; }
  bool fin_enabled() const { return fin_enabled_; }
  /// Subflows that must not send a FIN (connection-level DATA_FIN is used)
  /// call this once before connect.
  void disable_fin() { fin_enabled_ = false; }
  /// Sent-but-live segment boundaries with their data-sequence mappings.
  const std::map<std::uint64_t, Mapping>& mappings() const {
    return mappings_;
  }
  /// Subflows call this before connecting: demultiplexing belongs to the
  /// owning connection, which already registered the shared token.
  void disable_demux_registration() { demux_registration_ = false; }

  /// Subflows tag their trace lines with the subflow index (the default
  /// -1 renders a single-path socket).
  void set_trace_subflow_id(std::uint8_t id) { trace_sf_ = id; }

 private:
  // ---- sender ----
  void try_send();
  void send_segment(const Mapping& mapping, std::uint64_t seq, bool rtx);
  void send_syn();
  void send_syn_ack();
  void send_pure_ack_for_handshake();
  void send_fin();
  void process_ack(const Packet& pkt);
  void enter_fast_retransmit();
  void retransmit_one(std::uint64_t seq);
  void maybe_sender_drained();
  // ---- receiver ----
  void process_data(const Packet& pkt);
  void send_ack_reply(const Packet& cause, bool dsack);
  // ---- timers ----
  Time current_rto() const;
  void arm_rto_if_needed();
  void restart_rto();
  void cancel_rto();
  void on_rto_timer(std::uint64_t generation);
  void handle_syn_timeout();
  void handle_data_timeout();
  void give_up();
  // ---- tracing ----
  /// Emits one cwnd-channel line (call only when trace_cwnd_ is set).
  void trace_cwnd_point(const char* event);

  Simulation& sim_;
  Metrics& metrics_;
  Host& local_;
  SocketRole role_;
  Addr peer_;
  std::uint16_t local_port_;
  std::uint16_t peer_port_;
  std::uint32_t token_;
  std::uint32_t flow_id_;
  TcpConfig config_;
  std::unique_ptr<CongestionControl> cc_;
  DupAckPolicy dupack_policy_;
  RttEstimator rtt_;

  // Flight-recorder channels, cached once at construction (null when the
  // channel is off or this is the ACK-only server side).
  TraceRecorder* trace_cwnd_ = nullptr;
  TraceRecorder* trace_retx_ = nullptr;
  int trace_sf_ = -1;  ///< subflow index in trace lines; -1 = single-path

  // Connection state.
  bool demux_registration_ = true;
  bool registered_ = false;
  bool syn_sent_ = false;
  bool established_ = false;
  bool dead_ = false;  ///< gave up after too many retries
  std::uint32_t syn_retries_ = 0;

  // Sender state (64-bit stream space, no wrap).
  std::uint64_t write_end_ = 0;     ///< own-stream size (default mapping)
  bool own_stream_ = false;         ///< connect_and_send() was used
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t high_water_ = 0;    ///< max(seq+len) ever sent
  std::uint64_t recover_ = 0;       ///< NewReno recovery point
  bool in_recovery_ = false;
  std::uint32_t dup_acks_ = 0;
  // Spurious-recovery undo state (RR-TCP): window snapshot at the last
  // fast retransmit, and the sequence whose DSACK would prove it wrong.
  bool undo_pending_ = false;
  std::uint64_t undo_seq_ = 0;
  std::uint64_t undo_cwnd_ = 0;
  std::uint64_t undo_ssthresh_ = 0;
  std::map<std::uint64_t, Mapping> mappings_;  ///< seq -> mapping
  bool fin_enabled_ = true;
  bool stream_ended_ = false;       ///< last mapping handed out
  std::uint64_t fin_seq_ = 0;       ///< sequence the FIN occupies
  bool fin_ever_sent_ = false;
  bool stream_frozen_ = false;
  bool sender_drained_ = false;
  bool first_data_sent_ = false;
  std::uint32_t consecutive_rtos_ = 0;
  std::uint32_t rto_fires_ = 0;
  std::uint32_t fast_rtx_ = 0;
  std::uint32_t spurious_ = 0;

  // Karn-compliant RTT timing of one segment at a time.
  bool timing_valid_ = false;
  std::uint64_t timed_end_ = 0;
  Time timed_sent_at_;

  // Receiver state.
  IntervalSet rx_ranges_;
  std::uint64_t rcv_nxt_ = 0;
  std::uint64_t delivered_payload_ = 0;
  bool fin_received_ = false;
  std::uint64_t fin_seq_rx_ = 0;
  bool receiver_complete_ = false;
  // Head-of-line blocking episode (flow-time attribution).
  bool ooo_pending_ = false;
  Time ooo_since_;

  // RTO timer (generation-checked lazy cancellation).
  EventId rto_event_{};
  /// Scheduler the timer was armed on.  Cancellation must go there: the
  /// socket may be destroyed from another context (a control-window
  /// reap), where sim_.scheduler() resolves to a different scheduler.
  Scheduler* rto_sched_ = nullptr;
  std::uint64_t rto_generation_ = 0;
  bool rto_armed_ = false;
  Time rto_armed_at_;  ///< start of the current timer interval (stall base)
};

}  // namespace mmptcp
