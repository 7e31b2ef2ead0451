#pragma once

// The flight recorder: streams typed trace records as JSONL.
//
// One recorder per run, writing one file: a header line with the run's
// provenance, then one object per record with a fixed field order per
// channel.  Records stream straight to the file (O(1) memory however long
// the run), timestamps are integer simulated nanoseconds and doubles use
// the deterministic result-sink rendering, so the bytes are identical for
// the same run at any worker-thread count and on any host.
//
// Record shapes (field order is part of the schema):
//   header {"kind":"trace","schema_version":1,"experiment","run","seed",
//           "channels","interval_ns"}
//   queue  {"t","ch":"queue","port","depth","bytes","marks","drops"}
//          sampler snapshot, emitted only when a field changed
//   queue  {"t","ch":"queue","port","event":"drop"|"mark","depth"}
//          event-driven edge, emitted at the packet that caused it
//   cwnd   {"t","ch":"cwnd","flow","sf","event","cwnd","ssthresh",
//           ["alpha",]"srtt_ns"}   sf is -1 for single-path sockets;
//          alpha appears only for ECN-reacting (DCTCP) controllers
//   phase  {"t","ch":"phase","flow","event":"switch","ps_bytes"}
//   retx   {"t","ch":"retx","flow","sf","event":"fast_rtx"|"rto"|
//           "syn_timeout"}
//   sched  {"t","ch":"sched","executed","pending","wheel","heap"}

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "trace/trace.h"

namespace mmptcp {

/// Writes one run's trace stream; constructed only when tracing is on.
class TraceRecorder {
 public:
  /// Opens config.path and writes the header line; throws ConfigError
  /// when the file cannot be created.
  explicit TraceRecorder(const TraceConfig& config);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  std::uint32_t channels() const { return config_.channels; }
  bool wants(TraceChannel channel) const {
    return (config_.channels & channel) != 0;
  }
  Time interval() const { return config_.interval; }

  // ---- emitters (caller already checked the channel is enabled) ----
  void queue_sample(Time t, const std::string& port, std::uint64_t depth,
                    std::uint64_t bytes, std::uint64_t marks,
                    std::uint64_t drops);
  void queue_event(Time t, const std::string& port, const char* event,
                   std::uint64_t depth);
  void cwnd_sample(Time t, std::uint32_t flow, int subflow, const char* event,
                   std::uint64_t cwnd, std::uint64_t ssthresh,
                   std::optional<double> alpha, Time srtt);
  void phase_switch(Time t, std::uint32_t flow, std::uint64_t ps_bytes);
  void retx_event(Time t, std::uint32_t flow, int subflow, const char* kind);
  void sched_sample(Time t, std::uint64_t executed, std::size_t wheel,
                    std::size_t heap);

  // ---- run telemetry (read after the run for the timing sidecar) ----
  std::uint64_t lines() const { return lines_; }
  std::uint64_t bytes_written() const { return bytes_; }

  /// Flushes and closes the stream; throws ConfigError when a write or
  /// the final flush failed (a full disk, say), so a run never reports a
  /// truncated trace as written.  Idempotent.  The destructor closes an
  /// open stream silently.
  void close();

 private:
  void emit(const std::string& line);

  TraceConfig config_;
  std::FILE* file_ = nullptr;
  std::uint64_t lines_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace mmptcp
