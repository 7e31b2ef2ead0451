#include "trace/recorder.h"

// The result sink's writer already guarantees deterministic bytes (fixed
// key order, canonical number rendering); trace lines reuse it so both
// output families share one formatting contract.
#include "exp/json.h"
#include "util/check.h"

namespace mmptcp {

using exp::JsonWriter;

TraceRecorder::TraceRecorder(const TraceConfig& config) : config_(config) {
  require(config_.enabled(),
          "TraceRecorder needs at least one channel and an output path");
  file_ = std::fopen(config_.path.c_str(), "w");
  require(file_ != nullptr,
          "cannot open trace file " + config_.path + " for writing");
  JsonWriter w;
  w.begin_object();
  w.key("kind").value("trace");
  w.key("schema_version").value(std::uint64_t{1});
  w.key("experiment").value(config_.experiment);
  w.key("run").value(config_.run_id);
  w.key("seed").value(config_.seed);
  w.key("channels").value(trace_channels_to_string(config_.channels));
  w.key("interval_ns").value(std::int64_t{config_.interval.ns()});
  w.end_object();
  emit(w.str());
}

TraceRecorder::~TraceRecorder() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceRecorder::close() {
  if (file_ == nullptr) return;
  const bool write_failed = std::ferror(file_) != 0;
  const bool close_failed = std::fclose(file_) != 0;
  file_ = nullptr;
  require(!write_failed && !close_failed,
          "error writing trace file " + config_.path);
}

void TraceRecorder::emit(const std::string& line) {
  check(file_ != nullptr, "trace emit after close");
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  ++lines_;
  bytes_ += line.size() + 1;
}

void TraceRecorder::queue_sample(Time t, const std::string& port,
                                 std::uint64_t depth, std::uint64_t bytes,
                                 std::uint64_t marks, std::uint64_t drops) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value(std::int64_t{t.ns()});
  w.key("ch").value("queue");
  w.key("port").value(port);
  w.key("depth").value(depth);
  w.key("bytes").value(bytes);
  w.key("marks").value(marks);
  w.key("drops").value(drops);
  w.end_object();
  emit(w.str());
}

void TraceRecorder::queue_event(Time t, const std::string& port,
                                const char* event, std::uint64_t depth) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value(std::int64_t{t.ns()});
  w.key("ch").value("queue");
  w.key("port").value(port);
  w.key("event").value(event);
  w.key("depth").value(depth);
  w.end_object();
  emit(w.str());
}

void TraceRecorder::cwnd_sample(Time t, std::uint32_t flow, int subflow,
                                const char* event, std::uint64_t cwnd,
                                std::uint64_t ssthresh,
                                std::optional<double> alpha, Time srtt) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value(std::int64_t{t.ns()});
  w.key("ch").value("cwnd");
  w.key("flow").value(std::uint64_t{flow});
  w.key("sf").value(std::int64_t{subflow});
  w.key("event").value(event);
  w.key("cwnd").value(cwnd);
  w.key("ssthresh").value(ssthresh);
  if (alpha.has_value()) w.key("alpha").value(*alpha);
  w.key("srtt_ns").value(std::int64_t{srtt.ns()});
  w.end_object();
  emit(w.str());
}

void TraceRecorder::phase_switch(Time t, std::uint32_t flow,
                                 std::uint64_t ps_bytes) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value(std::int64_t{t.ns()});
  w.key("ch").value("phase");
  w.key("flow").value(std::uint64_t{flow});
  w.key("event").value("switch");
  w.key("ps_bytes").value(ps_bytes);
  w.end_object();
  emit(w.str());
}

void TraceRecorder::retx_event(Time t, std::uint32_t flow, int subflow,
                               const char* kind) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value(std::int64_t{t.ns()});
  w.key("ch").value("retx");
  w.key("flow").value(std::uint64_t{flow});
  w.key("sf").value(std::int64_t{subflow});
  w.key("event").value(kind);
  w.end_object();
  emit(w.str());
}

void TraceRecorder::sched_sample(Time t, std::uint64_t executed,
                                 std::size_t wheel, std::size_t heap) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value(std::int64_t{t.ns()});
  w.key("ch").value("sched");
  w.key("executed").value(executed);
  w.key("pending").value(std::uint64_t{wheel + heap});
  w.key("wheel").value(std::uint64_t{wheel});
  w.key("heap").value(std::uint64_t{heap});
  w.end_object();
  emit(w.str());
}

}  // namespace mmptcp
