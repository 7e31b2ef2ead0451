#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/packet_tap.h"
#include "net/queue.h"
#include "sim/simulation.h"
#include "trace/recorder.h"
#include "util/check.h"
#include "workload/scenario.h"

namespace mmptcp {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------- channels

TEST(TraceChannels, ParsesNamesAndLists) {
  EXPECT_EQ(parse_trace_channels("queue"), kTraceQueue);
  EXPECT_EQ(parse_trace_channels("queue,cwnd"), kTraceQueue | kTraceCwnd);
  EXPECT_EQ(parse_trace_channels("sched,retx,phase"),
            kTraceSched | kTraceRetx | kTracePhase);
  EXPECT_EQ(parse_trace_channels("all"), kTraceAllChannels);
}

TEST(TraceChannels, RoundTripsThroughCanonicalString) {
  const std::uint32_t mask = kTraceQueue | kTracePhase | kTraceSched;
  EXPECT_EQ(parse_trace_channels(trace_channels_to_string(mask)), mask);
  EXPECT_EQ(trace_channels_to_string(0), "");
}

TEST(TraceChannels, RejectsUnknownAndEmpty) {
  EXPECT_THROW(parse_trace_channels("qeue"), ConfigError);
  EXPECT_THROW(parse_trace_channels(""), ConfigError);
  EXPECT_THROW(parse_trace_channels("queue,,cwnd"), ConfigError);
}

// The sampler interval flag parses through parse_duration; units matter
// (a "1ms" default silently read as 1ns would melt the trace file).
TEST(TraceChannels, SamplerIntervalUnits) {
  EXPECT_EQ(parse_duration("1ms"), Time::millis(1));
  EXPECT_EQ(parse_duration("250us"), Time::micros(250));
  EXPECT_EQ(parse_duration("2s"), Time::seconds(2));
  EXPECT_EQ(parse_duration("100ns"), Time::nanos(100));
  EXPECT_EQ(parse_duration("1.5ms"), Time::micros(1500));
  EXPECT_THROW(parse_duration(""), ConfigError);
  EXPECT_THROW(parse_duration("12"), ConfigError);       // unit required
  EXPECT_THROW(parse_duration("5parsecs"), ConfigError);
  EXPECT_THROW(parse_duration("-1ms"), ConfigError);
}

// ---------------------------------------------------------------- recorder

TraceConfig test_config(const std::string& file, std::uint32_t channels) {
  TraceConfig cfg;
  cfg.channels = channels;
  cfg.path = ::testing::TempDir() + file;
  cfg.experiment = "unit";
  cfg.run_id = "seed=7";
  cfg.seed = 7;
  return cfg;
}

TEST(TraceRecorderTest, HeaderCarriesProvenanceAndCountsMatchTheFile) {
  const TraceConfig cfg =
      test_config("rec_header.jsonl", kTraceQueue | kTraceCwnd);
  TraceRecorder rec(cfg);
  EXPECT_TRUE(rec.wants(kTraceQueue));
  EXPECT_TRUE(rec.wants(kTraceCwnd));
  EXPECT_FALSE(rec.wants(kTraceSched));

  rec.queue_sample(Time::micros(5), "sw0-p1", 3, 4500, 0, 0);
  rec.queue_event(Time::micros(9), "sw0-p1", "drop", 100);
  rec.cwnd_sample(Time::micros(12), 42, 1, "ack", 14600, 29200, 0.5,
                  Time::micros(120));
  rec.close();

  const auto lines = read_lines(cfg.path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(rec.lines(), 4u);

  // Header: provenance + the enabled channel set, rendered canonically.
  EXPECT_TRUE(contains(lines[0], "\"kind\":\"trace\"")) << lines[0];
  EXPECT_TRUE(contains(lines[0], "\"schema_version\":1")) << lines[0];
  EXPECT_TRUE(contains(lines[0], "\"experiment\":\"unit\"")) << lines[0];
  EXPECT_TRUE(contains(lines[0], "\"run\":\"seed=7\"")) << lines[0];
  EXPECT_TRUE(contains(lines[0], "\"channels\":\"queue,cwnd\"")) << lines[0];

  // Records: fixed field order is part of the schema.
  EXPECT_EQ(lines[1],
            "{\"t\":5000,\"ch\":\"queue\",\"port\":\"sw0-p1\",\"depth\":3,"
            "\"bytes\":4500,\"marks\":0,\"drops\":0}");
  EXPECT_EQ(lines[2],
            "{\"t\":9000,\"ch\":\"queue\",\"port\":\"sw0-p1\","
            "\"event\":\"drop\",\"depth\":100}");

  // Byte telemetry equals what is actually on disk.
  std::uint64_t total = 0;
  for (const auto& l : lines) total += l.size() + 1;
  EXPECT_EQ(rec.bytes_written(), total);
}

TEST(TraceRecorderTest, AlphaFieldAppearsOnlyForEcnControllers) {
  const TraceConfig cfg = test_config("rec_alpha.jsonl", kTraceCwnd);
  TraceRecorder rec(cfg);
  rec.cwnd_sample(Time::zero(), 1, -1, "ack", 1460, 2920, std::nullopt,
                  Time::micros(100));
  rec.cwnd_sample(Time::zero(), 2, 0, "ack", 1460, 2920, 0.25,
                  Time::micros(100));
  rec.close();
  const auto lines = read_lines(cfg.path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_FALSE(contains(lines[1], "alpha")) << lines[1];
  EXPECT_TRUE(contains(lines[1], "\"sf\":-1")) << lines[1];  // single-path
  EXPECT_TRUE(contains(lines[2], "\"alpha\":0.25")) << lines[2];
}

TEST(TraceRecorderTest, RefusesDisabledConfigAndUnwritablePath) {
  TraceConfig off;  // no channels, no path
  EXPECT_THROW(TraceRecorder{off}, ConfigError);
  TraceConfig bad = test_config("x.jsonl", kTraceQueue);
  bad.path = "/nonexistent-dir-xyz/t.jsonl";
  EXPECT_THROW(TraceRecorder{bad}, ConfigError);
}

TEST(TraceRecorderTest, CloseReportsAFailedFinalFlush) {
  // /dev/full takes the buffered header and fails only the final flush.
  TraceConfig full = test_config("x.jsonl", kTraceQueue);
  full.path = "/dev/full";
  if (std::FILE* probe = std::fopen(full.path.c_str(), "w")) {
    std::fclose(probe);
  } else {
    GTEST_SKIP() << "/dev/full is not available";
  }
  TraceRecorder rec(full);
  EXPECT_THROW(rec.close(), ConfigError);
  rec.close();  // idempotent once closed
}

// ------------------------------------------------------------- port events

/// Swallows deliveries so a Port/Channel pair can run standalone.
class NullSink final : public Node {
 public:
  NullSink(Simulation& sim, NodeId id) : Node(sim, id, "null") {}
  void receive(Packet, std::size_t) override {}
};

Packet data_packet(std::uint32_t payload, bool ect = false) {
  Packet p;
  p.payload = payload;
  if (ect) p.ecn = ecn_bits::kEct;
  return p;
}

TEST(TracePort, OverflowDropEmitsQueueEvent) {
  const TraceConfig cfg = test_config("port_drop.jsonl", kTraceQueue);
  Simulation sim(1);
  TraceRecorder rec(cfg);
  sim.set_trace(&rec, rec.channels());  // before Port: the ctor caches it

  NullSink sink(sim, 0);
  Channel channel(sim.scheduler(), Time::micros(10));
  channel.attach_sink(&sink, 0);
  Port port(sim, sim.scheduler(), "edge0-up", 100'000'000, QueueLimits{2, 0}, &channel,
            LinkLayer::kEdgeAgg);
  for (int i = 0; i < 5; ++i) port.enqueue(data_packet(1460));
  sim.scheduler().run();
  rec.close();

  EXPECT_EQ(port.counters().dropped_packets, 2u);
  std::size_t drops = 0;
  for (const auto& line : read_lines(cfg.path)) {
    if (contains(line, "\"event\":\"drop\"")) {
      ++drops;
      EXPECT_TRUE(contains(line, "\"port\":\"edge0-up\"")) << line;
    }
  }
  EXPECT_EQ(drops, 2u);
}

TEST(TracePort, CeMarkEmitsQueueEvent) {
  const TraceConfig cfg = test_config("port_mark.jsonl", kTraceQueue);
  Simulation sim(1);
  TraceRecorder rec(cfg);
  sim.set_trace(&rec, rec.channels());

  NullSink sink(sim, 0);
  Channel channel(sim.scheduler(), Time::micros(10));
  channel.attach_sink(&sink, 0);
  QdiscConfig ecn;
  ecn.kind = QdiscKind::kEcnRed;
  ecn.ecn_threshold_packets = 1;
  Port port(sim, sim.scheduler(), "sw-ecn", 100'000'000, QueueLimits{100, 0}, &channel,
            LinkLayer::kEdgeAgg, nullptr, ecn);
  // Back-to-back ECT arrivals: the first serialises immediately, the
  // second sits alone (below K), the third meets a standing queue >= K
  // and gets CE-marked.
  for (int i = 0; i < 3; ++i) port.enqueue(data_packet(1460, true));
  sim.scheduler().run();
  rec.close();

  EXPECT_EQ(port.qdisc().marked_packets(), 1u);
  std::size_t marks = 0;
  for (const auto& line : read_lines(cfg.path)) {
    if (contains(line, "\"event\":\"mark\"")) ++marks;
  }
  EXPECT_EQ(marks, 1u);
}

// ------------------------------------------------------------ peak moment

TEST(QdiscPeak, TimestampRecordsFirstTimeThePeakWasReached) {
  Simulation sim(1);
  DropTailQueue q(QueueLimits{10, 0});
  q.set_clock(&sim.scheduler());
  sim.scheduler().schedule(Time::micros(10), [&] {
    q.try_push(data_packet(100));
    q.try_push(data_packet(100));  // peak 2, first reached at 10us
  });
  sim.scheduler().schedule(Time::micros(20), [&] {
    q.pop();
    q.try_push(data_packet(100));  // back at 2: NOT a new peak
  });
  sim.scheduler().schedule(Time::micros(30), [&] {
    q.try_push(data_packet(100));  // 3: new peak
  });
  sim.scheduler().run();
  EXPECT_EQ(q.peak_packets(), 3u);
  EXPECT_EQ(q.peak_at(), Time::micros(30));
}

TEST(QdiscPeak, UnclockedQueueReadsZero) {
  DropTailQueue q(QueueLimits{10, 0});
  q.try_push(data_packet(100));
  EXPECT_EQ(q.peak_packets(), 1u);
  EXPECT_EQ(q.peak_at(), Time::zero());
}

// ------------------------------------------------------------- packet tap

// PacketTap moved from the test suite into the library (net/packet_tap.h);
// make sure the promoted instrument still observes and still drops.
TEST(PacketTapLib, ObservesEveryOfferAndDropsByPredicate) {
  Simulation sim(1);
  NullSink sink(sim, 0);
  Channel channel(sim.scheduler(), Time::micros(10));
  channel.attach_sink(&sink, 0);
  Port port(sim, sim.scheduler(), "p", 100'000'000, QueueLimits{100, 0}, &channel,
            LinkLayer::kHostEdge);
  PacketTap tap(port, [](const Packet& pkt) { return pkt.payload == 2; });
  for (std::uint32_t payload = 1; payload <= 3; ++payload) {
    port.enqueue(data_packet(payload));
  }
  sim.scheduler().run();
  EXPECT_EQ(tap.count(), 3u);  // sees drops too
  EXPECT_EQ(tap.seen()[1].payload, 2u);
  EXPECT_EQ(port.counters().injected_drops, 1u);
  EXPECT_EQ(port.counters().tx_packets, 2u);
}

// ------------------------------------------------- end-to-end incast trace

TEST(TraceIncast, RecordsEveryChannelWithMonotonicTimestamps) {
  ScenarioConfig cfg;
  cfg.incast_senders = 6;
  cfg.incast_elephants = 2;
  cfg.short_flow_bytes = 30 * 1024;
  cfg.incast_start = Time::millis(30);
  cfg.check_interval = Time::millis(10);
  cfg.max_sim_time = Time::seconds(60);
  cfg.transport.protocol = Protocol::kMmptcpDctcp;
  cfg.transport.subflows = 2;
  // Switch well below the short-flow size so phase events are guaranteed.
  cfg.transport.phase.volume_bytes = 16 * 1024;
  cfg.fat_tree.qdisc.kind = QdiscKind::kEcnRed;
  cfg.fat_tree.qdisc.ecn_threshold_packets = 20;
  cfg.trace = test_config("incast_all.jsonl", kTraceAllChannels);
  cfg.trace.experiment = "incast_unit";

  Scenario sc(cfg);
  sc.run();
  EXPECT_EQ(sc.short_completion_ratio(), 1.0);

  const auto lines = read_lines(cfg.trace.path);
  ASSERT_GT(lines.size(), 1u);
  // Run telemetry matches the file exactly: run() closed the recorder.
  ASSERT_NE(sc.trace(), nullptr);
  EXPECT_EQ(sc.trace()->lines(), lines.size());
  std::uint64_t bytes = 0;
  for (const auto& l : lines) bytes += l.size() + 1;
  EXPECT_EQ(sc.trace()->bytes_written(), bytes);

  bool queue = false, cwnd = false, phase = false, sched = false;
  bool subflow_sample = false, alpha = false;
  std::int64_t last_t = -1;
  std::map<std::string, std::string> last_queue_sample;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    queue = queue || contains(line, "\"ch\":\"queue\"");
    cwnd = cwnd || contains(line, "\"ch\":\"cwnd\"");
    phase = phase || contains(line, "\"ch\":\"phase\"");
    sched = sched || contains(line, "\"ch\":\"sched\"");
    subflow_sample = subflow_sample || contains(line, "\"sf\":0");
    alpha = alpha || contains(line, "\"alpha\":");

    // Timestamps never run backwards: emission follows simulated time.
    const auto t_pos = line.find("\"t\":");
    ASSERT_NE(t_pos, std::string::npos) << line;
    const std::int64_t t = std::stoll(line.substr(t_pos + 4));
    EXPECT_GE(t, last_t) << line;
    last_t = t;

    // Sampler snapshots are delta-compressed: two consecutive snapshots
    // of the same port always differ in some field besides the time.
    if (contains(line, "\"ch\":\"queue\"") && !contains(line, "event")) {
      const auto port_pos = line.find("\"port\":");
      const std::string rest = line.substr(port_pos);  // port + fields
      const auto port_end = rest.find(',');
      const std::string port = rest.substr(0, port_end);
      auto it = last_queue_sample.find(port);
      if (it != last_queue_sample.end()) {
        EXPECT_NE(it->second, rest) << "duplicate snapshot: " << line;
      }
      last_queue_sample[port] = rest;
    }
  }
  EXPECT_TRUE(queue);
  EXPECT_TRUE(cwnd);
  EXPECT_TRUE(phase);
  EXPECT_TRUE(sched);
  EXPECT_TRUE(subflow_sample);
  EXPECT_TRUE(alpha);
}

// A channel filter keeps every other channel out of the file entirely.
TEST(TraceIncast, ChannelFilterSuppressesUnselectedChannels) {
  ScenarioConfig cfg;
  cfg.incast_senders = 4;
  cfg.short_flow_bytes = 20 * 1024;
  cfg.max_sim_time = Time::seconds(60);
  cfg.transport.protocol = Protocol::kTcp;
  cfg.trace = test_config("incast_queue_only.jsonl", kTraceQueue);

  Scenario sc(cfg);
  sc.run();
  EXPECT_GT(sc.trace()->lines(), 0u);
  const auto lines = read_lines(cfg.trace.path);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_TRUE(contains(lines[i], "\"ch\":\"queue\"")) << lines[i];
  }
}

}  // namespace
}  // namespace mmptcp
