// Property tests under adversarial random loss: whatever the drop
// pattern, a completed flow delivered every byte exactly once, and flows
// complete whenever loss stops short of killing the connection.

#include <cstdint>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "util/rng.h"

namespace mmptcp {
namespace {

using testing::MiniFatTree;

struct Param {
  Protocol proto;
  // gtest names each case after the object's raw bytes, so the padding
  // after `proto` is an explicit zeroed field: left implicit it held stack
  // garbage and the case names changed from one build to the next.
  std::uint8_t zero_pad[7] = {};
  double loss = 0;
  std::uint64_t seed = 0;
};
static_assert(sizeof(Param) == sizeof(Protocol) + sizeof(Param::zero_pad) +
                                   sizeof(double) + sizeof(std::uint64_t),
              "Param must have no implicit padding");

class RandomLoss : public ::testing::TestWithParam<Param> {};

TEST_P(RandomLoss, CompletedFlowsConserveBytes) {
  const Param p = GetParam();
  MiniFatTree net(FatTreeConfig{}, p.seed);
  // Bernoulli loss on every host NIC: data drops on the senders' side,
  // ACK drops on the receivers' side.
  auto rng = std::make_shared<Rng>(p.seed * 7919 + 13);
  const double rate = p.loss;
  auto bernoulli_drop = [rng, rate](const Packet& pkt, std::uint64_t) {
    // Never drop SYNs: SYN give-up would legitimately fail the flow and
    // this property targets the data path.
    if (pkt.is_syn()) return false;
    return rng->bernoulli(rate);
  };
  for (std::size_t h = 0; h < net.ft.host_count(); ++h) {
    net.ft.host(h).port(0).set_drop_filter(bernoulli_drop);
  }

  TransportConfig cfg;
  cfg.protocol = p.proto;
  cfg.subflows = 4;
  cfg.tcp.rto.min_rto = Time::millis(100);
  cfg.tcp.rto.initial_rto = Time::millis(100);
  cfg.tcp.conn_timeout = Time::millis(200);

  std::vector<ClientFlow*> flows;
  for (int i = 0; i < 6; ++i) {
    flows.push_back(&net.flow(i, 15 - i, cfg, 40 * 1024 + i * 1317));
  }
  net.run(Time::seconds(120));

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowRecord& rec = net.record(*flows[i]);
    ASSERT_TRUE(rec.is_complete())
        << to_string(p.proto) << " loss=" << p.loss << " flow " << i;
    ASSERT_EQ(rec.delivered_bytes, rec.request_bytes)
        << to_string(p.proto) << " loss=" << p.loss << " flow " << i;
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return to_string(info.param.proto) + "_loss" +
         std::to_string(int(info.param.loss * 100)) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomLoss,
    ::testing::Values(
        Param{.proto = Protocol::kTcp, .loss = 0.01, .seed = 1},
        Param{.proto = Protocol::kTcp, .loss = 0.05, .seed = 2},
        Param{.proto = Protocol::kMptcp, .loss = 0.01, .seed = 3},
        Param{.proto = Protocol::kMptcp, .loss = 0.05, .seed = 4},
        Param{.proto = Protocol::kPacketScatter, .loss = 0.01, .seed = 5},
        Param{.proto = Protocol::kPacketScatter, .loss = 0.05, .seed = 6},
        Param{.proto = Protocol::kMmptcp, .loss = 0.01, .seed = 7},
        Param{.proto = Protocol::kMmptcp, .loss = 0.05, .seed = 8},
        Param{.proto = Protocol::kMmptcp, .loss = 0.10, .seed = 9}),
    param_name);

TEST(RandomLossReceiver, DuplicatesNeverDoubleCount) {
  // Heavy ACK loss forces many retransmissions of data the receiver
  // already holds; delivered_bytes must still match exactly.
  MiniFatTree net;
  auto rng = std::make_shared<Rng>(99);
  net.ft.host(15).port(0).set_drop_filter(
      [rng](const Packet& pkt, std::uint64_t) {
        return pkt.payload == 0 && !pkt.is_syn() && rng->bernoulli(0.3);
      });
  TransportConfig cfg;
  cfg.protocol = Protocol::kMmptcp;
  cfg.tcp.rto.min_rto = Time::millis(100);
  cfg.tcp.rto.initial_rto = Time::millis(100);
  auto& flow = net.flow(0, 15, cfg, 200 * 1024);
  net.run(Time::seconds(60));
  const FlowRecord& rec = net.record(flow);
  ASSERT_TRUE(rec.is_complete());
  EXPECT_EQ(rec.delivered_bytes, 200u * 1024u);
  EXPECT_GT(rec.spurious_retransmits, 0u);  // the dup path was exercised
}

}  // namespace
}  // namespace mmptcp
