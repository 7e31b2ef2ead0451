#include "exp/perf_micro.h"

#include <memory>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "net/link.h"
#include "net/node.h"
#include "sim/simulation.h"

namespace mmptcp::exp {

namespace {

/// Deterministic 64-bit LCG (identical on every platform, unlike
/// std::minstd_rand's distribution helpers).
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

/// Node that forwards every arrival straight out its only egress port,
/// so injected packets circulate a ring forever: the Port/Channel/
/// Scheduler hot path with zero transport or stats machinery on top.
class Reflector final : public Node {
 public:
  using Node::Node;

  void receive(Packet pkt, std::size_t /*in_port*/) override {
    ++received_;
    port(0).enqueue(pkt);
  }

  std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
};

/// Ring of reflectors saturating every port: measures the link
/// serialisation -> channel propagation -> delivery event cycle.
RunOutcome run_link_churn(const RunContext& ctx) {
  constexpr std::size_t kNodes = 16;
  constexpr std::uint32_t kPacketsPerNode = 8;

  Simulation sim(ctx.seed);
  std::vector<std::unique_ptr<Reflector>> nodes;
  std::vector<std::unique_ptr<Channel>> channels;
  nodes.reserve(kNodes);
  channels.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<Reflector>(
        sim, static_cast<NodeId>(i),
        std::string("r").append(std::to_string(i))));
    channels.push_back(
        std::make_unique<Channel>(sim.scheduler(), Time::micros(5)));
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    channels[i]->attach_sink(nodes[(i + 1) % kNodes].get(), 0);
    // Unlimited queue: the ring is closed, so occupancy is bounded by
    // the injected packet count and nothing ever drops.
    nodes[i]->add_port(1'000'000'000, QueueLimits{.max_packets = 0},
                       channels[i].get(), LinkLayer::kOther);
  }

  Lcg rng{ctx.seed * 0x9E3779B97F4A7C15ULL + 1};
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::uint32_t j = 0; j < kPacketsPerNode; ++j) {
      Packet pkt;
      pkt.payload = 100 + static_cast<std::uint32_t>(rng.next() % 1400);
      pkt.sport = static_cast<std::uint16_t>(j);
      pkt.dport = static_cast<std::uint16_t>(i);
      nodes[i]->port(0).enqueue(pkt);
    }
  }
  sim.scheduler().run_until(Time::millis(300));

  std::uint64_t tx = 0, delivered = 0, dropped = 0;
  for (const auto& node : nodes) {
    tx += node->port(0).counters().tx_packets;
    dropped += node->port(0).counters().dropped_packets;
    delivered += node->received();
  }
  RunOutcome o;
  o.events = sim.scheduler().executed();
  o.set("events", double(o.events));
  o.set("tx_packets", double(tx));
  o.set("delivered", double(delivered));
  o.set("dropped", double(dropped));
  o.set("pending", double(sim.scheduler().pending()));
  return o;
}

/// One self-rescheduling timer chain with RTO-style arm/cancel churn.
struct Chain {
  Scheduler* sched = nullptr;
  Lcg rng{1};
  EventId far{};
  std::uint64_t fires = 0;
  std::uint64_t far_fires = 0;
  std::uint64_t checksum = 0;

  void fire() {
    ++fires;
    checksum = (checksum * 31 +
                static_cast<std::uint64_t>(sched->now().ns())) &
               0xFFFFFFFFULL;
    // RTO pattern: re-arm a far timer that almost never gets to run —
    // a heap insert plus an eager heap cancellation.
    if ((fires & 3) == 0) {
      sched->cancel(far);
      far = sched->schedule(
          Time::millis(150) +
              Time::nanos(static_cast<std::int64_t>(rng.next() % 1000000)),
          [this] { ++far_fires; });
    }
    // Mostly wheel-resident delays; every 64th fire jumps just past the
    // wheel horizon so the heap->wheel boundary is crossed constantly.
    Time delay =
        Time::nanos(1 + static_cast<std::int64_t>(rng.next() % 16000));
    if ((fires & 63) == 0) delay = Time::millis(5);
    sched->schedule(delay, [this] { fire(); });
  }
};

/// Timer churn on a bare Scheduler: no network objects at all.
RunOutcome run_timer_churn(const RunContext& ctx) {
  constexpr std::size_t kChains = 32;

  Scheduler sched;
  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(kChains);
  for (std::size_t i = 0; i < kChains; ++i) {
    auto chain = std::make_unique<Chain>();
    chain->sched = &sched;
    chain->rng = Lcg{ctx.seed * 0x9E3779B97F4A7C15ULL + i};
    Chain* raw = chain.get();
    sched.schedule(Time::nanos(static_cast<std::int64_t>(i)),
                   [raw] { raw->fire(); });
    chains.push_back(std::move(chain));
  }
  sched.run_until(Time::millis(400));

  std::uint64_t fires = 0, far_fires = 0, checksum = 0;
  for (const auto& chain : chains) {
    fires += chain->fires;
    far_fires += chain->far_fires;
    checksum ^= chain->checksum;
  }
  RunOutcome o;
  o.events = sched.executed();
  o.set("events", double(o.events));
  o.set("fires", double(fires));
  o.set("far_fires", double(far_fires));
  o.set("checksum", double(checksum));
  o.set("pending", double(sched.pending()));
  return o;
}

}  // namespace

void register_perf_micro(Registry& r) {
  r.add({
      .name = "perf_micro",
      .artefact = "engine hot-path microbenchmark (not a paper artefact)",
      .description = "pure scheduler/link event churn; events_per_second "
                     "sidecar isolates the event core from protocol work",
      .notes = "expected shape: metrics are exact determinism canaries "
               "(identical bytes at any --jobs); events_per_second in the "
               "timing sidecar is the core's throughput trend.",
      .axes = fixed_axes({{"pattern", {"link", "timer"}}}),
      .run =
          [](const RunContext& ctx) {
            return ctx.params.get("pattern") == "link"
                       ? run_link_churn(ctx)
                       : run_timer_churn(ctx);
          },
      // Every metric is an integer count from a deterministic run:
      // identical code must reproduce identical values, so any movement
      // is a real behaviour change that must refresh the baselines.
      // First matching pattern wins: list the timing aggregates before
      // the exact-match catch-all.
      .tolerances = join_tolerances(
          {timing_tolerances(),
           {{.pattern = "*", .warn_pct = 0.1, .fail_pct = 1.0}}}),
  });
}

}  // namespace mmptcp::exp
