#include "topo/network.h"

#include <algorithm>
#include <cstdint>

namespace mmptcp {

Host& Network::make_host(std::string name, Addr addr) {
  hosts_.push_back(
      std::make_unique<Host>(sim_, next_id_++, std::move(name), addr));
  return *hosts_.back();
}

Switch& Network::make_switch(std::string name) {
  switches_.push_back(
      std::make_unique<Switch>(sim_, next_id_++, std::move(name)));
  return *switches_.back();
}

void Network::connect(Node& a, Node& b, const LinkSpec& spec) {
  auto pool_of = [](Node& n) -> SharedBufferPool* {
    if (auto* sw = dynamic_cast<Switch*>(&n)) return sw->shared_buffer();
    return nullptr;
  };
  // Arrivals run in the receiving node's domain.  The two directions of
  // one full-duplex link may therefore live in different schedulers.
  Scheduler& a_sched = sim_.domain_scheduler(a.domain());
  Scheduler& b_sched = sim_.domain_scheduler(b.domain());
  channels_.push_back(std::make_unique<Channel>(b_sched, spec.delay));
  Channel& ab = *channels_.back();
  channels_.push_back(std::make_unique<Channel>(a_sched, spec.delay));
  Channel& ba = *channels_.back();
  // A channel crosses iff its endpoints run in different domains; with
  // domains unconfigured nothing ever crosses (pure serial path).
  if (sim_.num_domains() > 0 && a.domain() != b.domain()) {
    ab.make_cross_domain(a_sched, &outbox(a.domain(), b.domain()));
    ba.make_cross_domain(b_sched, &outbox(b.domain(), a.domain()));
    cross_delay_min_ = std::min(cross_delay_min_, spec.delay);
    cross_channels_ += 2;
  }

  const std::size_t ap = a.add_port(spec.rate_bps, spec.queue, &ab,
                                    spec.layer, pool_of(a), spec.qdisc);
  const std::size_t bp =
      b.add_port(spec.rate_bps, spec.queue_b.value_or(spec.queue), &ba,
                 spec.layer, pool_of(b), spec.qdisc_b.value_or(spec.qdisc));
  ab.attach_sink(&b, bp);
  ba.attach_sink(&a, ap);
}

CrossDomainOutbox& Network::outbox(std::size_t src, std::size_t dst) {
  if (inbound_.size() <= dst) {
    inbound_.resize(dst + 1);
    flush_scratch_.resize(dst + 1);
  }
  for (const Inbound& in : inbound_[dst]) {
    if (in.src == src) return *in.box;
  }
  outboxes_.push_back(std::make_unique<CrossDomainOutbox>());
  inbound_[dst].push_back(Inbound{src, outboxes_.back().get()});
  return *outboxes_.back();
}

void Network::flush_cross_domain() {
  for (std::size_t dst = 0; dst < inbound_.size(); ++dst) {
    flush_cross_domain_into(dst);
  }
}

void Network::flush_cross_domain_into(std::size_t dst) {
  if (dst >= inbound_.size()) return;
  std::vector<FlushRef>& scratch = flush_scratch_[dst];
  scratch.clear();
  for (const Inbound& in : inbound_[dst]) {
    for (CrossDomainOutbox::Entry& e : in.box->entries()) {
      scratch.push_back(FlushRef{e.at, in.src, e.seq, &e});
    }
  }
  if (scratch.empty()) return;
  // Sequence numbers count per (source, destination) outbox, not per
  // source, but only entries bound for this scheduler are compared
  // here, and among those a source's numbers still follow its emission
  // order — so each scheduler receives exactly the insertion sequence a
  // single global (time, source, seq) sort would give it.
  std::sort(scratch.begin(), scratch.end(),
            [](const FlushRef& x, const FlushRef& y) {
              if (x.at != y.at) return x.at < y.at;
              if (x.src != y.src) return x.src < y.src;
              return x.seq < y.seq;
            });
  for (const FlushRef& ref : scratch) {
    ref.entry->channel->deliver_at(ref.at, ref.entry->pkt);
  }
  for (const Inbound& in : inbound_[dst]) in.box->clear();
}

std::uint64_t Network::unroutable_total() const {
  std::uint64_t sum = 0;
  for (const auto& s : switches_) sum += s->unroutable();
  return sum;
}

void Network::for_each_port(
    const std::function<void(const Node&, const Port&)>& fn) const {
  for (const auto& h : hosts_) {
    for (std::size_t i = 0; i < h->port_count(); ++i) fn(*h, h->port(i));
  }
  for (const auto& s : switches_) {
    for (std::size_t i = 0; i < s->port_count(); ++i) fn(*s, s->port(i));
  }
}

}  // namespace mmptcp
