#include "sim/scheduler.h"

#include <algorithm>
#include <bit>

namespace mmptcp {

namespace {

/// EventId layout: generation in the high 32 bits, slot+1 in the low 32
/// (so slot 0 still yields a non-zero id).
constexpr std::uint64_t make_id(std::uint32_t slot, std::uint32_t gen) {
  return (std::uint64_t{gen} << 32) | (std::uint64_t{slot} + 1);
}

}  // namespace

Scheduler::Scheduler()
    : wheel_(kWheelBuckets, kNil), occupancy_(kWheelBuckets / 64, 0) {}

std::uint32_t Scheduler::alloc_slot() {
  if (free_list_.empty()) {
    nodes_.emplace_back();
    free_list_.push_back(static_cast<std::uint32_t>(nodes_.size() - 1));
  }
  const std::uint32_t slot = free_list_.back();
  free_list_.pop_back();
  return slot;
}

EventId Scheduler::commit(Time at, std::uint32_t slot) {
  Node& node = nodes_[slot];
  node.at = at;
  node.seq = next_seq_++;
  const std::uint64_t tick = tick_of(at);
  if (tick - tick_of(now_) < kWheelBuckets) {
    wheel_push(slot, tick);
  } else {
    heap_push(Ref{at, node.seq, slot});
  }
  return EventId{make_id(slot, node.gen)};
}

void Scheduler::cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value) - 1;
  if (slot >= nodes_.size()) return;
  Node& node = nodes_[slot];
  if (node.where == kFree ||
      node.gen != static_cast<std::uint32_t>(id.value >> 32)) {
    return;  // already executed, cancelled, or never issued
  }
  if (node.where == kInHeap) {
    heap_remove(node.pos);
  } else {
    wheel_remove(slot);
  }
  free_node(slot);
}

void Scheduler::free_node(std::uint32_t idx) {
  Node& node = nodes_[idx];
  node.cb.reset();
  node.where = kFree;
  ++node.gen;  // invalidate every outstanding id for this slot
  free_list_.push_back(idx);
}

// ---------------------------------------------------------------------------
// Indexed 4-ary min-heap
// ---------------------------------------------------------------------------

void Scheduler::heap_push(const Ref& ref) {
  nodes_[ref.node].where = kInHeap;
  nodes_[ref.node].pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(ref);
  heap_sift_up(heap_.size() - 1);
}

void Scheduler::heap_remove(std::uint32_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    nodes_[heap_[pos].node].pos = pos;
    heap_.pop_back();
    // The replacement came from the bottom: it may need to move either way.
    heap_sift_down(pos);
    heap_sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

void Scheduler::heap_sift_up(std::size_t i) {
  const Ref moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    nodes_[heap_[i].node].pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = moving;
  nodes_[moving.node].pos = static_cast<std::uint32_t>(i);
}

void Scheduler::heap_sift_down(std::size_t i) {
  const Ref moving = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    nodes_[heap_[i].node].pos = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = moving;
  nodes_[moving.node].pos = static_cast<std::uint32_t>(i);
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

void Scheduler::wheel_push(std::uint32_t slot, std::uint64_t tick) {
  const auto bucket = static_cast<std::uint32_t>(tick & (kWheelBuckets - 1));
  const std::uint32_t head = wheel_[bucket];
  Node& node = nodes_[slot];
  node.where = bucket;
  node.next = head;
  node.prev = kNil;
  if (head != kNil) {
    nodes_[head].prev = slot;
  } else {
    occupancy_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
  }
  wheel_[bucket] = slot;
  ++wheel_count_;
}

void Scheduler::wheel_remove(std::uint32_t slot) {
  const Node& node = nodes_[slot];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    wheel_[node.where] = node.next;
    if (node.next == kNil) {
      occupancy_[node.where >> 6] &=
          ~(std::uint64_t{1} << (node.where & 63));
    }
  }
  if (node.next != kNil) nodes_[node.next].prev = node.prev;
  --wheel_count_;
}

std::uint32_t Scheduler::wheel_first_bucket() const {
  // All occupied buckets hold ticks in [tick(now), tick(now) + buckets),
  // so ring order starting at now's bucket is tick order and the first
  // occupied bucket is the earliest.
  const auto start =
      static_cast<std::uint32_t>(tick_of(now_) & (kWheelBuckets - 1));
  std::size_t word = start >> 6;
  std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (start & 63));
  const std::size_t words = occupancy_.size();
  for (std::size_t i = 0; i <= words; ++i) {
    if (bits != 0) {
      return static_cast<std::uint32_t>((word << 6) +
                                        std::countr_zero(bits));
    }
    word = (word + 1) & (words - 1);
    bits = occupancy_[word];
  }
  check(false, "wheel_first_bucket called on an empty wheel");
  return 0;
}

Scheduler::Ref Scheduler::bucket_min(std::uint32_t bucket) const {
  // Lists are LIFO, and one bucket spans a whole tick, so the earliest
  // (at, seq) may sit anywhere in the list: compare keys, never order.
  std::uint32_t slot = wheel_[bucket];
  Ref best{nodes_[slot].at, nodes_[slot].seq, slot};
  for (slot = nodes_[slot].next; slot != kNil; slot = nodes_[slot].next) {
    const Ref candidate{nodes_[slot].at, nodes_[slot].seq, slot};
    if (before(candidate, best)) best = candidate;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool Scheduler::peek(Ref& out) const {
  if (wheel_count_ > 0) {
    out = bucket_min(wheel_first_bucket());
    // A heap event can still be earlier: far-future events stay in the
    // heap as their time approaches instead of migrating to the wheel.
    if (!heap_.empty() && before(heap_.front(), out)) out = heap_.front();
    return true;
  }
  if (!heap_.empty()) {
    out = heap_.front();
    return true;
  }
  return false;
}

Scheduler::Callback Scheduler::extract(const Ref& ref) {
  Node& node = nodes_[ref.node];
  if (node.where == kInHeap) {
    heap_remove(node.pos);
  } else {
    wheel_remove(ref.node);
  }
  // Free before running: the callback may schedule (reusing this slot)
  // and pending() must not count the event being executed.
  Callback cb = std::move(node.cb);
  free_node(ref.node);
  return cb;
}

std::uint64_t Scheduler::run_until(Time until) {
  std::uint64_t ran = 0;
  stop_requested_ = false;
  Ref ref;
  while (peek(ref)) {
    if (ref.at > until) break;
    now_ = ref.at;
    Callback cb = extract(ref);
    cb();
    ++executed_;
    ++ran;
    if (stop_requested_) break;
  }
  if (now_ < until && !stop_requested_) now_ = until;
  return ran;
}

std::uint64_t Scheduler::run_window(Time end) {
  std::uint64_t ran = 0;
  stop_requested_ = false;
  Ref ref;
  while (peek(ref)) {
    if (ref.at >= end) break;
    now_ = ref.at;
    Callback cb = extract(ref);
    cb();
    ++executed_;
    ++ran;
    if (stop_requested_) break;
  }
  if (now_ < end && !stop_requested_) now_ = end;
  return ran;
}

std::uint64_t Scheduler::run() {
  std::uint64_t ran = 0;
  stop_requested_ = false;
  Ref ref;
  while (peek(ref)) {
    now_ = ref.at;
    Callback cb = extract(ref);
    cb();
    ++executed_;
    ++ran;
    if (stop_requested_) break;
  }
  return ran;
}

bool Scheduler::step() {
  Ref ref;
  if (!peek(ref)) return false;
  now_ = ref.at;
  Callback cb = extract(ref);
  cb();
  ++executed_;
  return true;
}

}  // namespace mmptcp
