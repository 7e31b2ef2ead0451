#pragma once

// Discrete-event scheduler.
//
// Events are closures ordered by (time, insertion sequence); the
// sequence tie-break makes same-timestamp execution FIFO and therefore
// runs fully deterministic.  Two structures back the queue:
//
//  * a hashed timer wheel for the near future — link serialisation,
//    propagation and pacing delays, which dominate the workload.  Each
//    of the kWheelBuckets buckets covers one 2^kTickShift ns tick and is
//    an intrusive doubly-linked list threaded through the node pool, so
//    the wheel itself is one 32-bit head slot per bucket (16 KB) plus an
//    occupancy bitmap.  Insertion and cancellation are O(1) link edits
//    and find-next is a couple of word scans;
//  * an indexed 4-ary min-heap for everything beyond the wheel horizon
//    (RTO timers, staggered flow starts).
//
// Every event owns a slot in a free-listed node pool; EventIds encode
// (slot, generation), so cancellation is *eager* — the entry is removed
// from its structure immediately (O(1) wheel, O(log n) heap), stale ids
// are rejected by the generation check, and pending() is exact.  The
// callback type is EventFn: captures up to ~88 bytes (a Packet plus a
// receiver pointer) live inline in the node, so the steady-state hot
// path performs no heap allocation at all.

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"
#include "util/check.h"

namespace mmptcp {

/// Opaque handle to a scheduled event (0 is never a valid id).
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
};

/// Timer-wheel + indexed-heap discrete-event queue with deterministic
/// ordering and eager cancellation.
class Scheduler {
 public:
  using Callback = EventFn;

  /// Wheel geometry: 4096 buckets of 1.024 us cover a ~4.2 ms horizon,
  /// which holds every serialisation/propagation/queueing delay the
  /// simulated fabrics produce; RTOs, periodic checks and flow starts
  /// overflow the horizon and take the heap path.
  static constexpr unsigned kTickShift = 10;  ///< 2^10 ns per tick
  static constexpr unsigned kWheelBits = 12;  ///< 2^12 buckets
  static constexpr std::size_t kWheelBuckets = std::size_t{1} << kWheelBits;

  Scheduler();

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `cb` to run `delay` from now. Negative delays are rejected.
  /// Templated so the functor is constructed straight into its pool node
  /// — the capture is never relocated between schedule and execution.
  template <typename F>
  EventId schedule(Time delay, F&& cb) {
    dcheck(!delay.is_negative(), "cannot schedule into the past");
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Schedules `cb` at absolute time `at` (must be >= now()).
  template <typename F>
  EventId schedule_at(Time at, F&& cb) {
    dcheck(at >= now_, "cannot schedule before the current time");
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      dcheck(static_cast<bool>(cb), "cannot schedule an empty callback");
    }
    const std::uint32_t slot = alloc_slot();
    nodes_[slot].cb = std::forward<F>(cb);
    return commit(at, slot);
  }

  /// Eagerly removes a pending event; cancelling an already-run or
  /// already-cancelled event is a harmless no-op.
  void cancel(EventId id);

  /// Runs events with timestamp <= `until`; returns the number executed.
  /// The clock ends at `until` (or later if an executed event advanced it).
  std::uint64_t run_until(Time until);

  /// Runs events with timestamp strictly below `end` and leaves the clock
  /// at `end` (unless stop() fired mid-window).  This is the conservative
  /// parallel window primitive: the caller guarantees no event earlier
  /// than `end` can still arrive from outside this scheduler.
  std::uint64_t run_window(Time end);

  /// Timestamp of the earliest pending event; false when the queue is
  /// empty.  Used by the window loop to find the global next event time.
  bool next_time(Time& out) const {
    Ref ref;
    if (!peek(ref)) return false;
    out = ref.at;
    return true;
  }

  /// Runs until the queue drains completely.
  std::uint64_t run();

  /// Runs at most one event; returns false when the queue is empty.
  bool step();

  /// Requests that run()/run_until()/run_window() return after the
  /// current event.
  void stop() { stop_requested_ = true; }
  /// True when the last run broke out early because of stop().
  bool stop_requested() const { return stop_requested_; }

  /// Number of live pending events.  Exact: cancellation removes the
  /// entry immediately, so no tombstones ever inflate or deflate this.
  std::size_t pending() const { return heap_.size() + wheel_count_; }
  std::uint64_t executed() const { return executed_; }
  /// Occupancy split between the two backing structures (trace-layer
  /// self-telemetry: how much of the load the wheel actually absorbs).
  std::size_t wheel_pending() const { return wheel_count_; }
  std::size_t heap_pending() const { return heap_.size(); }

 private:
  /// Where a node's queue entry currently lives.
  static constexpr std::uint32_t kInHeap = 0xFFFFFFFFu;
  static constexpr std::uint32_t kFree = 0xFFFFFFFEu;
  /// End of a bucket list (and the head of an empty bucket).
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Pool slot owning one event's key, queue links and callback.  The
  /// key and links fill the first 32 bytes, so a bucket walk reads those
  /// and never the callback.
  struct Node {
    Time at;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;        ///< bumped on free; stale ids mismatch
    std::uint32_t where = kFree;  ///< kInHeap, kFree, or bucket index
    union {
      std::uint32_t pos = 0;  ///< kInHeap: index within heap_
      std::uint32_t next;     ///< in a bucket: next slot, kNil at the tail
    };
    std::uint32_t prev = kNil;  ///< in a bucket: previous slot, kNil at head
    EventFn cb;
  };

 public:
  /// Bytes per pooled event: the pool is the scheduler's whole per-event
  /// footprint (the tests pin it at two cache lines).
  static constexpr std::size_t kNodeBytes = sizeof(Node);

 private:
  /// An event's key and slot, no callback: what the comparator needs.
  /// The heap stores these, so its sifts move 24 bytes and never touch
  /// the pool.
  struct Ref {
    Time at;
    std::uint64_t seq = 0;
    std::uint32_t node = 0;
  };

  static bool before(const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  static std::uint64_t tick_of(Time t) {
    return static_cast<std::uint64_t>(t.ns()) >> kTickShift;
  }

  /// Pops a free pool slot (growing the pool when exhausted).
  std::uint32_t alloc_slot();
  /// Inserts slot's event at `at` into the wheel or heap; returns its id.
  EventId commit(Time at, std::uint32_t slot);
  void free_node(std::uint32_t idx);

  // -- indexed 4-ary heap (far-future events) --
  void heap_push(const Ref& ref);
  void heap_remove(std::uint32_t pos);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);

  // -- timer wheel (near-future events) --
  void wheel_push(std::uint32_t slot, std::uint64_t tick);
  void wheel_remove(std::uint32_t slot);
  /// Earliest occupied bucket at or after now(); wheel must be non-empty.
  std::uint32_t wheel_first_bucket() const;
  /// Earliest (at, seq) entry of the non-empty `bucket`.
  Ref bucket_min(std::uint32_t bucket) const;

  /// True if a live event exists; fills `out` with the earliest one.
  bool peek(Ref& out) const;
  /// Removes `ref` (as returned by peek) from its structure and moves
  /// its callback out, freeing the node before execution.
  Callback extract(const Ref& ref);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_list_;
  std::vector<Ref> heap_;
  std::vector<std::uint32_t> wheel_;      ///< head slot per bucket, or kNil
  std::vector<std::uint64_t> occupancy_;  ///< one bit per wheel bucket
  std::size_t wheel_count_ = 0;
  Time now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace mmptcp
