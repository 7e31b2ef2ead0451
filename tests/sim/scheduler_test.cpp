#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mmptcp {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Time::millis(3), [&] { order.push_back(3); });
  s.schedule(Time::millis(1), [&] { order.push_back(1); });
  s.schedule(Time::millis(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::millis(3));
}

TEST(Scheduler, SameTimestampIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(Time::millis(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  Time seen;
  s.schedule(Time::micros(250), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Time::micros(250));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule(Time::millis(1), [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelAfterExecutionIsNoop) {
  Scheduler s;
  const EventId id = s.schedule(Time::millis(1), [] {});
  s.run();
  s.cancel(id);  // must not disturb future events
  bool ran = false;
  s.schedule(Time::millis(1), [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler s;
  s.cancel(EventId{});
  s.cancel(EventId{9999});
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Time::millis(1), [&] { order.push_back(1); });
  s.schedule(Time::millis(10), [&] { order.push_back(10); });
  const auto ran = s.run_until(Time::millis(5));
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), Time::millis(5));  // clock parked at the horizon
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
}

TEST(Scheduler, RunUntilIncludesEventsAtHorizon) {
  Scheduler s;
  bool ran = false;
  s.schedule(Time::millis(5), [&] { ran = true; });
  s.run_until(Time::millis(5));
  EXPECT_TRUE(ran);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  std::vector<Time> at;
  s.schedule(Time::millis(1), [&] {
    at.push_back(s.now());
    s.schedule(Time::millis(1), [&] { at.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], Time::millis(1));
  EXPECT_EQ(at[1], Time::millis(2));
}

TEST(Scheduler, StopHaltsRun) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule(Time::millis(i), [&] {
      ++count;
      if (count == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending(), 7u);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.schedule(Time::millis(1), [&] { ++count; });
  s.schedule(Time::millis(2), [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

// Insertion guards are dchecks on the scheduling hot path: compiled
// out under NDEBUG, so only exercise them in debug builds.
#ifndef NDEBUG
TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule(Time::millis(5), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(Time::millis(1), [] {}), InvariantError);
  EXPECT_THROW(s.schedule(Time::millis(-1), [] {}), InvariantError);
}

TEST(Scheduler, EmptyCallbackRejected) {
  Scheduler s;
  EXPECT_THROW(s.schedule(Time::millis(1), Scheduler::Callback{}),
               InvariantError);
}
#endif

TEST(Scheduler, ExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule(Time::millis(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.executed(), 5u);
}

// Regression for the lazy-cancellation leak: cancelling an id that
// already executed used to insert a tombstone that survived until the
// queue drained, making pending() under-report live events.  Eager
// cancellation keeps pending() exact in every such sequence.
TEST(Scheduler, CancelAfterExecuteKeepsPendingExact) {
  Scheduler s;
  const EventId first = s.schedule(Time::millis(1), [] {});
  s.schedule(Time::millis(10), [] {});
  s.step();  // runs `first`
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(first);  // stale: must be a no-op, not a tombstone
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(first);  // idempotent
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(s.pending(), 0u);
}

// A stale id must never hit an unrelated event that reused its slot.
TEST(Scheduler, StaleIdDoesNotCancelRecycledSlot) {
  Scheduler s;
  const EventId old_id = s.schedule(Time::millis(1), [] {});
  s.run();
  bool ran = false;
  s.schedule(Time::millis(1), [&] { ran = true; });  // may reuse the slot
  s.cancel(old_id);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(ran);
}

// Events on both sides of the wheel horizon must interleave in strict
// time order, including an event that sits in the overflow heap while
// its timestamp drifts inside the wheel's window as the clock advances.
TEST(Scheduler, WheelHeapBoundaryCrossing) {
  const Time horizon =
      Time::nanos(std::int64_t{1}
                  << (Scheduler::kTickShift + Scheduler::kWheelBits));
  Scheduler s;
  std::vector<int> order;
  s.schedule(horizon * 4, [&] { order.push_back(4); });        // heap
  s.schedule(horizon / 2, [&] { order.push_back(1); });        // wheel
  s.schedule(horizon * 2, [&] { order.push_back(3); });        // heap
  s.schedule(horizon - Time::nanos(1), [&] { order.push_back(2); });
  // Scheduled from inside an event: by then the heap events are within
  // the wheel window of the new now(), so both structures hold
  // overlapping times and the pop must merge them correctly.
  s.schedule(horizon / 4, [&] {
    order.push_back(0);
    s.schedule_at(horizon * 2 + Time::nanos(1), [&] { order.push_back(-3); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, -3, 4}));
  EXPECT_EQ(s.executed(), 6u);
}

// Same timestamp, different structures: an event scheduled far in
// advance (overflow heap) and one scheduled later for the same instant
// (wheel) must still run in insertion order.
TEST(Scheduler, SameTimestampFifoAcrossStructures) {
  const Time horizon =
      Time::nanos(std::int64_t{1}
                  << (Scheduler::kTickShift + Scheduler::kWheelBits));
  const Time target = horizon * 2;
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(target, [&] { order.push_back(0); });  // heap at insert
  s.schedule_at(target - horizon / 2, [&] {
    // now() is close enough that `target` lands in the wheel.
    s.schedule_at(target, [&] { order.push_back(1); });
    s.schedule_at(target, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, EagerCancelStress) {
  Scheduler s;
  std::vector<int> ran;
  std::vector<EventId> ids;
  // Mix of wheel-near and heap-far events, all cancelled while pending.
  for (int i = 0; i < 2000; ++i) {
    const Time at = (i % 3 == 0) ? Time::millis(100 + i)   // heap
                                 : Time::nanos(500 + i);   // wheel
    ids.push_back(s.schedule_at(at, [&ran, i] { ran.push_back(i); }));
  }
  EXPECT_EQ(s.pending(), 2000u);
  for (int i = 0; i < 2000; i += 2) s.cancel(ids[i]);
  EXPECT_EQ(s.pending(), 1000u);
  // Double-cancel is a no-op and pending() stays exact.
  for (int i = 0; i < 2000; i += 2) s.cancel(ids[i]);
  EXPECT_EQ(s.pending(), 1000u);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  ASSERT_EQ(ran.size(), 1000u);
  for (int i : ran) EXPECT_EQ(i % 2, 1);
  EXPECT_EQ(s.executed(), 1000u);
}

// Cancelling every pending event from inside a running event.
TEST(Scheduler, CancelFromWithinEvent) {
  Scheduler s;
  bool later_ran = false;
  const EventId near_id =
      s.schedule(Time::micros(10), [&] { later_ran = true; });
  const EventId far_id =
      s.schedule(Time::seconds(1), [&] { later_ran = true; });
  s.schedule(Time::micros(1), [&] {
    s.cancel(near_id);
    s.cancel(far_id);
    EXPECT_EQ(s.pending(), 0u);
  });
  s.run();
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  Time last = Time::zero();
  bool monotone = true;
  for (int i = 0; i < 20000; ++i) {
    s.schedule(Time::nanos((i * 7919) % 100000), [&] {
      if (s.now() < last) monotone = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.executed(), 20000u);
}

// Two cache lines: the pool is the scheduler's per-event footprint.
static_assert(Scheduler::kNodeBytes <= 128, "scheduler pool node grew");

// Differential check of the whole queue: a seeded random mix of
// operations drives the scheduler and a reference std::set of (at, seq)
// keys side by side.  Every executed event must be the reference's
// minimum at the reference's time, and after every operation pending(),
// its wheel/heap split, executed() and next_time() must match exactly.
class SchedulerModel {
 public:
  explicit SchedulerModel(std::uint64_t seed) : rng_(seed) {}

  void random_op() {
    ++op_;
    const std::uint64_t kind = live_.size() > 3000 ? 19 : draw(20);
    if (kind < 8) {
      schedule(draw_at());
    } else if (kind < 10) {
      burst();
    } else if (kind < 13) {
      cancel_in_bucket();
    } else if (kind == 13) {
      cancel_any();
    } else if (kind == 14) {
      cancel_stale();
    } else {
      run_op();
    }
    check_state();
  }

  void drain() {
    stop_allowed_ = false;
    ran_in_op_ = 0;
    const std::uint64_t ran = sched_.run();
    EXPECT_EQ(ran, ran_in_op_) << where();
    EXPECT_TRUE(live_.empty()) << where();
    check_state();
  }

  std::uint64_t executed() const { return order_.size(); }
  std::uint64_t max_bucket_len() const { return max_bucket_len_; }
  std::uint64_t cancelled_at(int position) const {
    return cancelled_at_[position];
  }

 private:
  enum class State { kPending, kRan, kCancelled };
  struct Event {
    std::int64_t at;
    EventId id;
    bool in_wheel;
    State state;
  };

  static constexpr std::int64_t kTick = std::int64_t{1}
                                        << Scheduler::kTickShift;
  static constexpr std::int64_t kHorizon =
      kTick * static_cast<std::int64_t>(Scheduler::kWheelBuckets);

  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }
  std::int64_t now() const { return sched_.now().ns(); }
  std::string where() const { return "op " + std::to_string(op_); }
  static std::uint64_t tick_of(std::int64_t ns) {
    return static_cast<std::uint64_t>(ns) >> Scheduler::kTickShift;
  }

  // Timestamps cluster within a few ticks so buckets hold long lists,
  // repeat recent timestamps exactly, straddle the wheel horizon, and
  // sometimes land far past it in the overflow heap.
  std::int64_t draw_at() {
    const std::int64_t base = now();
    switch (draw(8)) {
      case 0:
      case 1:
      case 2:
        return base + static_cast<std::int64_t>(draw(3 * kTick));
      case 3: {
        const std::int64_t at = recent_[draw(recent_.size())];
        return std::max(at, base);
      }
      case 4:
        return base + kHorizon - kTick +
               static_cast<std::int64_t>(draw(2 * kTick));
      case 5:
        return base + kHorizon +
               static_cast<std::int64_t>(draw(8 * kHorizon));
      default:
        return base + static_cast<std::int64_t>(draw(kHorizon));
    }
  }

  void schedule(std::int64_t at) {
    const std::uint64_t seq = events_.size();
    const bool in_wheel =
        tick_of(at) - tick_of(now()) < Scheduler::kWheelBuckets;
    auto cb = [this, seq] { on_run(seq); };
    const EventId id = draw(2) == 0
                           ? sched_.schedule(Time::nanos(at - now()), cb)
                           : sched_.schedule_at(Time::nanos(at), cb);
    events_.push_back(Event{at, id, in_wheel, State::kPending});
    live_.insert({at, seq});
    wheel_live_ += in_wheel ? 1 : 0;
    recent_[seq % recent_.size()] = at;
  }

  // Many events within a quarter tick, as an incast's synchronized
  // arrivals produce: one bucket's list grows long.
  void burst() {
    const std::int64_t center = draw_at();
    for (std::uint64_t n = 2 + draw(31); n > 0; --n) {
      schedule(center + static_cast<std::int64_t>(draw(kTick / 4)));
    }
  }

  void retire(std::uint64_t seq, State state) {
    Event& ev = events_[seq];
    live_.erase({ev.at, seq});
    wheel_live_ -= ev.in_wheel ? 1 : 0;
    ev.state = state;
  }

  void cancel(std::uint64_t seq) {
    sched_.cancel(events_[seq].id);
    retire(seq, State::kCancelled);
    if (draw(2) == 0) sched_.cancel(events_[seq].id);  // double cancel
  }

  std::uint64_t random_live() {
    auto it = live_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(draw(live_.size())));
    return it->second;
  }

  // Picks a pending wheel event's bucket and cancels its list head,
  // middle or tail.  Lists push at the head, so list order is
  // descending insertion order among the bucket's live events.
  void cancel_in_bucket() {
    std::vector<std::uint64_t> wheel_seqs;
    for (const auto& [at, seq] : live_) {
      if (events_[seq].in_wheel) wheel_seqs.push_back(seq);
    }
    if (wheel_seqs.empty()) return;
    const std::uint64_t pick = wheel_seqs[draw(wheel_seqs.size())];
    const std::uint64_t bucket =
        tick_of(events_[pick].at) % Scheduler::kWheelBuckets;
    std::vector<std::uint64_t> list;
    for (std::uint64_t seq : wheel_seqs) {
      if (tick_of(events_[seq].at) % Scheduler::kWheelBuckets == bucket) {
        list.push_back(seq);
      }
    }
    std::sort(list.rbegin(), list.rend());
    max_bucket_len_ = std::max<std::uint64_t>(max_bucket_len_, list.size());
    const int position = static_cast<int>(draw(3));  // head, middle, tail
    const std::size_t index = position == 0   ? 0
                              : position == 1 ? list.size() / 2
                                              : list.size() - 1;
    ++cancelled_at_[position];
    cancel(list[index]);
  }

  void cancel_any() {
    if (!live_.empty()) cancel(random_live());
  }

  // An already-run or already-cancelled id, whose slot may since have
  // been recycled: must change nothing.
  void cancel_stale() {
    if (events_.size() == live_.size()) return;
    for (;;) {
      const Event& ev = events_[draw(events_.size())];
      if (ev.state != State::kPending) {
        sched_.cancel(ev.id);
        return;
      }
    }
  }

  void on_run(std::uint64_t seq) {
    ASSERT_FALSE(live_.empty()) << where();
    const auto expected = *live_.begin();
    EXPECT_EQ(seq, expected.second) << where();
    EXPECT_EQ(now(), expected.first) << where();
    retire(seq, State::kRan);
    order_.push_back(seq);
    ++ran_in_op_;
    // The running event is already off the queue.
    EXPECT_EQ(sched_.pending(), live_.size()) << where();
    // Callbacks schedule and cancel too, as protocol code does.
    if (draw(4) == 0) schedule(draw_at());
    if (draw(16) == 0) cancel_any();
    if (stop_allowed_ && draw(64) == 0) {
      sched_.stop();
      stopped_ = true;
    }
  }

  std::int64_t draw_span() {
    switch (draw(4)) {
      case 0:
      case 1:
        return static_cast<std::int64_t>(draw(4 * kTick));
      case 2:
        return static_cast<std::int64_t>(draw(kHorizon));
      default:
        return static_cast<std::int64_t>(draw(3 * kHorizon));
    }
  }

  void run_op() {
    ran_in_op_ = 0;
    stopped_ = false;
    const std::int64_t before = now();
    const std::uint64_t kind = draw(3);
    if (kind == 0) {
      stop_allowed_ = false;
      const bool had = !live_.empty();
      EXPECT_EQ(sched_.step(), had) << where();
      EXPECT_EQ(ran_in_op_, had ? 1u : 0u) << where();
      EXPECT_EQ(now(), had ? events_[order_.back()].at : before) << where();
      return;
    }
    stop_allowed_ = true;
    const std::int64_t limit = before + draw_span();
    const std::uint64_t ran = kind == 1
                                  ? sched_.run_until(Time::nanos(limit))
                                  : sched_.run_window(Time::nanos(limit));
    EXPECT_EQ(ran, ran_in_op_) << where();
    if (stopped_) {
      EXPECT_EQ(now(), events_[order_.back()].at) << where();
    } else {
      EXPECT_EQ(now(), limit) << where();
      // run_until runs events at the limit; run_window stops short of it.
      if (!live_.empty()) {
        if (kind == 1) {
          EXPECT_GT(live_.begin()->first, limit) << where();
        } else {
          EXPECT_GE(live_.begin()->first, limit) << where();
        }
      }
    }
  }

  void check_state() const {
    EXPECT_EQ(sched_.pending(), live_.size()) << where();
    EXPECT_EQ(sched_.wheel_pending(), wheel_live_) << where();
    EXPECT_EQ(sched_.heap_pending(), live_.size() - wheel_live_) << where();
    EXPECT_EQ(sched_.executed(), order_.size()) << where();
    Time next;
    ASSERT_EQ(sched_.next_time(next), !live_.empty()) << where();
    if (!live_.empty()) {
      EXPECT_EQ(next.ns(), live_.begin()->first) << where();
    }
  }

  Scheduler sched_;
  std::mt19937_64 rng_;
  std::vector<Event> events_;  ///< indexed by insertion sequence
  std::set<std::pair<std::int64_t, std::uint64_t>> live_;  ///< (at, seq)
  std::size_t wheel_live_ = 0;
  std::vector<std::uint64_t> order_;  ///< execution order, by sequence
  std::vector<std::int64_t> recent_ = std::vector<std::int64_t>(16, 0);
  std::uint64_t op_ = 0;
  std::uint64_t ran_in_op_ = 0;
  bool stop_allowed_ = false;
  bool stopped_ = false;
  std::uint64_t max_bucket_len_ = 0;
  std::uint64_t cancelled_at_[3] = {0, 0, 0};
};

TEST(Scheduler, DifferentialAgainstOrderedSet) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SchedulerModel model(seed);
    for (int op = 0; op < 20000 && !::testing::Test::HasFailure(); ++op) {
      model.random_op();
    }
    if (::testing::Test::HasFailure()) return;  // one divergence is enough
    model.drain();
    // The mix really reached the cases it exists for.
    EXPECT_GT(model.executed(), 20000u);
    EXPECT_GE(model.max_bucket_len(), 16u);
    for (int position = 0; position < 3; ++position) {
      EXPECT_GT(model.cancelled_at(position), 500u);
    }
  }
}

}  // namespace
}  // namespace mmptcp
