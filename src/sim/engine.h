#pragma once

// Barrier-synchronous conservative parallel event engine.
//
// The simulation's schedulers (one control + N domain) advance in
// windows.  Each iteration finds T, the earliest pending event across
// all schedulers, and executes every event in [T, T + lookahead) — the
// control scheduler first and single-threaded, then the *active*
// domains on a worker pool.  `lookahead` is the minimum cross-domain
// propagation delay, so an event at time t can only influence another
// domain at t + lookahead or later: everything inside one window is
// causally independent across domains and may run concurrently.
//
// Three scheduling policies keep the worker pool busy and each domain
// on one core:
//
//  * Quiet-domain skip.  After the control window runs, each domain is
//    probed once; domains whose next event lies at or after the window
//    end are never claimed.  A skipped domain's clock lags the window
//    frontier, which is safe: it has no events below any prior window
//    end, and cross-domain deliveries use absolute timestamps beyond
//    the last window end.  The final window runs every domain so all
//    clocks park at `until`.
//
//  * Home-first claiming.  Domain d's home is thread d % workers; each
//    thread starts a window on its home domains, so a domain runs on
//    the same core window after window and its event pool, queues and
//    sockets stay in that core's cache.  Handing every domain to
//    whichever thread claims first would move it between cores each
//    window, which more than doubles the per-event cost at four workers.
//
//  * Cost-ordered stealing.  Active domains are sorted busiest-first
//    (pending-event count descending, id ascending) before publication;
//    a thread done with its home domains walks that list and takes any
//    domain not yet started, so the longest windows left over start
//    earliest and the barrier wait is bounded by the largest domain.
//
// All three are pure scheduling policies: they change which thread runs
// a window and when, never what the window executes, so results stay
// byte-identical across worker counts.
//
// Cross-domain packets and metric mutations are buffered during the
// window (net/link.h outboxes, stats/metrics.h journals) and flushed at
// the top of every iteration — packets by the per-domain hooks, each
// destination on the pool, metrics by the serial barrier hook — in a
// canonical order that does not depend on the worker count.
// Determinism therefore holds by construction: the sequence of windows,
// the event stream inside each domain, and the flush order are identical
// at any `workers` value — threads only change which core executes a
// given window.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/time.h"

namespace mmptcp {

class Simulation;

/// Per-run engine telemetry, accumulated across run_until calls.  All
/// counters describe scheduling only — they may differ across machines
/// and thread counts while the simulation results stay byte-identical.
struct EngineStats {
  std::uint64_t windows = 0;          ///< windowed iterations executed
  std::uint64_t domains_claimed = 0;  ///< domain windows actually run
  std::uint64_t domains_skipped = 0;  ///< quiet domains never claimed
  std::uint64_t barrier_wait_ns = 0;  ///< main thread idle at the barrier
  std::uint64_t wall_ns = 0;          ///< wall clock inside run_until
};

class Engine {
 public:
  /// `lookahead` must be positive when the simulation has domains
  /// configured.  `workers` is the number of threads executing domain
  /// windows (the calling thread is one of them); clamped to the domain
  /// count.
  Engine(Simulation& sim, Time lookahead, unsigned workers);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Invoked at every barrier (and once before the first window and once
  /// after the last): drain cross-domain mailboxes and metric journals.
  void set_barrier_hook(std::function<void()> hook) {
    hook_ = std::move(hook);
  }

  /// Per-domain barrier work, run at every barrier before the barrier
  /// hook: called once for every domain d, concurrently across domains
  /// on the worker pool and with d's scheduler ambient, so it may touch
  /// only d's state — e.g. deliver the cross-domain packets bound for d.
  /// Set before the first run_until.
  void set_domain_hook(std::function<void(std::size_t)> hook) {
    domain_hook_ = std::move(hook);
  }

  /// Runs events with timestamp strictly below `until`, leaving every
  /// clock at `until` — unless the control scheduler's stop() fired, in
  /// which case the run ends at that event.  With no domains configured
  /// this is exactly `control.run_until(until)` (inclusive, serial).
  void run_until(Time until);

  /// True when the last run_until ended because of a control stop().
  bool stopped() const { return stopped_; }

  unsigned workers() const { return workers_; }

  /// How long an idle worker spins and yields for the next window before
  /// it parks on a condvar.
  static constexpr std::chrono::microseconds kIdleBudget{500};

  const EngineStats& stats() const { return stats_; }

 private:
  /// Domain hooks (parallel), then the barrier hook.
  void barrier();
  /// Runs every domain of order_ for one window ending at `end`, or, if
  /// `end` is kHookBatch, calls the domain hook for each of them.
  void run_domains(Time end);
  static constexpr std::int64_t kHookBatch = -1;
  /// Runs the `home` thread's domains of `epoch`'s window, then claims
  /// entries of `order_` until the claim index reaches the published
  /// count, running those no other thread has taken; follows the claim
  /// word across epochs if a stale claim lands in a newer window.
  /// Returns the last epoch it participated in (workers use it as their
  /// park key).
  std::uint64_t claim_and_run(unsigned home, std::uint64_t epoch, Time end);
  /// Marks domain `d` started in `epoch`; false if it is not active in
  /// that window or another thread already started it.
  bool take(std::size_t d, std::uint64_t epoch);
  /// One task of a run_domains batch, with d's scheduler ambient.
  void run_task(std::size_t d, Time end);
  /// run_task, then counts the domain done.
  void run_domain(std::size_t d, Time end);
  /// Spin, then yield, then park on park_cv_ until `pred` holds.  Worker
  /// threads only — the main thread never parks (it is the one that
  /// would have to ring the bell).
  template <typename Pred>
  void relax_or_park(const Pred& pred);
  void worker_main(unsigned home);
  void ensure_pool();

  Simulation& sim_;
  Time lookahead_;
  unsigned workers_;
  std::function<void()> hook_;
  std::function<void(std::size_t)> domain_hook_;
  bool stopped_ = false;
  EngineStats stats_;

  // Worker-pool handshake.  claim_ packs
  //     (epoch << 32) | (active count << 16) | next claim index
  // into one word: publishing a window is a single release store that
  // simultaneously bumps the epoch (waking parked workers), announces
  // how many active domains this window has, and resets the claim
  // index.  Workers fetch_add the low index field and read the slot
  // order_[index]; an index at or beyond the count is an overshoot and
  // the worker retires to wait for the next epoch.  Reading order_
  // without atomics is safe: a sub-count index proves the main thread
  // is still blocked on slots_done_ < count and cannot republish (and
  // so cannot rewrite order_) until this claim is handled.
  //
  // Because epoch, count and index travel together, a worker that was
  // preempted across a barrier and fetch_adds a word of a *newer* epoch
  // can detect it and adopt that window — re-reading window_end_ns_ and
  // taking the count from the new word — instead of running the claimed
  // slot against a stale window end; see claim_and_run.
  //
  // A slot's domain may already have been started by its home thread,
  // so running a domain is decided separately, by its tag: the main
  // thread arms tags_[d] with the epoch before publishing, and whoever
  // swaps in the taken bit first runs d.  A stale thread's take fails
  // (no tag holds an old epoch without the taken bit once the main
  // thread has moved on).  Threads count finished domains in
  // domains_done_ and handled slots in slots_done_; exactly `count`
  // domains are taken and `count` claims carry an index below the
  // count per epoch, so the main thread's wait for both and their reset
  // cannot observe stragglers.
  static constexpr unsigned kIndexBits = 16;
  static constexpr unsigned kCountShift = 16;
  static constexpr unsigned kEpochShift = 32;
  static constexpr std::uint64_t kFieldMask = (1ull << kIndexBits) - 1;
  std::vector<std::thread> pool_;
  std::uint64_t epoch_ = 0;  // main thread only; published via claim_
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::int64_t> window_end_ns_{0};
  std::atomic<std::size_t> domains_done_{0};
  std::atomic<std::size_t> slots_done_{0};
  std::atomic<bool> shutdown_{false};
  static constexpr std::uint64_t kTaken = 1ull << 63;
  struct alignas(64) Tag {  // one cache line each: home threads CAS these
    std::atomic<std::uint64_t> word{0};
  };
  std::unique_ptr<Tag[]> tags_;  // per domain: epoch | kTaken once started

  // Parking lot for idle workers.  After a spin/yield budget a worker
  // increments parked_ under park_mu_ and waits on park_cv_ keyed by
  // the claim-word epoch.  The publisher stores claim_ first, then
  // takes park_mu_ to read parked_, so a worker either sees the new
  // epoch before sleeping or is seen by the publisher — no lost wakeup.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::size_t parked_ = 0;

  // Scratch owned by the main thread between barriers.  order_ holds
  // the active domain ids of the current window, busiest first; workers
  // read it only while holding a sub-count claim (see above).
  std::vector<std::size_t> order_;
  struct Probe {
    Time next;            // earliest pending event
    std::size_t pending;  // queued-event count (cost proxy)
    std::size_t domain;
  };
  std::vector<Probe> probe_;
};

}  // namespace mmptcp
