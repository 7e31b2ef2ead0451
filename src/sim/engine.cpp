#include "sim/engine.h"

#include <algorithm>
#include <chrono>

#include "sim/parallel.h"
#include "sim/simulation.h"
#include "util/check.h"

namespace mmptcp {

namespace {

/// Spin briefly, then yield: windows are short, but on oversubscribed
/// hosts (more workers than cores) pure spinning would burn the peer's
/// whole quantum.  Main-thread barrier wait only — workers escalate to
/// relax_or_park so an idle pool costs no CPU.
template <typename Pred>
void relax_until(const Pred& pred) {
  int spins = 0;
  while (!pred()) {
    if (++spins >= 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

Engine::Engine(Simulation& sim, Time lookahead, unsigned workers)
    : sim_(sim), lookahead_(lookahead), workers_(std::max(1u, workers)) {
  if (sim_.num_domains() > 0) {
    tags_ = std::make_unique<Tag[]>(sim_.num_domains());
    check(lookahead_ > Time::zero(),
          "parallel engine needs a positive lookahead");
    workers_ = std::min<unsigned>(
        workers_, static_cast<unsigned>(sim_.num_domains()));
    // The claim index (active domains plus at most one overshoot
    // fetch_add per thread per epoch) must fit below the count field,
    // and the count (at most num_domains) below the epoch bits.
    check(sim_.num_domains() + 2ull * workers_ < (1ull << kIndexBits),
          "too many domains for the claim-word index field");
  } else {
    workers_ = 1;
  }
}

Engine::~Engine() {
  if (!pool_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    {
      // Empty critical section: a worker past its predicate check but
      // not yet asleep holds park_mu_, so this lock orders the store
      // before its wait and the notify below cannot be lost.
      std::lock_guard<std::mutex> lk(park_mu_);
    }
    park_cv_.notify_all();
    for (std::thread& t : pool_) t.join();
  }
}

void Engine::ensure_pool() {
  if (workers_ <= 1 || !pool_.empty()) return;
  pool_.reserve(workers_ - 1);
  // The calling thread is home 0; pool thread i is home i + 1.
  for (unsigned home = 1; home < workers_; ++home) {
    pool_.emplace_back([this, home] { worker_main(home); });
  }
}

template <typename Pred>
void Engine::relax_or_park(const Pred& pred) {
  for (int spins = 0; spins < 64; ++spins) {
    if (pred()) return;
  }
  // Then yield until the idle budget runs out.  The budget outlasts the
  // main thread's serial stretch between windows (barrier hook, probes,
  // control window): a worker that parked there would pay a futex
  // wakeup every window and arrive to find its home domains stolen.
  const auto deadline = std::chrono::steady_clock::now() + kIdleBudget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::yield();
  }
  // Budget exhausted: park.  The predicate re-check runs under park_mu_,
  // which the publisher also takes (after its claim_ release store), so
  // either we see the new epoch here or the publisher sees parked_ > 0
  // and notifies — a wakeup can never slip between check and sleep.
  std::unique_lock<std::mutex> lk(park_mu_);
  ++parked_;
  park_cv_.wait(lk, pred);
  --parked_;
}

void Engine::worker_main(unsigned home) {
  std::uint64_t seen = 0;
  for (;;) {
    relax_or_park([&] {
      return (claim_.load(std::memory_order_acquire) >> kEpochShift) != seen ||
             shutdown_.load(std::memory_order_acquire);
    });
    if (shutdown_.load(std::memory_order_acquire)) return;
    const std::uint64_t epoch =
        claim_.load(std::memory_order_acquire) >> kEpochShift;
    seen = claim_and_run(
        home, epoch,
        Time::nanos(window_end_ns_.load(std::memory_order_acquire)));
  }
}

bool Engine::take(std::size_t d, std::uint64_t epoch) {
  std::atomic<std::uint64_t>& tag = tags_[d].word;
  // Plain load first: most failed takes (quiet or already-started
  // domains) then never pull the tag's cache line in exclusive mode.
  std::uint64_t expected = epoch;
  if (tag.load(std::memory_order_relaxed) != expected) return false;
  return tag.compare_exchange_strong(expected, epoch | kTaken,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed);
}

void Engine::run_task(std::size_t d, Time end) {
  Scheduler& sched = sim_.domain_scheduler(d);
  par::ScopedDomain scope(&sched, static_cast<int>(d));
  if (end.ns() == kHookBatch) {
    domain_hook_(d);
  } else {
    sched.run_window(end);
  }
}

void Engine::run_domain(std::size_t d, Time end) {
  run_task(d, end);
  domains_done_.fetch_add(1, std::memory_order_release);
}

std::uint64_t Engine::claim_and_run(unsigned home, std::uint64_t epoch,
                                    Time end) {
  // Home pass.  A successful take proves `epoch` is still the published
  // window (its tag is only ever set for the epoch being published, and
  // the main thread cannot move on while the domain is unfinished), so
  // `end` — read after observing `epoch` — is that window's end.  When
  // `epoch` is stale every take fails and the steal pass below adopts
  // the current window.
  const std::size_t n = sim_.num_domains();
  for (std::size_t d = home; d < n; d += workers_) {
    if (take(d, epoch)) run_domain(d, end);
  }
  // Steal pass: walk the busiest-first claim list for domains whose
  // home thread has not started them yet.
  for (;;) {
    const std::uint64_t word = claim_.fetch_add(1, std::memory_order_acq_rel);
    if ((word >> kEpochShift) != epoch) {
      // Stale claim across a barrier: the main thread saw every slot of
      // `epoch` handled, ran the barrier hook and republished claim_
      // before this fetch_add landed, so the claim we just consumed
      // belongs to the *new* window.  Adopt it — the acquire above
      // synchronises with that release publish, ordering us after the
      // hook's insertions and the order_ rewrite — and re-read the new
      // window end (stable: the main thread cannot republish again
      // while this claim's slot is unhandled).  Running it with the old
      // `end` instead would silently truncate the domain's new window
      // and race with the hook's heap mutations.
      epoch = word >> kEpochShift;
      end = Time::nanos(window_end_ns_.load(std::memory_order_acquire));
    }
    const std::size_t count =
        static_cast<std::size_t>((word >> kCountShift) & kFieldMask);
    const std::size_t idx = static_cast<std::size_t>(word & kFieldMask);
    if (idx >= count) return epoch;
    // A sub-count index proves the publisher is still waiting on
    // slots_done_ < count, so order_ is frozen: plain read is safe.
    const std::size_t d = order_[idx];
    if (take(d, epoch)) run_domain(d, end);
    slots_done_.fetch_add(1, std::memory_order_release);
  }
}

void Engine::run_domains(Time end) {
  const std::size_t count = order_.size();
  if (workers_ <= 1) {
    for (const std::size_t d : order_) run_task(d, end);
    return;
  }
  ensure_pool();
  window_end_ns_.store(end.ns(), std::memory_order_relaxed);
  domains_done_.store(0, std::memory_order_relaxed);
  slots_done_.store(0, std::memory_order_relaxed);
  // Single release store publishes the window: bumps the epoch, carries
  // the active-domain count and resets the claim index atomically.  The
  // active domains' tags are armed with the epoch as workers will read
  // it back from the claim word.
  ++epoch_;
  const std::uint64_t word =
      (epoch_ << kEpochShift) |
      (static_cast<std::uint64_t>(count) << kCountShift);
  const std::uint64_t epoch = word >> kEpochShift;
  for (const std::size_t d : order_) {
    tags_[d].word.store(epoch, std::memory_order_relaxed);
  }
  claim_.store(word, std::memory_order_release);
  bool wake;
  {
    // Taken after the claim_ store: any worker that checked its
    // predicate before the store is counted in parked_ here (it holds
    // or held park_mu_ on the way to sleep), so notify reaches it.
    std::lock_guard<std::mutex> lk(park_mu_);
    wake = parked_ > 0;
  }
  if (wake) park_cv_.notify_all();
  claim_and_run(0, epoch, end);
  const auto t0 = std::chrono::steady_clock::now();
  // Both counts: every domain ran, and no thread still holds a claim
  // slot (and so may read order_, which the next window rewrites).
  relax_until([&] {
    return domains_done_.load(std::memory_order_acquire) >= count &&
           slots_done_.load(std::memory_order_acquire) >= count;
  });
  stats_.barrier_wait_ns += ns_since(t0);
}

void Engine::barrier() {
  if (domain_hook_) {
    const std::size_t n = sim_.num_domains();
    order_.resize(n);
    for (std::size_t d = 0; d < n; ++d) order_[d] = d;
    run_domains(Time::nanos(kHookBatch));
  }
  if (hook_) hook_();
}

void Engine::run_until(Time until) {
  const auto wall0 = std::chrono::steady_clock::now();
  stopped_ = false;
  Scheduler& control = sim_.control_scheduler();
  const std::size_t n = sim_.num_domains();
  if (n == 0) {
    // Serial collapse: no domains were configured, so every event lives
    // in the control scheduler and the classic inclusive run applies.
    if (hook_) hook_();
    control.run_until(until);
    stopped_ = control.stop_requested();
    if (hook_) hook_();
    stats_.wall_ns += ns_since(wall0);
    return;
  }
  for (;;) {
    barrier();
    Time next = Time::max();
    bool any = false;
    Time t;
    if (control.next_time(t)) {
      next = t;
      any = true;
    }
    for (std::size_t d = 0; d < n; ++d) {
      if (sim_.domain_scheduler(d).next_time(t)) {
        any = true;
        if (t < next) next = t;
      }
    }
    if (!any || next >= until) {
      control.run_window(until);
      if (control.stop_requested()) {
        // Mirror the mid-loop branch: a stop() in the final control
        // window also ends the run before the domain windows.
        stopped_ = true;
        break;
      }
      // Final window: run EVERY domain, quiet or not, so all clocks
      // park exactly at `until` (quiet-skip only applies mid-run).
      order_.resize(n);
      for (std::size_t d = 0; d < n; ++d) order_[d] = d;
      ++stats_.windows;
      stats_.domains_claimed += n;
      run_domains(until);
      break;
    }
    const Time window_end = std::min(next + lookahead_, until);
    control.run_window(window_end);
    if (control.stop_requested()) {
      stopped_ = true;
      break;
    }
    // Quiet-domain skip + cost-ordered claiming.  Probe AFTER the
    // control window so events it scheduled into domains count; keep a
    // domain only when its next event falls inside this window, then
    // order busiest-first (pending count desc, id asc) so the largest
    // domain window starts earliest.  Ordering and skipping change
    // scheduling only — every kept window executes the same events.
    probe_.clear();
    for (std::size_t d = 0; d < n; ++d) {
      Scheduler& sched = sim_.domain_scheduler(d);
      if (sched.next_time(t) && t < window_end) {
        probe_.push_back(Probe{t, sched.pending(), d});
      }
    }
    std::sort(probe_.begin(), probe_.end(),
              [](const Probe& x, const Probe& y) {
                if (x.pending != y.pending) return x.pending > y.pending;
                return x.domain < y.domain;
              });
    order_.clear();
    for (const Probe& p : probe_) order_.push_back(p.domain);
    ++stats_.windows;
    stats_.domains_claimed += order_.size();
    stats_.domains_skipped += n - order_.size();
    // An all-quiet window (the next event was control-only) publishes
    // nothing at all — workers stay parked.
    if (!order_.empty()) run_domains(window_end);
  }
  barrier();
  stats_.wall_ns += ns_since(wall0);
}

}  // namespace mmptcp
