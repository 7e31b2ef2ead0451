#include "sim/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sim/parallel.h"
#include "sim/simulation.h"

namespace mmptcp {
namespace {

// ------------------------------------------------- serial collapse

TEST(Engine, SerialCollapseMatchesRunUntil) {
  // No domains configured: run_until is the classic inclusive serial run
  // on the control scheduler, regardless of lookahead or worker count.
  Simulation sim(1);
  std::vector<int> order;
  sim.scheduler().schedule(Time::millis(1), [&] { order.push_back(1); });
  sim.scheduler().schedule(Time::millis(5), [&] { order.push_back(5); });
  sim.scheduler().schedule(Time::millis(5), [&] { order.push_back(50); });
  Engine engine(sim, Time::zero(), 4);
  engine.run_until(Time::millis(5));
  EXPECT_EQ(order, (std::vector<int>{1, 5, 50}));  // inclusive at until
  EXPECT_FALSE(engine.stopped());
}

TEST(Engine, SerialCollapseHonoursStop) {
  Simulation sim(1);
  bool late = false;
  sim.scheduler().schedule(Time::millis(1),
                           [&] { sim.scheduler().stop(); });
  sim.scheduler().schedule(Time::millis(2), [&] { late = true; });
  Engine engine(sim, Time::zero(), 1);
  engine.run_until(Time::millis(10));
  EXPECT_TRUE(engine.stopped());
  EXPECT_FALSE(late);
}

// ------------------------------------------------- windowed execution

struct DomainRig {
  DomainRig() {
    sim.configure_domains(2);
  }
  Simulation sim{1};
};

TEST(Engine, WindowedRunExecutesEveryDomainEvent) {
  DomainRig rig;
  std::atomic<int> ran{0};  // both domains' windows may run concurrently
  for (std::size_t d = 0; d < 2; ++d) {
    for (int i = 1; i <= 5; ++i) {
      rig.sim.domain_scheduler(d).schedule(Time::micros(100 * i),
                                           [&] { ++ran; });
    }
  }
  rig.sim.control_scheduler().schedule(Time::micros(250), [&] { ++ran; });
  Engine engine(rig.sim, Time::micros(120), 2);
  engine.run_until(Time::millis(10));
  EXPECT_EQ(ran.load(), 11);
  // Windowed runs are exclusive at `until` and park every clock there.
  EXPECT_EQ(rig.sim.control_scheduler().now(), Time::millis(10));
  EXPECT_EQ(rig.sim.domain_scheduler(0).now(), Time::millis(10));
  EXPECT_EQ(rig.sim.domain_scheduler(1).now(), Time::millis(10));
}

TEST(Engine, EventExactlyAtUntilIsNotRunInWindowedMode) {
  DomainRig rig;
  bool ran = false;
  rig.sim.domain_scheduler(0).schedule(Time::millis(10), [&] { ran = true; });
  Engine engine(rig.sim, Time::micros(50), 1);
  engine.run_until(Time::millis(10));
  EXPECT_FALSE(ran);
  EXPECT_EQ(rig.sim.domain_scheduler(0).now(), Time::millis(10));
}

TEST(Engine, ControlWindowRunsBeforeDomainWindows) {
  // Same window, same timestamp: the control event must observe none of
  // the domain events of that window (control runs first, workers
  // parked — this is what makes control-side mutation race-free).
  DomainRig rig;
  std::atomic<int> domain_ran{0};
  int seen_at_control = -1;
  rig.sim.domain_scheduler(0).schedule(Time::micros(100),
                                       [&] { ++domain_ran; });
  rig.sim.domain_scheduler(1).schedule(Time::micros(100),
                                       [&] { ++domain_ran; });
  rig.sim.control_scheduler().schedule(Time::micros(100), [&] {
    seen_at_control = domain_ran.load();
  });
  Engine engine(rig.sim, Time::micros(500), 2);
  engine.run_until(Time::millis(1));
  EXPECT_EQ(domain_ran.load(), 2);
  EXPECT_EQ(seen_at_control, 0);
}

TEST(Engine, ControlStopEndsWindowedRun) {
  DomainRig rig;
  bool late_domain = false;
  rig.sim.control_scheduler().schedule(Time::micros(100), [&] {
    rig.sim.control_scheduler().stop();
  });
  // Lies beyond the stopping window: must never run.
  rig.sim.domain_scheduler(0).schedule(Time::millis(5),
                                       [&] { late_domain = true; });
  Engine engine(rig.sim, Time::micros(200), 2);
  engine.run_until(Time::seconds(1));
  EXPECT_TRUE(engine.stopped());
  EXPECT_FALSE(late_domain);
}

TEST(Engine, BarrierHookBracketsEveryWindow) {
  DomainRig rig;
  int hooks = 0;
  int events = 0;
  // Three windows' worth of events, windows 200us wide.
  for (int i = 1; i <= 3; ++i) {
    rig.sim.domain_scheduler(0).schedule(Time::millis(i), [&] { ++events; });
  }
  Engine engine(rig.sim, Time::micros(200), 1);
  engine.set_barrier_hook([&] { ++hooks; });
  engine.run_until(Time::millis(10));
  EXPECT_EQ(events, 3);
  // One hook before each window plus the final drain: > window count.
  EXPECT_GE(hooks, 4);
}

TEST(Engine, DomainHooksRunOncePerDomainBeforeTheBarrierHook) {
  // Four domains on three workers: at every barrier the domain hook runs
  // exactly once per domain, with that domain's scheduler ambient, and
  // every call of that barrier finishes before the serial barrier hook.
  Simulation sim(2);
  sim.configure_domains(4);
  for (std::size_t d = 0; d < 4; ++d) {
    for (int i = 1; i <= 20; ++i) {
      sim.domain_scheduler(d).schedule(Time::micros(10 * i), [] {});
    }
  }
  std::vector<std::atomic<int>> calls(4);
  std::atomic<bool> wrong_domain{false};
  int barriers = 0;
  bool hook_ran_early = false;
  Engine engine(sim, Time::micros(10), 3);
  engine.set_domain_hook([&](std::size_t d) {
    if (par::current_domain() != static_cast<int>(d) ||
        &sim.scheduler() != &sim.domain_scheduler(d)) {
      wrong_domain = true;
    }
    ++calls[d];
  });
  engine.set_barrier_hook([&] {
    ++barriers;
    for (const std::atomic<int>& c : calls) {
      if (c.load() != barriers) hook_ran_early = true;
    }
  });
  engine.run_until(Time::micros(250));
  EXPECT_FALSE(wrong_domain.load());
  EXPECT_FALSE(hook_ran_early);
  EXPECT_EQ(static_cast<std::uint64_t>(barriers), engine.stats().windows + 1);
  for (const std::atomic<int>& c : calls) EXPECT_EQ(c.load(), barriers);
}

TEST(Engine, HookInsertionLandsInLaterWindow) {
  // The barrier hook models the cross-domain flush: an insertion it makes
  // for a future timestamp must execute in its own window.
  DomainRig rig;
  bool injected_ran = false;
  bool injected = false;
  rig.sim.domain_scheduler(0).schedule(Time::micros(100), [] {});
  Engine engine(rig.sim, Time::micros(200), 2);
  engine.set_barrier_hook([&] {
    if (!injected) {
      injected = true;
      rig.sim.domain_scheduler(1).schedule_at(Time::millis(2),
                                              [&] { injected_ran = true; });
    }
  });
  engine.run_until(Time::millis(10));
  EXPECT_TRUE(injected_ran);
}

TEST(Engine, ManyTinyWindowsHammerTheClaimHandshake) {
  // Thousands of one-event-per-domain windows on a full worker pool:
  // maximises the chance that a worker is preempted across a barrier so
  // its next claim lands in a newer epoch (the stale-claim adoption
  // path in claim_and_run).  A skipped or double-run window shows up as
  // a wrong count; a broken handshake hangs the run.
  Simulation sim(3);
  sim.configure_domains(4);
  std::atomic<int> ran{0};
  constexpr int kWindows = 2000;
  for (std::size_t d = 0; d < 4; ++d) {
    for (int i = 1; i <= kWindows; ++i) {
      sim.domain_scheduler(d).schedule(Time::micros(10 * i), [&] { ++ran; });
    }
  }
  Engine engine(sim, Time::micros(10), 4);
  engine.run_until(Time::micros(10 * (kWindows + 1)));
  EXPECT_EQ(ran.load(), 4 * kWindows);
}

// ------------------------------------------------- quiet-domain skip

TEST(Engine, QuietDomainsAreSkippedNotClaimed) {
  // Only one of four domains ever has work: every mid-run window claims
  // just that domain and skips the other three.  The final window runs
  // every domain (to park all clocks at `until`), so the exact budget is
  // one claim per mid window plus four for the final one — and
  // claimed + skipped must account for every domain of every window.
  Simulation sim(1);
  sim.configure_domains(4);
  int ran = 0;
  constexpr int kEvents = 50;
  for (int i = 1; i <= kEvents; ++i) {
    sim.domain_scheduler(2).schedule(Time::micros(10 * i), [&] { ++ran; });
  }
  Engine engine(sim, Time::micros(10), 2);
  engine.run_until(Time::micros(10 * kEvents + 5));
  EXPECT_EQ(ran, kEvents);
  const EngineStats& s = engine.stats();
  EXPECT_GT(s.windows, 0u);
  EXPECT_GT(s.domains_skipped, 0u);
  EXPECT_EQ(s.domains_claimed + s.domains_skipped, s.windows * 4);
  EXPECT_EQ(s.domains_claimed, (s.windows - 1) + 4);
}

TEST(Engine, ParkedWorkersWakeAcrossManySparseWindows) {
  // Eight domains, four workers, but only one domain ever busy.  Every
  // tenth barrier the serial barrier hook stalls for twice the idle
  // budget, so the idle workers park on the condvar, then must observe
  // the next epoch publication.  A lost wakeup hangs this test (the
  // busy domain's window never gets claimed); quiet-skip keeps the idle
  // domains out of every claim list.
  Simulation sim(5);
  sim.configure_domains(8);
  std::atomic<int> ran{0};
  constexpr int kWindows = 3000;
  for (int i = 1; i <= kWindows; ++i) {
    sim.domain_scheduler(3).schedule(Time::micros(10 * i), [&] { ++ran; });
  }
  Engine engine(sim, Time::micros(10), 4);
  int barriers = 0;
  engine.set_barrier_hook([&] {
    if (++barriers % 10 == 0) {
      std::this_thread::sleep_for(2 * Engine::kIdleBudget);
    }
  });
  engine.run_until(Time::micros(10 * (kWindows + 1)));
  EXPECT_EQ(ran.load(), kWindows);
  EXPECT_GT(engine.stats().domains_skipped, 0u);
}

TEST(Engine, ManyDomainsPackIntoTheClaimWord) {
  // More domains than a typical worker pool (a k=24 fabric has 24
  // pods): counts and indices share the claim word's 16-bit fields with
  // the epoch above, and every event must still run exactly once.
  Simulation sim(9);
  constexpr std::size_t kDomains = 24;
  sim.configure_domains(kDomains);
  std::atomic<int> ran{0};
  for (std::size_t d = 0; d < kDomains; ++d) {
    for (int i = 1; i <= 40; ++i) {
      sim.domain_scheduler(d).schedule(
          Time::micros(25 * i + static_cast<int>(d)), [&] { ++ran; });
    }
  }
  Engine engine(sim, Time::micros(50), 4);
  engine.run_until(Time::millis(2));
  EXPECT_EQ(ran.load(), int(kDomains) * 40);
  const EngineStats& s = engine.stats();
  EXPECT_EQ(s.domains_claimed + s.domains_skipped, s.windows * kDomains);
}

TEST(Engine, ResultsIndependentOfWorkerCount) {
  // The same event program must leave identical executed counts and
  // clocks at 1, 2 and 4 workers.
  auto run = [](unsigned workers) {
    Simulation sim(7);
    sim.configure_domains(4);
    for (std::size_t d = 0; d < 4; ++d) {
      for (int i = 1; i <= 20; ++i) {
        sim.domain_scheduler(d).schedule(Time::micros(37 * i + 11 * d),
                                         [] {});
      }
    }
    Engine engine(sim, Time::micros(100), workers);
    engine.run_until(Time::millis(5));
    return sim.total_executed();
  };
  const std::uint64_t one = run(1);
  EXPECT_EQ(one, 80u);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(4), one);
}

}  // namespace
}  // namespace mmptcp
