// Unit tests for the simulation substrate: event loop, slot pool,
// network model.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/common/random.hpp"
#include "ripple/sim/event_loop.hpp"
#include "ripple/sim/network.hpp"
#include "ripple/sim/resource.hpp"

namespace {

using namespace ripple;
using sim::EventLoop;

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.call_at(3.0, [&] { order.push_back(3); });
  loop.call_at(1.0, [&] { order.push_back(1); });
  loop.call_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoop, EqualTimesFireInPostingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.call_at(1.0, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, CallAfterAndPost) {
  EventLoop loop;
  double fired_at = -1;
  loop.call_after(2.5, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);

  int post_order = 0;
  loop.post([&] { EXPECT_EQ(post_order++, 0); });
  loop.post([&] { EXPECT_EQ(post_order++, 1); });
  loop.run();
  EXPECT_EQ(post_order, 2);
}

TEST(EventLoop, ReentrantSchedulingFromCallback) {
  EventLoop loop;
  std::vector<double> times;
  loop.call_after(1.0, [&] {
    times.push_back(loop.now());
    loop.call_after(1.0, [&] { times.push_back(loop.now()); });
  });
  loop.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const auto handle = loop.call_after(1.0, [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(handle));
  EXPECT_FALSE(loop.cancel(handle));  // already cancelled
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.events_processed(), 0u);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.call_at(1.0, [&] { ++fired; });
  loop.call_at(5.0, [&] { ++fired; });
  EXPECT_EQ(loop.run_until(3.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);  // clock advances to the deadline
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, StopHaltsMidRun) {
  EventLoop loop;
  int fired = 0;
  loop.call_at(1.0, [&] {
    ++fired;
    loop.stop();
  });
  loop.call_at(2.0, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  loop.reset_stop();
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, RejectsPastAndInvalid) {
  EventLoop loop;
  loop.call_at(2.0, [] {});
  loop.run();
  EXPECT_THROW(loop.call_at(1.0, [] {}), Error);
  EXPECT_THROW(loop.call_after(-0.5, [] {}), Error);
  EXPECT_THROW(loop.call_after(1.0, nullptr), Error);
}

TEST(EventLoop, PendingExcludesCancelled) {
  EventLoop loop;
  const auto h1 = loop.call_after(1.0, [] {});
  loop.call_after(2.0, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(h1);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, CancelledCallbackDestroyedWhenSkimmed) {
  EventLoop loop;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  const auto handle = loop.call_after(1.0, [token] {});
  token.reset();
  loop.call_after(2.0, [] {});
  EXPECT_TRUE(loop.cancel(handle));
  EXPECT_FALSE(watch.expired());  // still queued until skimmed
  EXPECT_EQ(loop.cancelled_backlog(), 1u);
  loop.run_until(0.5);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
}

// ---------------------------------------------------------------------------
// Differential check against a naive reference
// ---------------------------------------------------------------------------

/// The event loop's contract written the slow, obvious way: every queued
/// event in one vector, scanned for the minimum (time, sequence). Posted
/// and timed events are skimmed separately, like the loop's now-queue
/// and heap: a cancelled event drops out (and stops counting in
/// cancelled_backlog()) once it is the earliest queued event of its kind.
class ReferenceLoop {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] double now() const { return now_; }

  int call_at(double when, Action action) {
    return add(when, /*posted=*/false, std::move(action));
  }
  int call_after(double delay, Action action) {
    return call_at(now_ + delay, std::move(action));
  }
  int post(Action action) { return add(now_, /*posted=*/true, std::move(action)); }

  bool cancel(int id) {
    for (Entry& entry : queued_) {
      if (entry.id != id) continue;
      if (entry.cancelled) return false;
      entry.cancelled = true;
      return true;
    }
    return false;  // ran, running, skimmed, or never issued
  }

  std::size_t run_until(double deadline) {
    std::size_t count = 0;
    while (step(deadline)) ++count;
    if (deadline != std::numeric_limits<double>::infinity() &&
        deadline > now_) {
      now_ = deadline;
    }
    return count;
  }
  std::size_t run() {
    return run_until(std::numeric_limits<double>::infinity());
  }

  [[nodiscard]] std::size_t pending() const {
    std::size_t n = 0;
    for (const Entry& entry : queued_) n += entry.cancelled ? 0 : 1;
    return n;
  }
  [[nodiscard]] std::size_t cancelled_backlog() const {
    return queued_.size() - pending();
  }
  [[nodiscard]] std::size_t peak_pending() const { return peak_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  struct Entry {
    double time;
    std::uint64_t sequence;
    int id;
    bool posted;
    bool cancelled;
    Action action;
  };

  int add(double when, bool posted, Action action) {
    queued_.push_back(
        Entry{when, next_sequence_++, next_id_, posted, false, std::move(action)});
    peak_ = std::max(peak_, pending());
    return next_id_++;
  }

  static bool before(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.sequence < b.sequence);
  }

  /// Index of the earliest queued event (of one kind, or of any), or -1.
  [[nodiscard]] long earliest(int posted_filter) const {
    long best = -1;
    for (std::size_t i = 0; i < queued_.size(); ++i) {
      if (posted_filter >= 0 && queued_[i].posted != (posted_filter == 1)) {
        continue;
      }
      if (best < 0 || before(queued_[i], queued_[static_cast<std::size_t>(best)])) {
        best = static_cast<long>(i);
      }
    }
    return best;
  }

  bool step(double deadline) {
    for (const int posted : {1, 0}) {
      for (long i = earliest(posted); i >= 0 && queued_[static_cast<std::size_t>(i)].cancelled;
           i = earliest(posted)) {
        queued_.erase(queued_.begin() + i);
      }
    }
    const long i = earliest(-1);
    if (i < 0 || queued_[static_cast<std::size_t>(i)].time > deadline) return false;
    Entry entry = std::move(queued_[static_cast<std::size_t>(i)]);
    queued_.erase(queued_.begin() + i);
    now_ = entry.time;
    ++processed_;
    entry.action();
    return true;
  }

  std::vector<Entry> queued_;
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  int next_id_ = 1;
  std::size_t peak_ = 0;
  std::uint64_t processed_ = 0;
};

/// Drives a loop (the real one or the reference) through a seeded random
/// mix of call_at / call_after / post / cancel, issued both from the top
/// level and re-entrantly from inside callbacks, and logs everything
/// observable. Cancels pick any handle ever issued, so they hit pending,
/// running, already-run and already-cancelled events, and stale handles
/// whose slot a later event reuses.
template <typename Loop>
class MixRunner {
 public:
  using Handle = decltype(std::declval<Loop&>().post([] {}));

  MixRunner(Loop& loop, std::uint64_t seed) : loop_(loop), rng_(seed) {}

  std::vector<std::string> run() {
    act(6);
    for (int round = 0; round < 6; ++round) {
      const double deadline = loop_.now() + 0.5 * static_cast<double>(rng_.uniform_int(0, 4));
      const std::size_t ran = loop_.run_until(deadline);
      note("run_until " + std::to_string(ran) + " now " + std::to_string(loop_.now()));
      act(3);
    }
    const std::size_t ran = loop_.run();
    note("run " + std::to_string(ran));
    return log_;
  }

  [[nodiscard]] const std::vector<Handle>& handles() const { return handles_; }

 private:
  void schedule(int kind) {
    const auto index = handles_.size();
    auto fire = [this, index] {
      note("fire " + std::to_string(index) + " @" + std::to_string(loop_.now()));
      act(4);
    };
    if (budget_ == 0) return;
    --budget_;
    static constexpr double kDelays[] = {0.0, 0.0, 0.5, 1.0, 2.5};
    const double delay = kDelays[rng_.uniform_int(0, 4)];
    if (kind == 0) {
      handles_.push_back(loop_.call_at(loop_.now() + delay, std::move(fire)));
    } else if (kind == 1) {
      handles_.push_back(loop_.call_after(delay, std::move(fire)));
    } else {
      handles_.push_back(loop_.post(std::move(fire)));
    }
  }

  void cancel(std::size_t index) {
    const bool ok = loop_.cancel(handles_[index]);
    note("cancel " + std::to_string(index) + " -> " + (ok ? "1" : "0"));
  }

  void act(int max_ops) {
    const auto ops = rng_.uniform_int(0, max_ops);
    for (std::int64_t op = 0; op < ops; ++op) {
      const auto kind = rng_.uniform_int(0, 6);
      if (kind <= 3) {
        schedule(static_cast<int>(std::min<std::int64_t>(kind, 2)));
      } else if (!handles_.empty()) {
        const auto last = static_cast<std::int64_t>(handles_.size()) - 1;
        // 4: the newest handle (often still pending), 5: any handle,
        // 6: any handle twice (the second is always refused).
        const auto index = static_cast<std::size_t>(
            kind == 4 ? last : rng_.uniform_int(0, last));
        cancel(index);
        if (kind == 6) cancel(index);
      }
    }
  }

  void note(std::string line) {
    line += " | pending " + std::to_string(loop_.pending()) + " backlog " +
            std::to_string(loop_.cancelled_backlog()) + " peak " +
            std::to_string(loop_.peak_pending()) + " processed " +
            std::to_string(loop_.events_processed());
    log_.push_back(std::move(line));
  }

  Loop& loop_;
  common::Rng rng_;
  std::vector<Handle> handles_;
  std::vector<std::string> log_;
  int budget_ = 400;
};

TEST(EventLoop, MatchesNaiveReferenceOnRandomMixes) {
  std::size_t reused_slots = 0;
  std::size_t refused = 0;
  std::size_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    EventLoop loop;
    MixRunner<EventLoop> real(loop, seed);
    const auto got = real.run();
    ReferenceLoop reference;
    MixRunner<ReferenceLoop> naive(reference, seed);
    const auto want = naive.run();
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(loop.pending(), 0u);
    EXPECT_EQ(loop.cancelled_backlog(), 0u);

    std::set<std::uint64_t> slots;
    for (const auto& handle : real.handles()) {
      if (!slots.insert(handle.id & 0xffffffffu).second) ++reused_slots;
    }
    for (const auto& line : got) {
      if (line.find(" -> 0") != std::string::npos) ++refused;
    }
    fired += loop.events_processed();
  }
  // The mixes must be large and reach the cases the generation check
  // guards.
  EXPECT_GT(fired, 5000u);
  EXPECT_GT(reused_slots, 5000u);
  EXPECT_GT(refused, 5000u);
}

// ---------------------------------------------------------------------------
// SlotPool
// ---------------------------------------------------------------------------

TEST(SlotPool, GrantsImmediatelyWhenFree) {
  EventLoop loop;
  sim::SlotPool pool(loop, "gpus", 4);
  int granted = 0;
  pool.acquire(2, [&](sim::SlotPool::Grant) { ++granted; });
  pool.acquire(2, [&](sim::SlotPool::Grant) { ++granted; });
  loop.run();
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(pool.in_use(), 4u);
  EXPECT_EQ(pool.available(), 0u);
}

TEST(SlotPool, FifoNoOvertaking) {
  EventLoop loop;
  sim::SlotPool pool(loop, "slots", 4);
  std::vector<int> order;
  sim::SlotPool::Grant first_grant;
  pool.acquire(4, [&](sim::SlotPool::Grant g) {
    order.push_back(0);
    first_grant = g;
  });
  pool.acquire(3, [&](sim::SlotPool::Grant) { order.push_back(1); });
  pool.acquire(1, [&](sim::SlotPool::Grant) { order.push_back(2); });
  loop.run();
  // Only the head got slots; the 1-slot request must NOT overtake.
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(pool.queue_length(), 2u);

  pool.release(first_grant);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SlotPool, WaitTimesRecorded) {
  EventLoop loop;
  sim::SlotPool pool(loop, "slots", 1);
  sim::SlotPool::Grant held;
  pool.acquire(1, [&](sim::SlotPool::Grant g) { held = g; });
  pool.acquire(1, [&](sim::SlotPool::Grant) {});
  loop.run();
  loop.call_after(5.0, [&] { pool.release(held); });
  loop.run();
  ASSERT_EQ(pool.wait_times().count(), 2u);
  EXPECT_DOUBLE_EQ(pool.wait_times().max(), 5.0);
  EXPECT_DOUBLE_EQ(pool.wait_times().min(), 0.0);
}

TEST(SlotPool, UtilizationIntegral) {
  EventLoop loop;
  sim::SlotPool pool(loop, "slots", 2);
  pool.acquire(2, [&](sim::SlotPool::Grant g) {
    loop.call_after(10.0, [&pool, g] { pool.release(g); });
  });
  loop.run();
  loop.call_after(10.0, [] {});  // idle tail: 10 busy, 10 idle
  loop.run();
  EXPECT_NEAR(pool.mean_utilization(), 0.5, 1e-9);
}

TEST(SlotPool, RejectsImpossibleAndInvalid) {
  EventLoop loop;
  sim::SlotPool pool(loop, "slots", 2);
  EXPECT_THROW(pool.acquire(3, [](sim::SlotPool::Grant) {}), Error);
  EXPECT_THROW(pool.acquire(0, [](sim::SlotPool::Grant) {}), Error);
  EXPECT_THROW(pool.release(sim::SlotPool::Grant{}), Error);
  EXPECT_THROW(sim::SlotPool(loop, "zero", 0), Error);
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  EventLoop loop;
  common::Rng rng{17};
  sim::Network net{loop, rng};

  void SetUp() override {
    net.register_host("d0", "delta");
    net.register_host("d1", "delta");
    net.register_host("r0", "r3");
    net.set_link("delta", "delta",
                 sim::LinkModel{
                     common::Distribution::normal(63e-6, 14e-6, 5e-6), 0});
    net.set_link("delta", "r3",
                 sim::LinkModel{
                     common::Distribution::normal(0.47e-3, 0.04e-3, 1e-5),
                     1.25e9});
  }
};

TEST_F(NetworkTest, ZoneRegistration) {
  EXPECT_TRUE(net.has_host("d0"));
  EXPECT_FALSE(net.has_host("x9"));
  EXPECT_EQ(net.zone_of("r0"), "r3");
  EXPECT_THROW((void)net.zone_of("x9"), Error);
}

TEST_F(NetworkTest, IntraZoneDelayMatchesCalibration) {
  common::OnlineStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(net.sample_delay("d0", "d1", 64));
  }
  EXPECT_NEAR(stats.mean(), 63e-6, 2e-6);     // 0.063 ms (paper IV-C)
  EXPECT_NEAR(stats.stddev(), 14e-6, 2e-6);   // +/- 0.014 ms
}

TEST_F(NetworkTest, WanDelayMatchesCalibration) {
  common::OnlineStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(net.sample_delay("d0", "r0", 0));
  }
  EXPECT_NEAR(stats.mean(), 0.47e-3, 1e-5);   // 0.47 ms (paper IV-C)
}

TEST_F(NetworkTest, BandwidthTermAddsTransferTime) {
  // 1.25 GB at 1.25 GB/s across the WAN link: ~1 s on top of latency.
  const double delay = net.sample_delay("d0", "r0", 1'250'000'000);
  EXPECT_GT(delay, 0.9);
  EXPECT_LT(delay, 1.2);
}

TEST_F(NetworkTest, LoopbackDefaultAndZoneOverride) {
  const double default_loopback = net.sample_delay("d0", "d0", 0);
  EXPECT_DOUBLE_EQ(default_loopback, 1e-6);
  net.set_zone_loopback("delta",
                        sim::LinkModel{
                            common::Distribution::constant(50e-6), 0});
  EXPECT_DOUBLE_EQ(net.sample_delay("d0", "d0", 0), 50e-6);
  // Other zones keep the global default.
  EXPECT_DOUBLE_EQ(net.sample_delay("r0", "r0", 0), 1e-6);
}

TEST_F(NetworkTest, DeliverSchedulesArrival) {
  double arrived_at = -1;
  net.deliver("d0", "r0", 128, [&] { arrived_at = loop.now(); });
  loop.run();
  EXPECT_GT(arrived_at, 0.3e-3);
  EXPECT_LT(arrived_at, 0.7e-3);
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.bytes_delivered(), 128u);
}

TEST_F(NetworkTest, MissingLinkThrows) {
  net.register_host("f0", "frontier");
  EXPECT_THROW((void)net.sample_delay("d0", "f0", 0), Error);
}

TEST_F(NetworkTest, DelayStatsPerZonePair) {
  (void)net.sample_delay("d0", "d1", 0);
  (void)net.sample_delay("d0", "r0", 0);
  (void)net.sample_delay("d0", "r0", 0);
  const auto& stats = net.delay_stats();
  EXPECT_EQ(stats.at("delta->delta").count(), 1u);
  EXPECT_EQ(stats.at("delta->r3").count(), 2u);
}

}  // namespace
