// Task lifetime: at DONE, FAILED or CANCELED the TaskManager frees a
// task's description, slot and attempt state and keeps only its record
// (state, first-entry times, pilot, result, error). These tests check
// every answer it gives about finished tasks against a snapshot taken
// when the task finished and against naive recounts, on seeded random
// campaigns; and they bound the heap a finished task keeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "../bench/retained_bytes.hpp"
#include "ripple/core/failure_coordinator.hpp"
#include "ripple/core/session.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/sim/failure_injector.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;
using sim::FailureKind;

constexpr std::array kStates = {
    TaskState::created,    TaskState::waiting,        TaskState::staging_input,
    TaskState::scheduling, TaskState::scheduled,      TaskState::launching,
    TaskState::running,    TaskState::staging_output, TaskState::done,
    TaskState::failed,     TaskState::canceled};

/// Everything a finished task's record answers.
struct Snapshot {
  TaskState state = TaskState::created;
  std::array<double, kStates.size()> times{};
  std::string result;
  std::string error;
  std::string pilot_uid;

  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const Task& task) {
  Snapshot out;
  out.state = task.state();
  for (std::size_t i = 0; i < kStates.size(); ++i) {
    out.times[i] = task.state_time(kStates[i]);
  }
  out.result = task.result().dump();
  out.error = task.error();
  out.pilot_uid = task.pilot_uid();
  return out;
}

/// What the campaigns exercised, summed over seeds.
struct Coverage {
  std::map<TaskState, std::size_t> finished;
  std::size_t dependency_failures = 0;
  std::size_t stage_in_failures = 0;
  std::size_t stage_out_failures = 0;
  std::size_t payload_failures = 0;
  std::size_t cancels_accepted = 0;
  std::size_t cancels_refused_live = 0;
  std::size_t restarts = 0;
  std::size_t speculations = 0;
};

bool contains(const std::string& text, const char* part) {
  return text.find(part) != std::string::npos;
}

/// One random campaign: dependency chains (some under failing parents),
/// cancels before and after the grant, node crashes under a restart
/// policy, a slow node that draws speculative duplicates, and stage-in
/// and stage-out failures.
void run_campaign(std::uint64_t seed, Coverage& coverage) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  Session session({.seed = seed});
  session.add_platform(platform::delta_profile(4));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
  session.tasks().set_restart_policy({.max_restarts = 2});
  session.tasks().set_speculation(
      {.enabled = true, .latency_multiple = 2.0, .min_delay = 0.5});
  session.executor().functions().register_fn(
      "bomb", [](ExecutionContext&, const json::Value&) -> json::Value {
        throw std::runtime_error("bomb");
      });
  auto& network = session.runtime().network();
  network.register_host("archive:x", "archive");
  network.register_host("lab:x", "lab");
  DataManager& data = session.data();
  data.register_dataset("input", 1e9, "archive");
  data.set_bandwidth("archive", "delta", 1e9);
  data.set_bandwidth("delta", "lab", 1e9);
  data.add_store("lab", 3e6);  // a 5 MB output cannot land there

  common::Rng rng(seed);
  TaskManager& tasks = session.tasks();
  std::vector<std::string> uids;
  std::map<std::string, const Task*> live_refs;
  std::map<std::string, Snapshot> at_done;
  for (int i = 0; i < 60; ++i) {
    TaskDescription desc;
    constexpr std::array<std::size_t, 4> kCores = {1, 8, 32, 64};
    desc.cores = kCores[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    desc.duration = common::Distribution::constant(rng.uniform(0.5, 6.0));
    if (rng.chance(0.1)) {
      desc.kind = "function";
      desc.payload = json::Value::object({{"fn", "bomb"}});
    }
    if (!uids.empty() && rng.chance(0.35)) {
      const auto deps = rng.uniform_int(1, 2);
      for (std::int64_t d = 0; d < deps; ++d) {
        const auto parent = rng.uniform_int(
            0, static_cast<std::int64_t>(uids.size()) - 1);
        desc.depends_on.push_back(uids[static_cast<std::size_t>(parent)]);
      }
    }
    if (rng.chance(0.15)) desc.staging.push_back(StagingDirective::in("input"));
    if (rng.chance(0.04)) {
      desc.staging.push_back(StagingDirective::in("missing"));
    }
    if (rng.chance(0.15)) {
      desc.staging.push_back(
          StagingDirective::out("out." + std::to_string(i), "lab"));
      desc.payload.set("output_bytes", rng.chance(0.3) ? 5e6 : 1e6);
    }
    const std::string uid = tasks.submit(pilot, desc);
    uids.push_back(uid);
    live_refs[uid] = &tasks.get(uid);
    tasks.when_done({uid}, [&tasks, &at_done, uid](bool all_done) {
      const Task& task = tasks.get(uid);
      EXPECT_EQ(all_done, task.state() == TaskState::done) << uid;
      at_done[uid] = snapshot(task);
    });
    // Cancel before the grant: still CREATED, always accepted.
    if (rng.chance(0.08)) {
      EXPECT_TRUE(tasks.cancel(uid));
      ++coverage.cancels_accepted;
    }
  }
  // Cancels at random times: accepted before the grant, refused once
  // the task holds its slot or has finished.
  for (int i = 0; i < 10; ++i) {
    const std::string victim = uids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(uids.size()) - 1))];
    session.loop().call_at(rng.uniform(0.0, 20.0), [&, victim] {
      const TaskState before = tasks.get(victim).state();
      const bool accepted = tasks.cancel(victim);
      if (is_terminal(before)) {
        EXPECT_FALSE(accepted) << victim;
        EXPECT_EQ(tasks.get(victim).state(), before) << victim;
      } else if (accepted) {
        ++coverage.cancels_accepted;
        EXPECT_EQ(tasks.get(victim).state(), TaskState::canceled) << victim;
      } else {
        ++coverage.cancels_refused_live;
      }
    });
  }
  auto& injector = session.failures().injector();
  injector.inject_at(0.0, FailureKind::slow_node,
                     session.cluster("delta").node(3).id(), 8.0);
  for (int i = 0; i < 2; ++i) {
    const auto index = static_cast<std::size_t>(rng.uniform_int(0, 2));
    const std::string node = session.cluster("delta").node(index).id();
    const double at = rng.uniform(1.0, 15.0);
    injector.inject_at(at, FailureKind::node_crash, node);
    injector.inject_at(at + 4.0, FailureKind::node_restore, node);
  }
  session.run();
  coverage.restarts += tasks.restarts_total();
  coverage.speculations += tasks.speculations();

  // The record matches the snapshot its completion callback took, and
  // a reference taken while the task was live still reads it.
  for (const auto& uid : uids) {
    const Task& task = tasks.get(uid);
    ASSERT_TRUE(is_terminal(task.state())) << uid;
    ASSERT_EQ(at_done.count(uid), 1u) << uid;
    EXPECT_EQ(snapshot(task), at_done[uid]) << uid;
    EXPECT_EQ(live_refs[uid], &task) << uid;
    EXPECT_EQ(snapshot(*live_refs[uid]), at_done[uid]) << uid;
    ++coverage.finished[task.state()];
    const std::string& error = task.error();
    if (contains(error, "dependency")) ++coverage.dependency_failures;
    if (contains(error, "stage-in")) ++coverage.stage_in_failures;
    if (contains(error, "stage-out")) ++coverage.stage_out_failures;
    if (contains(error, "threw")) ++coverage.payload_failures;
  }

  // First-entry times and final states against a linear scan of the
  // transition journal. CREATED is the exception: the journal stamps the
  // submit time, the record has never stamped it (state_time is -1).
  for (const auto& uid : uids) {
    std::array<double, kStates.size()> first;
    first.fill(-1.0);
    std::string_view last;
    for (const auto& record : session.timeline().records()) {
      if (record.entity != uid) continue;
      last = record.state;
      for (std::size_t i = 0; i < kStates.size(); ++i) {
        if (record.state == to_string(kStates[i]) && first[i] < 0.0) {
          first[i] = record.time;
        }
      }
    }
    first[0] = -1.0;
    EXPECT_EQ(snapshot(tasks.get(uid)).times, first) << uid;
    EXPECT_EQ(last, to_string(tasks.get(uid).state())) << uid;
  }

  // exists, uids() and count_in_state against a recount.
  std::vector<std::string> sorted = uids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(tasks.uids(), sorted);
  for (const auto& uid : uids) EXPECT_TRUE(tasks.exists(uid));
  EXPECT_FALSE(tasks.exists("task.999999"));
  for (const TaskState state : kStates) {
    const auto n = static_cast<std::size_t>(
        std::count_if(uids.begin(), uids.end(), [&](const std::string& uid) {
          return tasks.get(uid).state() == state;
        }));
    EXPECT_EQ(tasks.count_in_state(state), n) << to_string(state);
  }

  // Watchers registered on finished tasks fire once, with all_done true
  // iff every listed task is DONE; cancel refuses every finished task.
  std::vector<std::vector<std::string>> groups = {uids};
  for (int i = 0; i < 8; ++i) {
    std::vector<std::string> group;
    for (int k = 0; k < 3; ++k) {
      group.push_back(uids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(uids.size()) - 1))]);
    }
    groups.push_back(group);
  }
  std::vector<int> fired(groups.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const bool expected = std::all_of(
        groups[g].begin(), groups[g].end(), [&](const std::string& uid) {
          return tasks.get(uid).state() == TaskState::done;
        });
    tasks.when_done(groups[g], [&fired, g, expected](bool all_done) {
      EXPECT_EQ(all_done, expected);
      ++fired[g];
    });
  }
  for (const auto& uid : uids) {
    const Snapshot before = snapshot(tasks.get(uid));
    EXPECT_FALSE(tasks.cancel(uid)) << uid;
    EXPECT_EQ(snapshot(tasks.get(uid)), before) << uid;
  }
  session.run();
  EXPECT_EQ(fired, std::vector<int>(groups.size(), 1));
}

TEST(TaskLifetime, FinishedTasksMatchSnapshotsAndRecountsOnRandomCampaigns) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_campaign(seed, coverage);
    if (HasFatalFailure()) return;
  }
  // Every path the campaigns are meant to mix was taken.
  EXPECT_GT(coverage.finished[TaskState::done], 0u);
  EXPECT_GT(coverage.finished[TaskState::failed], 0u);
  EXPECT_GT(coverage.finished[TaskState::canceled], 0u);
  EXPECT_GT(coverage.dependency_failures, 0u);
  EXPECT_GT(coverage.stage_in_failures, 0u);
  EXPECT_GT(coverage.stage_out_failures, 0u);
  EXPECT_GT(coverage.payload_failures, 0u);
  EXPECT_GT(coverage.cancels_accepted, 0u);
  EXPECT_GT(coverage.cancels_refused_live, 0u);
  EXPECT_GT(coverage.restarts, 0u);
  EXPECT_GT(coverage.speculations, 0u);
}

// The gate on what a finished task keeps. Keeping every task's
// description, slot and attempt state until the Session ends costs
// ~1,140 B per task on this measure; the record alone (map node with
// its key, the Task, a one-key result object) is ~430 B.
TEST(TaskLifetime, RetainedHeapPerFinishedTaskIsBounded) {
  constexpr int kTasks = 8000;
  const bench::RetainedBytes retained =
      bench::retained_bytes_per_finished_task(kTasks);
  EXPECT_EQ(retained.done, static_cast<std::size_t>(kTasks));
  if (!bench::kHeapVisible) {
    GTEST_SKIP() << "mallinfo2 does not see the sanitizer's heap";
  }
  // Nonzero: the measure sees the heap, and the records are kept.
  EXPECT_GE(retained.per_task, static_cast<double>(sizeof(Task)));
  EXPECT_LE(retained.per_task, 480.0);
}

}  // namespace
