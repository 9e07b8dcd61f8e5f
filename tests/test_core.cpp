// Unit tests for core state machines, descriptions, entities, the
// scheduler and the data manager.

#include <gtest/gtest.h>

#include "ripple/common/error.hpp"
#include "ripple/core/data_manager.hpp"
#include "ripple/core/descriptions.hpp"
#include "ripple/core/entities.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/core/session.hpp"
#include "ripple/platform/cluster.hpp"
#include "ripple/platform/profiles.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;

// ---------------------------------------------------------------------------
// State machines
// ---------------------------------------------------------------------------

TEST(TaskStates, HappyPathIsLegal) {
  const TaskState path[] = {
      TaskState::created,  TaskState::waiting,   TaskState::staging_input,
      TaskState::scheduling, TaskState::scheduled, TaskState::launching,
      TaskState::running,  TaskState::staging_output, TaskState::done};
  for (std::size_t i = 0; i + 1 < std::size(path); ++i) {
    EXPECT_TRUE(transition_allowed(path[i], path[i + 1]))
        << to_string(path[i]) << " -> " << to_string(path[i + 1]);
  }
}

TEST(TaskStates, ShortcutsAndFailures) {
  EXPECT_TRUE(transition_allowed(TaskState::created, TaskState::scheduling));
  EXPECT_TRUE(transition_allowed(TaskState::running, TaskState::done));
  EXPECT_TRUE(transition_allowed(TaskState::running, TaskState::failed));
  EXPECT_TRUE(transition_allowed(TaskState::created, TaskState::canceled));
  EXPECT_FALSE(transition_allowed(TaskState::done, TaskState::running));
  EXPECT_FALSE(transition_allowed(TaskState::failed, TaskState::done));
  EXPECT_FALSE(
      transition_allowed(TaskState::scheduling, TaskState::running));
  EXPECT_FALSE(transition_allowed(TaskState::done, TaskState::failed));
}

TEST(ServiceStates, BootstrapPipelineIsLegal) {
  const ServiceState path[] = {
      ServiceState::created,      ServiceState::scheduling,
      ServiceState::scheduled,    ServiceState::launching,
      ServiceState::initializing, ServiceState::publishing,
      ServiceState::running,      ServiceState::draining,
      ServiceState::stopped};
  for (std::size_t i = 0; i + 1 < std::size(path); ++i) {
    EXPECT_TRUE(transition_allowed(path[i], path[i + 1]));
  }
}

TEST(ServiceStates, RemoteAndRestartPaths) {
  // Remote persistent services go straight to running.
  EXPECT_TRUE(
      transition_allowed(ServiceState::created, ServiceState::running));
  // Restart: failed services may re-enter scheduling.
  EXPECT_TRUE(
      transition_allowed(ServiceState::failed, ServiceState::scheduling));
  EXPECT_FALSE(
      transition_allowed(ServiceState::stopped, ServiceState::scheduling));
  EXPECT_FALSE(
      transition_allowed(ServiceState::running, ServiceState::launching));
}

TEST(PilotStates, Lifecycle) {
  EXPECT_TRUE(transition_allowed(PilotState::created, PilotState::active));
  EXPECT_TRUE(transition_allowed(PilotState::active, PilotState::done));
  EXPECT_TRUE(transition_allowed(PilotState::created, PilotState::failed));
  EXPECT_FALSE(transition_allowed(PilotState::done, PilotState::active));
  EXPECT_TRUE(is_terminal(PilotState::canceled));
}

// ---------------------------------------------------------------------------
// Descriptions
// ---------------------------------------------------------------------------

TEST(Descriptions, ValidationCatchesNonsense) {
  PilotDescription pilot;
  EXPECT_THROW(pilot.validate(), Error);  // no platform
  pilot.platform = "delta";
  pilot.nodes = 0;
  EXPECT_THROW(pilot.validate(), Error);
  pilot.nodes = 2;
  EXPECT_NO_THROW(pilot.validate());

  TaskDescription task;
  task.cores = 0;
  task.gpus = 0;
  EXPECT_THROW(task.validate(), Error);  // no resources
  task.gpus = 1;
  EXPECT_NO_THROW(task.validate());

  ServiceDescription svc;
  svc.ready_timeout = 0;
  EXPECT_THROW(svc.validate(), Error);
  svc.ready_timeout = 60;
  svc.heartbeat_misses = 0;
  EXPECT_THROW(svc.validate(), Error);
  svc.heartbeat_misses = 3;
  EXPECT_NO_THROW(svc.validate());
}

// ---------------------------------------------------------------------------
// Entities
// ---------------------------------------------------------------------------

// A task record refers to the pilot it is bound to.
class TaskEntity : public ::testing::Test {
 protected:
  Runtime runtime{1};
  platform::Cluster cluster{runtime.loop(), runtime.network(),
                            platform::delta_profile(1), common::Rng(1)};
  Pilot pilot{"pilot.x", PilotDescription{}, &cluster};
};

TEST_F(TaskEntity, StateTimestampsAndDurations) {
  Task task("task.x", pilot);
  EXPECT_EQ(task.pilot_uid(), "pilot.x");
  task.set_state(TaskState::scheduling, 1.0);
  task.set_state(TaskState::scheduled, 3.0);
  task.set_state(TaskState::launching, 3.0);
  task.set_state(TaskState::running, 5.5);
  EXPECT_DOUBLE_EQ(task.state_time(TaskState::scheduling), 1.0);
  EXPECT_DOUBLE_EQ(task.duration(TaskState::scheduling, TaskState::running),
                   4.5);
  EXPECT_DOUBLE_EQ(task.state_time(TaskState::done), -1.0);
  EXPECT_THROW((void)task.duration(TaskState::created, TaskState::done),
               Error);
}

TEST_F(TaskEntity, IllegalTransitionThrows) {
  Task task("task.x", pilot);
  task.set_state(TaskState::scheduling, 0.0);
  EXPECT_THROW(task.set_state(TaskState::running, 1.0), Error);
  task.set_state(TaskState::canceled, 1.0);
  EXPECT_THROW(task.set_state(TaskState::scheduling, 2.0), Error);
  // States are message parts: the text names them as to_string() does.
  try {
    task.set_state(TaskState::running, 3.0);
    FAIL() << "an illegal transition did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "invalid_state: task.x: illegal transition CANCELED -> "
                 "RUNNING");
  }
}

// A restarted task re-enters SCHEDULING..RUNNING; state_time() keeps
// the first entry of each state.
TEST_F(TaskEntity, ReentryKeepsFirstEntryTimes) {
  Task task("task.x", pilot);
  const TaskState attempt[] = {TaskState::scheduling, TaskState::scheduled,
                               TaskState::launching, TaskState::running};
  double now = 1.0;
  for (int run = 0; run < 2; ++run) {
    for (const TaskState state : attempt) task.set_state(state, now++);
  }
  task.set_state(TaskState::done, now);
  EXPECT_DOUBLE_EQ(task.state_time(TaskState::scheduling), 1.0);
  EXPECT_DOUBLE_EQ(task.state_time(TaskState::running), 4.0);
  EXPECT_DOUBLE_EQ(task.state_time(TaskState::done), 9.0);
  EXPECT_DOUBLE_EQ(task.state_time(TaskState::created), -1.0);
  EXPECT_DOUBLE_EQ(task.state_time(TaskState::canceled), -1.0);
  EXPECT_DOUBLE_EQ(task.duration(TaskState::scheduling, TaskState::done), 8.0);
}

// A failed service restarts through the bootstrap pipeline; the first
// entry of each state wins, and states first reached on the retry get
// the retry's time.
TEST(ServiceEntity, RestartKeepsFirstEntryTimes) {
  Service svc("svc.x", ServiceDescription{});
  svc.set_state(ServiceState::scheduling, 1.0);
  svc.set_state(ServiceState::scheduled, 2.0);
  svc.set_state(ServiceState::launching, 3.0);
  svc.set_state(ServiceState::failed, 4.0);
  svc.set_state(ServiceState::scheduling, 10.0);
  svc.set_state(ServiceState::scheduled, 11.0);
  svc.set_state(ServiceState::launching, 12.0);
  svc.set_state(ServiceState::initializing, 13.0);
  svc.set_state(ServiceState::publishing, 14.0);
  svc.set_state(ServiceState::running, 15.0);
  EXPECT_DOUBLE_EQ(svc.state_time(ServiceState::scheduling), 1.0);
  EXPECT_DOUBLE_EQ(svc.state_time(ServiceState::launching), 3.0);
  EXPECT_DOUBLE_EQ(svc.state_time(ServiceState::failed), 4.0);
  EXPECT_DOUBLE_EQ(svc.state_time(ServiceState::initializing), 13.0);
  EXPECT_DOUBLE_EQ(svc.duration(ServiceState::scheduling,
                                ServiceState::running),
                   14.0);
  EXPECT_DOUBLE_EQ(svc.state_time(ServiceState::stopped), -1.0);
}

// A pilot cannot re-enter a state: a rejected transition leaves the
// recorded first-entry times as they were.
TEST(PilotEntity, RejectedTransitionKeepsTimes) {
  Session session({.seed = 1});
  session.add_platform(platform::delta_profile(1));
  Pilot pilot("pilot.x", PilotDescription{}, &session.cluster("delta"));
  EXPECT_DOUBLE_EQ(pilot.state_time(PilotState::created), -1.0);
  pilot.set_state(PilotState::active, 2.0);
  pilot.set_state(PilotState::failed, 5.0);
  EXPECT_THROW(pilot.set_state(PilotState::failed, 9.0), Error);
  EXPECT_THROW(pilot.set_state(PilotState::active, 9.0), Error);
  EXPECT_DOUBLE_EQ(pilot.state_time(PilotState::active), 2.0);
  EXPECT_DOUBLE_EQ(pilot.state_time(PilotState::failed), 5.0);
  EXPECT_DOUBLE_EQ(pilot.state_time(PilotState::done), -1.0);
}

TEST(ServiceEntity, BootstrapTimingComplete) {
  Service svc("svc.x", ServiceDescription{});
  EXPECT_FALSE(svc.bootstrap().complete());
  svc.bootstrap().launch = 2.0;
  svc.bootstrap().init = 30.0;
  svc.bootstrap().publish = 0.2;
  EXPECT_TRUE(svc.bootstrap().complete());
  EXPECT_DOUBLE_EQ(svc.bootstrap().total(), 32.2);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  Session session{SessionConfig{.seed = 5}};
  Pilot* pilot = nullptr;

  void SetUp() override {
    session.add_platform(platform::delta_profile(2));  // 2 nodes, 4 GPUs ea
    pilot = &session.submit_pilot({.platform = "delta", .nodes = 2});
  }

  ScheduleRequest request(const std::string& uid, std::size_t cores,
                          std::size_t gpus, int priority,
                          std::vector<std::string>& order) {
    ScheduleRequest r;
    r.uid = uid;
    r.cores = cores;
    r.gpus = gpus;
    r.priority = priority;
    r.granted = [&order, uid](platform::Slot, platform::Node*) {
      order.push_back(uid);
    };
    return r;
  }
};

TEST_F(SchedulerTest, GrantsByPriorityThenFifo) {
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  // Saturate: each node has 64 cores; take them all.
  sched.submit(pilot->uid(), request("hog1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog2", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("low", 8, 0, 0, order));
  sched.submit(pilot->uid(), request("high", 8, 0, 5, order));
  session.run();
  ASSERT_EQ(order.size(), 2u);  // hogs hold everything
  EXPECT_EQ(sched.queue_length(pilot->uid()), 2u);

  // Free one node: the higher-priority request goes first.
  sched.release(pilot->uid(),
                platform::Slot{"delta:node0000", 64, 0, 0.0});
  session.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[2], "high");
  EXPECT_EQ(order[3], "low");
}

TEST_F(SchedulerTest, BackfillOvertakesBlockedHead) {
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("big1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("big2", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("big3", 64, 0, 0, order));  // blocked
  sched.submit(pilot->uid(), request("small", 1, 0, 0, order));
  session.run();
  // backfill (default): small overtakes the blocked big3... but only
  // if capacity remains; both nodes are full, so nothing moves.
  EXPECT_EQ(order.size(), 2u);
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 64, 0, 0.0});
  session.run();
  // big3 takes the freed node; small backfills nothing -> still queued?
  // node0000 is full again; small needs 1 core -> no room. Release 1.
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], "big3");
  sched.release(pilot->uid(), platform::Slot{"delta:node0001", 64, 0, 0.0});
  session.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[3], "small");
}

TEST_F(SchedulerTest, FifoPolicyBlocksQueueBehindHead) {
  session.scheduler().set_policy(SchedulerPolicy::fifo);
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("big1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("big2", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("big3", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("small", 1, 0, 0, order));
  session.run();
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(sched.queue_length(pilot->uid()), 2u);
  // Under FIFO, small may NOT run while big3 blocks the head even
  // though a core could be free after a partial release.
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 8, 0, 0.0});
  session.run();
  EXPECT_EQ(order.size(), 2u);
}

TEST_F(SchedulerTest, CancelQueuedRequest) {
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("hog", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog2", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("victim", 64, 0, 0, order));
  session.run();
  EXPECT_TRUE(sched.cancel(pilot->uid(), "victim"));
  EXPECT_FALSE(sched.cancel(pilot->uid(), "victim"));
  EXPECT_FALSE(sched.cancel(pilot->uid(), "hog"));  // already granted
  EXPECT_EQ(sched.queue_length(pilot->uid()), 0u);
}

TEST_F(SchedulerTest, ImpossibleRequestRejectedUpFront) {
  std::vector<std::string> order;
  EXPECT_THROW(session.scheduler().submit(
                   pilot->uid(), request("huge", 1000, 0, 0, order)),
               Error);
  EXPECT_THROW(session.scheduler().submit(
                   pilot->uid(), request("many-gpu", 1, 16, 0, order)),
               Error);
}

TEST_F(SchedulerTest, NeverOversubscribesNodes) {
  // Property: whatever the arrival pattern, allocated cores/gpus on any
  // node never exceed its spec.
  auto& sched = session.scheduler();
  common::Rng rng(21);
  int active = 0;
  std::function<void(int)> spawn = [&](int i) {
    ScheduleRequest r;
    r.uid = "t" + std::to_string(i);
    r.cores = static_cast<std::size_t>(rng.uniform_int(1, 32));
    r.gpus = static_cast<std::size_t>(rng.uniform_int(0, 4));
    r.granted = [&, r](platform::Slot slot, platform::Node* node) {
      ++active;
      EXPECT_LE(node->spec().cores, 64u);
      // Hold for a random time, then release and check invariants.
      session.loop().call_after(
          rng.uniform(0.1, 5.0), [&, slot] {
            sched.release(pilot->uid(), slot);
            --active;
          });
    };
    sched.submit(pilot->uid(), std::move(r));
  };
  for (int i = 0; i < 200; ++i) spawn(i);
  session.run();
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sched.granted_total(), 200u);
  for (std::size_t n = 0; n < 2; ++n) {
    EXPECT_EQ(pilot->cluster().node(n).free_cores(), 64u);
    EXPECT_EQ(pilot->cluster().node(n).free_gpus(), 4u);
  }
}

// ---------------------------------------------------------------------------
// DataManager
// ---------------------------------------------------------------------------

class DataManagerTest : public ::testing::Test {
 protected:
  Runtime runtime{11};
  DataManager data{runtime};
};

TEST_F(DataManagerTest, RegisterAndQuery) {
  data.register_dataset("images", 1.6e12, "lab");
  EXPECT_TRUE(data.has("images"));
  EXPECT_FALSE(data.has("ghost"));
  EXPECT_TRUE(data.available_in("images", "lab"));
  EXPECT_FALSE(data.available_in("images", "delta"));
  EXPECT_DOUBLE_EQ(data.dataset("images").bytes, 1.6e12);
  EXPECT_THROW((void)data.dataset("ghost"), Error);
}

TEST_F(DataManagerTest, StagePresentIsInstant) {
  data.register_dataset("d", 1e9, "delta");
  bool done = false;
  data.stage("d", "delta", [&](bool ok, sim::Duration t) {
    EXPECT_TRUE(ok);
    EXPECT_DOUBLE_EQ(t, 0.0);
    done = true;
  });
  runtime.loop().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(data.transfers(), 0u);
}

TEST_F(DataManagerTest, TransferTimeFollowsBandwidth) {
  data.register_dataset("blob", 10e9, "lab");
  data.set_bandwidth("lab", "delta", 1e9);  // 10 s of payload time
  double duration = -1;
  data.stage("blob", "delta", [&](bool ok, sim::Duration t) {
    EXPECT_TRUE(ok);
    duration = t;
  });
  runtime.loop().run();
  EXPECT_GT(duration, 10.0);
  EXPECT_LT(duration, 15.0);  // + setup latency
  EXPECT_TRUE(data.available_in("blob", "delta"));
  EXPECT_EQ(data.transfers(), 1u);
  EXPECT_DOUBLE_EQ(data.bytes_moved(), 10e9);
}

TEST_F(DataManagerTest, ConcurrentStagesShareOneTransfer) {
  data.register_dataset("shared", 1e9, "lab");
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    data.stage("shared", "delta",
               [&](bool ok, sim::Duration) {
                 EXPECT_TRUE(ok);
                 ++completions;
               });
  }
  runtime.loop().run();
  EXPECT_EQ(completions, 5);
  EXPECT_EQ(data.transfers(), 1u);  // piggybacked
}

TEST_F(DataManagerTest, UnknownDatasetFails) {
  bool ok = true;
  data.stage("ghost", "delta", [&](bool result, sim::Duration) {
    ok = result;
  });
  runtime.loop().run();
  EXPECT_FALSE(ok);
}

// ---------------------------------------------------------------------------
// Session-level entity management
// ---------------------------------------------------------------------------

TEST(SessionEntities, PilotLifecycleAndSummary) {
  Session session({.seed = 1});
  session.add_platform(platform::delta_profile(4));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 3});
  EXPECT_EQ(pilot.nodes().size(), 3u);
  EXPECT_EQ(session.cluster("delta").free_node_count(), 1u);
  session.run();
  EXPECT_EQ(pilot.state(), PilotState::active);

  session.close_pilot(pilot.uid());
  EXPECT_EQ(pilot.state(), PilotState::done);
  EXPECT_EQ(session.cluster("delta").free_node_count(), 4u);
  EXPECT_THROW(session.close_pilot(pilot.uid()), Error);

  const auto summary = session.summary();
  EXPECT_EQ(summary.at("seed").as_int(), 1);
  EXPECT_THROW((void)session.cluster("nonexistent"), Error);
  EXPECT_THROW(session.submit_pilot({.platform = "delta", .nodes = 99}),
               Error);
}

TEST(SessionEntities, DuplicatePlatformRejected) {
  Session session({.seed = 2});
  session.add_platform(platform::delta_profile(2));
  EXPECT_THROW(session.add_platform(platform::delta_profile(2)), Error);
}

}  // namespace
