// Tests for the ML substrate: model specs, the single-threaded
// inference server, load balancers, the client payload config and the
// latency-SLO autoscaler policy.

#include <gtest/gtest.h>

#include <functional>

#include "ripple/common/error.hpp"
#include "ripple/core/failure_coordinator.hpp"
#include "ripple/core/session.hpp"
#include "ripple/ml/autoscaler.hpp"
#include "ripple/ml/client.hpp"
#include "ripple/ml/inference_server.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/ml/load_balancer.hpp"
#include "ripple/ml/model.hpp"
#include "ripple/msg/rpc.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/sim/failure_injector.hpp"

namespace {

using namespace ripple;
using namespace ripple::ml;

TEST(ModelRegistry, BuiltinsPresent) {
  auto& registry = ModelRegistry::global();
  for (const char* name :
       {"noop", "llama-8b", "llama-70b", "mistral-7b", "vit-base"}) {
    EXPECT_TRUE(registry.has(name)) << name;
  }
  EXPECT_FALSE(registry.has("gpt-12"));
  EXPECT_THROW((void)registry.get("gpt-12"), Error);
  EXPECT_GE(registry.names().size(), 5u);
}

TEST(ModelRegistry, AddReplacesByName) {
  ModelRegistry registry;
  ModelSpec custom = noop_model();
  custom.name = "custom";
  custom.per_token_s = 1.0;
  registry.add(custom);
  custom.per_token_s = 2.0;
  registry.add(custom);
  EXPECT_DOUBLE_EQ(registry.get("custom").per_token_s, 2.0);
}

TEST(ModelSpec, NoopRepliesNearInstantly) {
  common::Rng rng(1);
  const auto noop = noop_model();
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(noop.sample_inference(rng), 1e-4);
  }
}

TEST(ModelSpec, LlamaInferenceIsSeconds) {
  common::Rng rng(2);
  const auto llama = llama_8b_model();
  common::OnlineStats stats;
  for (int i = 0; i < 2000; ++i) {
    stats.add(llama.sample_inference(rng));
  }
  // ~120 tokens x 35 ms: seconds-scale, dominating everything else.
  EXPECT_GT(stats.mean(), 2.0);
  EXPECT_LT(stats.mean(), 8.0);
  EXPECT_NEAR(stats.mean(), llama.mean_inference(), 0.5);
}

TEST(ModelSpec, InitContentionMultiplier) {
  common::Rng rng(3);
  const auto llama = llama_8b_model();
  common::OnlineStats base;
  common::OnlineStats contended;
  for (int i = 0; i < 500; ++i) {
    base.add(llama.sample_init(rng, 1, 0.0006, 64));
    contended.add(llama.sample_init(rng, 640, 0.0006, 64));
  }
  EXPECT_GT(contended.mean(), base.mean() * 1.2);
}

// ---------------------------------------------------------------------------
// InferenceServer: queueing semantics
// ---------------------------------------------------------------------------

class ServerFixture : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  common::Rng rng{5};
  sim::Network net{loop, rng};
  msg::Router router{loop, net};
  std::unique_ptr<msg::RpcServer> rpc_server;
  std::unique_ptr<msg::RpcClient> rpc_client;
  std::unique_ptr<InferenceServer> server;

  void SetUp() override {
    net.register_host("s", "z");
    net.register_host("c", "z");
    net.set_link("z", "z",
                 sim::LinkModel{common::Distribution::constant(1e-4), 0});
    rpc_server = std::make_unique<msg::RpcServer>(router, "svc", "s");
    rpc_client = std::make_unique<msg::RpcClient>(router, "cli", "c");
  }

  void make_server(ModelSpec model, ServerConfig config = {}) {
    server = std::make_unique<InferenceServer>(loop, common::Rng(6),
                                               std::move(model), config);
    rpc_server->bind_method("infer",
                            [this](std::shared_ptr<msg::Responder> r) {
                              server->handle(std::move(r));
                            });
  }
};

TEST_F(ServerFixture, SingleThreadedQueuesRequests) {
  // Deterministic 1 s inferences.
  ModelSpec model = noop_model();
  model.inference_floor_s = 1.0;
  model.parse = common::Distribution::constant(0.0);
  model.serialize = common::Distribution::constant(0.0);
  make_server(model);

  std::vector<double> completion_times;
  for (int i = 0; i < 4; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       ASSERT_TRUE(r.ok);
                       completion_times.push_back(loop.now());
                     });
  }
  loop.run();
  ASSERT_EQ(completion_times.size(), 4u);
  // Strictly serialized: completions ~1 s apart.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(completion_times[i] - completion_times[i - 1], 1.0, 1e-3);
  }
  EXPECT_EQ(server->served(), 4u);
  EXPECT_EQ(server->peak_queue(), 3u);
}

TEST_F(ServerFixture, ConcurrencyTwoHalvesMakespan) {
  ModelSpec model = noop_model();
  model.inference_floor_s = 1.0;
  model.parse = common::Distribution::constant(0.0);
  model.serialize = common::Distribution::constant(0.0);
  make_server(model, ServerConfig{.max_concurrency = 2, .max_queue = 0});

  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult) { ++completed; });
  }
  loop.run();
  EXPECT_EQ(completed, 4);
  EXPECT_NEAR(loop.now(), 2.0, 0.01);  // 4 x 1 s on 2 workers
}

TEST_F(ServerFixture, BoundedQueueRejectsOverflow) {
  ModelSpec model = noop_model();
  model.inference_floor_s = 10.0;
  make_server(model, ServerConfig{.max_concurrency = 1, .max_queue = 2});

  int ok_count = 0;
  int rejected = 0;
  for (int i = 0; i < 5; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       if (r.ok) {
                         ++ok_count;
                       } else {
                         EXPECT_NE(r.error.find("queue full"),
                                   std::string::npos);
                         ++rejected;
                       }
                     });
  }
  loop.run();
  EXPECT_EQ(ok_count, 3);  // 1 executing + 2 queued
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(server->rejected(), 2u);
}

TEST_F(ServerFixture, StatsReportServedAndQueue) {
  make_server(noop_model());
  rpc_client->call("svc", "infer", json::Value::object(),
                   [](msg::CallResult) {});
  loop.run();
  const auto stats = server->stats();
  EXPECT_EQ(stats.at("served").as_int(), 1);
  EXPECT_EQ(stats.at("model").as_string(), "noop");
  EXPECT_EQ(stats.at("busy").as_int(), 0);
}

TEST_F(ServerFixture, InvalidConfigRejected) {
  EXPECT_THROW(InferenceServer(loop, common::Rng(1), noop_model(),
                               ServerConfig{.max_concurrency = 0,
                                            .max_queue = 0}),
               Error);
}

// ---------------------------------------------------------------------------
// Load balancers
// ---------------------------------------------------------------------------

TEST(LoadBalancer, RoundRobinCycles) {
  RoundRobinBalancer balancer({"a", "b", "c"});
  EXPECT_EQ(balancer.pick(), "a");
  EXPECT_EQ(balancer.pick(), "b");
  EXPECT_EQ(balancer.pick(), "c");
  EXPECT_EQ(balancer.pick(), "a");
}

TEST(LoadBalancer, RandomCoversAllEndpoints) {
  RandomBalancer balancer({"a", "b", "c"}, common::Rng(4));
  std::map<std::string, int> counts;
  for (int i = 0; i < 300; ++i) ++counts[balancer.pick()];
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [endpoint, count] : counts) EXPECT_GT(count, 50);
}

TEST(LoadBalancer, LeastOutstandingAvoidsBusyEndpoint) {
  LeastOutstandingBalancer balancer({"a", "b"});
  const std::string first = balancer.pick();   // a: 1 in flight
  const std::string second = balancer.pick();  // b: 1 in flight
  EXPECT_NE(first, second);
  // Complete b's request: next pick must be b (a still busy).
  balancer.on_complete("b");
  EXPECT_EQ(balancer.pick(), "b");
  EXPECT_EQ(balancer.outstanding("a"), 1u);
  EXPECT_EQ(balancer.outstanding("b"), 1u);
}

TEST(LoadBalancer, FactoryAndValidation) {
  auto rr = make_balancer("round_robin", {"x"}, common::Rng(1));
  EXPECT_STREQ(rr->name(), "round_robin");
  auto rnd = make_balancer("random", {"x"}, common::Rng(1));
  EXPECT_STREQ(rnd->name(), "random");
  auto lo = make_balancer("least_outstanding", {"x"}, common::Rng(1));
  EXPECT_STREQ(lo->name(), "least_outstanding");
  EXPECT_THROW((void)make_balancer("psychic", {"x"}, common::Rng(1)),
               Error);
  EXPECT_THROW((void)make_balancer("random", {}, common::Rng(1)), Error);
}

// ---------------------------------------------------------------------------
// Latency-SLO autoscaler policy
// ---------------------------------------------------------------------------

/// Registers (or refreshes) a fully deterministic model: constant
/// `floor_s`-second inferences, zero parse/serialize, instant load.
/// Every request latency is then queue wait + floor_s exactly.
ModelSpec slo_model(const std::string& name, double floor_s) {
  ModelSpec model = noop_model();
  model.name = name;
  model.init = common::Distribution::constant(0.05);
  model.parse = common::Distribution::constant(0.0);
  model.serialize = common::Distribution::constant(0.0);
  model.tokens_out = common::Distribution::constant(0.0);
  model.per_token_s = 0.0;
  model.inference_floor_s = floor_s;
  model.batch_cost_slope = 0.0;
  ModelRegistry::global().add(model);
  return model;
}

core::ServiceDescription slo_replica(const std::string& group,
                                     const std::string& model,
                                     double latency_window) {
  core::ServiceDescription replica;
  replica.name = group;
  replica.program = "inference";
  replica.config = json::Value::object({{"model", model},
                                        {"continuous", true},
                                        {"latency_window", latency_window}});
  replica.gpus = 1;
  return replica;
}

TEST(AutoscalerSlo, ValidatesConfig) {
  core::Session session({.seed = 1});
  ml::install(session);
  session.add_platform(platform::delta_profile(1));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  core::ServiceDescription replica;
  replica.program = "inference";

  AutoscalerConfig bad;
  bad.target_p95 = 1.0;
  bad.headroom_fraction = 1.0;  // must leave a band below the target
  EXPECT_THROW(Autoscaler(session, pilot, replica, bad), Error);
  bad = {};
  bad.target_p95 = 1.0;
  bad.down_sustain = 0;
  EXPECT_THROW(Autoscaler(session, pilot, replica, bad), Error);
}

TEST(AutoscalerSlo, ScalesUpWhenWindowedP95ExceedsTarget) {
  core::Session session({.seed = 31});
  ml::install(session);
  session.add_platform(platform::delta_profile(3));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 3});
  slo_model("slo-second", 1.0);

  AutoscalerConfig scaling;
  scaling.min_replicas = 1;
  scaling.max_replicas = 3;
  scaling.poll_interval = 0.25;
  scaling.cooldown = 0.5;
  scaling.target_p95 = 0.5;
  Autoscaler scaler(session, pilot,
                    slo_replica("slo-up", "slo-second", 30.0), scaling);

  msg::RpcClient prober(session.runtime().router(), "prober",
                        session.cluster("delta").head_host());
  scaler.start([&](bool ok) {
    ASSERT_TRUE(ok);
    // Four serial one-second requests: completed latencies 1..4 s, all
    // far over the 0.5 s target for the whole 30 s window.
    for (int i = 0; i < 4; ++i) {
      prober.call(scaler.endpoints().front(), "infer",
                  json::Value::object(), [](msg::CallResult) {});
    }
  });
  session.run_until(12.0);
  EXPECT_GE(scaler.scale_ups(), 1u);
  ASSERT_FALSE(scaler.decisions().empty());
  EXPECT_TRUE(scaler.decisions().front().up);
  // The decision recorded the violating signal, not a queue depth.
  EXPECT_GT(scaler.decisions().front().p95, scaling.target_p95);
  EXPECT_EQ(scaler.scale_downs(), 0u);  // the window is still hot
  scaler.stop();
  session.run();
}

TEST(AutoscalerSlo, HysteresisBandHoldsThenSustainedHeadroomScalesDown) {
  core::Session session({.seed = 37});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  slo_model("slo-hold", 1.0);

  AutoscalerConfig scaling;
  scaling.min_replicas = 1;
  scaling.max_replicas = 2;
  scaling.poll_interval = 0.25;
  scaling.cooldown = 0.5;
  scaling.target_p95 = 1.2;        // band: (0.36, 1.2]
  scaling.headroom_fraction = 0.3;
  scaling.down_sustain = 3;
  Autoscaler scaler(session, pilot,
                    slo_replica("slo-hold-pool", "slo-hold", 3.0),
                    scaling);

  msg::RpcClient prober(session.runtime().router(), "prober",
                        session.cluster("delta").head_host());
  std::string endpoint;
  scaler.start([&](bool ok) {
    ASSERT_TRUE(ok);
    endpoint = scaler.endpoints().front();
    // Burst: five queued one-second requests, latencies 1..5 s — the
    // p95 breaks the 1.2 s target and forces a scale-up.
    for (int i = 0; i < 5; ++i) {
      prober.call(endpoint, "infer", json::Value::object(),
                  [](msg::CallResult) {});
    }
  });

  // Controller tick: once the pool reaches two running replicas, send
  // one non-overlapping request every 1.5 s for 10 s. Each completes in
  // exactly 1.0 s — inside the hysteresis band, below the target but
  // above the headroom threshold — so the oscillating load must hold
  // the pool at two replicas. Going silent afterwards empties the 3 s
  // window and only then may the sustained-headroom streak drain one.
  double hold_until = -1.0;
  double next_send = -1.0;
  std::size_t decisions_at_hold = 0;
  bool hold_checked = false;
  std::function<void()> controller = [&] {
    if (hold_until < 0.0 && scaler.running_replicas() == 2) {
      hold_until = session.now() + 10.0;
      next_send = session.now();
      decisions_at_hold = scaler.decisions().size();
    }
    if (hold_until > 0.0 && session.now() <= hold_until &&
        session.now() >= next_send) {
      prober.call(endpoint, "infer", json::Value::object(),
                  [](msg::CallResult) {});
      next_send = session.now() + 1.5;
    }
    if (hold_until > 0.0 && !hold_checked && session.now() > hold_until) {
      hold_checked = true;
      // The whole oscillating phase made no scaling decision.
      EXPECT_EQ(scaler.decisions().size(), decisions_at_hold);
      EXPECT_EQ(scaler.running_replicas(), 2u);
    }
    if (session.now() < 60.0 && scaler.scale_downs() == 0) {
      session.loop().call_after(0.25, controller);
    }
  };
  session.loop().call_after(0.25, controller);
  session.run_until(60.0);

  EXPECT_TRUE(hold_checked);
  EXPECT_EQ(scaler.scale_ups(), 1u);
  EXPECT_EQ(scaler.scale_downs(), 1u);
  EXPECT_EQ(scaler.running_replicas(), 1u);
  scaler.stop();
  session.run();
}

TEST(AutoscalerSlo, SaturatedPoolWithEmptyWindowHoldsScaleDown) {
  // Latency samples land only at reply time, so a pool whose in-flight
  // requests all outlive the window shows an EMPTY window while
  // drowning. That must read as "no signal", not as headroom: scaling
  // down here would deepen the overload. Only after the backlog drains
  // to zero may the idle-window streak shed the extra replica.
  core::Session session({.seed = 43});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  slo_model("slo-slow", 5.0);

  AutoscalerConfig scaling;
  scaling.min_replicas = 1;
  scaling.max_replicas = 2;
  scaling.poll_interval = 0.25;
  scaling.cooldown = 0.5;
  scaling.target_p95 = 0.5;
  scaling.headroom_fraction = 0.5;
  scaling.down_sustain = 3;
  // 1 s window << 5 s inferences: between two completions the window
  // spends seconds empty while several requests are in flight.
  Autoscaler scaler(session, pilot,
                    slo_replica("slo-saturated", "slo-slow", 1.0),
                    scaling);

  msg::RpcClient prober(session.runtime().router(), "prober",
                        session.cluster("delta").head_host());
  bool storm_sent = false;
  bool mid_storm_checked = false;
  scaler.start([&](bool ok) {
    ASSERT_TRUE(ok);
    // Three queued 5 s requests: their completions put p95 >= 5 s into
    // the window and scale the pool up.
    for (int i = 0; i < 3; ++i) {
      prober.call(scaler.endpoints().front(), "infer",
                  json::Value::object(), [](msg::CallResult) {});
    }
  });
  std::function<void()> controller = [&] {
    if (!storm_sent && scaler.running_replicas() == 2) {
      storm_sent = true;
      // Saturate both replicas: four 5 s requests each. For the next
      // ~20 s most polls see an empty window with a deep backlog.
      const auto endpoints = scaler.endpoints();
      ASSERT_EQ(endpoints.size(), 2u);
      for (const auto& endpoint : endpoints) {
        for (int i = 0; i < 4; ++i) {
          prober.call(endpoint, "infer", json::Value::object(),
                      [](msg::CallResult) {});
        }
      }
      session.loop().call_after(10.0, [&] {
        mid_storm_checked = true;
        // Deep into the storm: an unfixed policy would have counted the
        // empty-window polls as headroom and drained a replica by now.
        EXPECT_EQ(scaler.scale_downs(), 0u);
        EXPECT_EQ(scaler.running_replicas(), 2u);
      });
      return;
    }
    if (!storm_sent && session.now() < 30.0) {
      session.loop().call_after(0.25, controller);
    }
  };
  session.loop().call_after(0.25, controller);
  session.run_until(70.0);

  EXPECT_TRUE(storm_sent);
  EXPECT_TRUE(mid_storm_checked);
  // Once the backlog fully drained, the idle empty window counted as
  // sustained headroom again and shed the extra replica.
  EXPECT_EQ(scaler.scale_downs(), 1u);
  EXPECT_EQ(scaler.running_replicas(), 1u);
  scaler.stop();
  session.run();
}

TEST(AutoscalerSlo, SloScaleDownDrainsLeastLoadedReplica) {
  core::Session session({.seed = 41});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  slo_model("slo-fast", 0.05);

  AutoscalerConfig scaling;
  scaling.min_replicas = 1;
  scaling.max_replicas = 2;
  scaling.poll_interval = 0.25;
  scaling.cooldown = 0.5;
  scaling.target_p95 = 0.5;
  // Headroom threshold 0.45 s: the trickle below stays under it even
  // with three requests in flight, so the SLO sees sustained headroom
  // while the NEWEST replica carries all the traffic.
  scaling.headroom_fraction = 0.9;
  scaling.down_sustain = 3;
  Autoscaler scaler(session, pilot,
                    slo_replica("slo-drain", "slo-fast", 1.0), scaling);

  msg::RpcClient prober(session.runtime().router(), "prober",
                        session.cluster("delta").head_host());
  std::string old_uid;
  std::string new_uid;
  std::string new_endpoint;
  bool keep_sending = false;
  std::function<void()> send_loop = [&] {
    if (!keep_sending) return;
    prober.call(new_endpoint, "infer", json::Value::object(),
                [&](msg::CallResult) { send_loop(); });
  };
  scaler.start([&](bool ok) {
    ASSERT_TRUE(ok);
    old_uid = scaler.replicas().front();
    // Queue burst on the first replica: latencies up to ~1.5 s violate
    // the target and scale the pool up.
    for (int i = 0; i < 30; ++i) {
      prober.call(scaler.endpoints().front(), "infer",
                  json::Value::object(), [](msg::CallResult) {});
    }
  });
  std::function<void()> controller = [&] {
    if (new_endpoint.empty() && scaler.running_replicas() == 2) {
      for (const auto& uid : scaler.replicas()) {
        if (uid != old_uid) new_uid = uid;
      }
      ASSERT_FALSE(new_uid.empty());
      new_endpoint = session.services().get(new_uid).endpoint();
      // Pin three closed-loop request streams onto the NEWEST replica
      // only; the oldest idles. The legacy policy always drained the
      // newest — exactly the replica carrying all the load.
      keep_sending = true;
      for (int i = 0; i < 3; ++i) send_loop();
    }
    if (scaler.scale_downs() > 0) {
      keep_sending = false;
      return;
    }
    if (session.now() < 60.0) session.loop().call_after(0.1, controller);
  };
  session.loop().call_after(0.1, controller);
  session.run_until(60.0);

  EXPECT_EQ(scaler.scale_downs(), 1u);
  ASSERT_FALSE(new_uid.empty());
  // The loaded (newest) replica survived; the idle oldest was drained.
  EXPECT_EQ(session.services().get(new_uid).state(),
            core::ServiceState::running);
  EXPECT_NE(session.services().get(old_uid).state(),
            core::ServiceState::running);
  scaler.stop();
  session.run();
}

// ---------------------------------------------------------------------------
// Client config
// ---------------------------------------------------------------------------

TEST(ClientConfig, JsonRoundTrip) {
  ClientConfig config;
  config.endpoints = {"svc.0", "svc.1"};
  config.requests = 1024;
  config.concurrency = 4;
  config.series = "exp2";
  config.balancer = "least_outstanding";
  config.timeout = 30.0;
  const auto restored = ClientConfig::from_json(config.to_json());
  EXPECT_EQ(restored.endpoints, config.endpoints);
  EXPECT_EQ(restored.requests, 1024u);
  EXPECT_EQ(restored.concurrency, 4u);
  EXPECT_EQ(restored.series, "exp2");
  EXPECT_EQ(restored.balancer, "least_outstanding");
  EXPECT_DOUBLE_EQ(restored.timeout, 30.0);
}

TEST(ClientConfig, DefaultsApplied) {
  const auto config = ClientConfig::from_json(json::Value::object());
  EXPECT_TRUE(config.endpoints.empty());
  EXPECT_EQ(config.requests, 16u);
  EXPECT_EQ(config.concurrency, 1u);
  EXPECT_EQ(config.balancer, "round_robin");
}

// Regression: a request sleeping through its retry backoff must
// re-reconcile with the endpoint directory before the next attempt.
// The directory changes here without any pub/sub event (a replacement
// registered directly), so only the retry path's reconcile can see it;
// before the fix the client kept hammering its dead configured
// endpoint until the budget drained and the task failed.
TEST(ClientWatch, RetryReconcilesDirectoryDriftMidBackoff) {
  core::Session session({.seed = 21});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  // A live server published under a *different* service name: its
  // pub/sub events carry name="other" and are invisible to watch="grp".
  core::ServiceDescription svc;
  svc.name = "other";
  svc.program = "inference";
  svc.config = json::Value::object({{"model", "noop"}});
  svc.gpus = 1;
  const std::string server = session.services().submit(pilot, svc);

  std::string task_uid;
  session.services().when_ready({server}, [&](bool ok) {
    ASSERT_TRUE(ok);
    const std::string live = session.services().get(server).endpoint();
    core::TaskDescription task;
    task.kind = "inference_client";
    task.payload = json::Value::object(
        {{"endpoints", json::Value::array({std::string("svc.ghost")})},
         {"requests", 4},
         {"concurrency", 1},
         {"series", "drift"},
         {"watch", "grp"},
         {"max_retries", 8},
         {"retry_backoff", 0.5}});
    task_uid = session.tasks().submit(pilot, task);
    // While the first request backs off from the unreachable endpoint,
    // the watched group gains a member — directory only, no event.
    session.loop().call_after(3.0, [&session, live] {
      session.runtime().register_endpoint("grp", live);
    });
    session.tasks().when_done(
        {task_uid}, [&](bool) { session.services().stop_all(); });
  });
  session.run();

  const core::Task& task = session.tasks().get(task_uid);
  ASSERT_EQ(task.state(), core::TaskState::done);
  EXPECT_EQ(task.result().get_or("ok", json::Value(0)).as_int(), 4);
  EXPECT_GT(task.result().get_or("retried", json::Value(0)).as_int(), 0);
}

TEST(ClientPreemption, NoSurvivorFailsTaskWithRequestsInFlight) {
  // The client's pilot is preempted while its requests are queued at a
  // server on another pilot whose nodes are too small to take the task.
  // The task fails and its execution context is released; the replies
  // and timeouts still in flight must drop themselves without touching
  // it (checked under AddressSanitizer).
  core::Session session({.seed = 29});
  ml::install(session);
  session.add_platform(platform::delta_profile(1));
  session.add_platform(platform::r3_profile(1));
  auto& serving = session.submit_pilot({.platform = "r3", .nodes = 1});
  auto& computing = session.submit_pilot({.platform = "delta", .nodes = 1});
  (void)slo_model("preempt-slow", 2.0);

  core::ServiceDescription svc;
  svc.name = "slow";
  svc.program = "inference";
  svc.config = json::Value::object({{"model", "preempt-slow"}});
  svc.gpus = 1;
  const std::string server = session.services().submit(serving, svc);

  std::string task_uid;
  session.services().when_ready({server}, [&](bool ok) {
    ASSERT_TRUE(ok);
    core::TaskDescription task;
    task.kind = "inference_client";
    task.cores = 64;  // r3 nodes have 48 cores: no survivor fits
    task.payload = json::Value::object(
        {{"endpoints", json::Value::array(
                           {session.services().get(server).endpoint()})},
         {"requests", 8},
         {"concurrency", 4},
         {"series", "preempted"},
         {"timeout", 7.0},
         {"watch", "slow"}});
    task_uid = session.tasks().submit(computing, task);
    session.tasks().when_done({task_uid}, [&](bool) {
      // Keep the server up past every in-flight reply and timeout.
      session.loop().call_after(
          20.0, [&session] { session.services().stop_all(); });
    });
    session.failures().injector().inject_at(
        session.now() + 6.0, sim::FailureKind::pilot_preempt,
        computing.uid());
  });
  session.run();

  const core::Task& task = session.tasks().get(task_uid);
  ASSERT_EQ(task.state(), core::TaskState::failed);
  EXPECT_NE(task.error().find("no surviving pilot fits"), std::string::npos);
  const double running = task.state_time(core::TaskState::running);
  EXPECT_GE(running, 0.0);
  EXPECT_LT(running, task.state_time(core::TaskState::failed));
}

}  // namespace
