#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "ripple/core/session.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/wf/graph.hpp"
#include "ripple/wf/workflow_manager.hpp"

namespace perfbench {
namespace {

using namespace ripple;

// --- workload sizes (NOTES.md explains each choice) ----------------------

constexpr std::size_t kBagTasks = 2000;
constexpr std::size_t kTenantTasks = 1500;
constexpr std::size_t kGraphs = 1600;
constexpr std::size_t kGraphsInFlight = 8;
constexpr std::size_t kClients = 64;
constexpr std::size_t kRequestsPerClient = 1024;
constexpr std::size_t kClientConcurrency = 4;
constexpr std::size_t kLocalServices = 4;
constexpr std::size_t kRemoteServices = 4;

constexpr std::size_t kSmallPilotNodes = 4;  ///< dag and serve
constexpr std::size_t kGraphTaskCores = 8;
constexpr std::size_t kBranches = 4;
constexpr std::size_t kDagParts = 64;
constexpr double kDagPartBytes = 4e9;
constexpr double kDagStoreBytes = 200e9;
constexpr std::size_t kTenantParts = 32;
constexpr double kTenantPartBytes = 2e9;
constexpr double kTenantStoreBytes = 100e9;

constexpr char kPlatform[] = "delta";
constexpr char kArchive[] = "archive";
constexpr char kSeries[] = "rt";

/// splitmix64: the benchmark's own generator, so the inputs a seed
/// gives do not change when Ripple's RNG does.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
}

/// cores in {1, 2, 4, ..., 64}, sim duration U(10, 600) s.
TaskShape random_task(InputRng& rng) {
  TaskShape shape;
  shape.cores = std::size_t{1} << rng.below(7);
  shape.seconds = rng.uniform(10.0, 600.0);
  return shape;
}

std::string dag_part_name(std::size_t part) {
  return "corpus/part" + std::to_string(part);
}

core::TaskDescription modeled(std::size_t cores, double seconds) {
  core::TaskDescription desc;
  desc.kind = "modeled";
  desc.cores = cores;
  desc.duration = common::Distribution::constant(seconds);
  return desc;
}

core::ServiceDescription noop_service(bool preloaded) {
  core::ServiceDescription desc;
  desc.name = "noop-svc";
  desc.program = "inference";
  desc.config = json::Value::object({{"model", "noop"}});
  if (preloaded) desc.config.set("preloaded", true);
  desc.cores = 1;
  desc.gpus = 1;
  return desc;
}

// --- set-up ----------------------------------------------------------------

/// A session with its platforms, pilot and registrations: everything a
/// run has before its first workload submit.
struct Rig {
  std::unique_ptr<core::Session> session;
  core::Pilot* pilot = nullptr;
  platform::Cluster* r3 = nullptr;
  std::unique_ptr<wf::WorkflowManager> workflows;
};

Rig build(const Inputs& inputs, bool tracing, Probe& probe) {
  const auto root = probe.span("setup", "bench");
  const Workload workload = inputs.workload;
  const bool big_pilot =
      workload == Workload::bag || workload == Workload::tenants;
  const std::size_t nodes = big_pilot ? kPilotNodes : kSmallPilotNodes;
  Rig rig;
  {
    const auto span = probe.span("session.ctor", "core.session");
    rig.session = std::make_unique<core::Session>(
        core::SessionConfig{.seed = inputs.seed, .tracing = tracing});
  }
  core::Session& session = *rig.session;
  if (workload == Workload::serve) {
    const auto span = probe.span("ml.install", "core.session");
    ml::install(session);
  }
  {
    const auto span = probe.span("session.add_platform", "core.session");
    session.add_platform(platform::delta_profile(nodes));
  }
  if (workload == Workload::serve) {
    const auto span = probe.span("session.add_platform", "core.session");
    rig.r3 = &session.add_platform(platform::r3_profile(2));
  }
  {
    const auto span = probe.span("session.submit_pilot", "core.session");
    rig.pilot = &session.submit_pilot({.platform = kPlatform, .nodes = nodes});
  }

  if (workload == Workload::dag) {
    session.data().add_store(kPlatform, kDagStoreBytes);
    for (std::size_t p = 0; p < kDagParts; ++p) {
      const auto span = probe.span("data.register_dataset", "core.data");
      session.data().register_dataset(dag_part_name(p), kDagPartBytes,
                                      kArchive);
    }
    const auto span = probe.span("wf.manager_ctor", "wf");
    rig.workflows = std::make_unique<wf::WorkflowManager>(session);
  } else if (workload == Workload::tenants) {
    session.data().add_store(kPlatform, kTenantStoreBytes);
    for (std::size_t t = 0; t < kTenants; ++t) {
      {
        const auto span =
            probe.span("session.set_tenant_weight", "core.session");
        session.set_tenant_weight(tenant_name(t), kTenantWeights[t]);
      }
      for (std::size_t p = 0; p < kTenantParts; ++p) {
        const auto span = probe.span("data.register_dataset", "core.data");
        session.data().register_dataset(tenant_part_name(t, p),
                                        kTenantPartBytes, kArchive,
                                        "cid:part" + std::to_string(p));
      }
    }
  }
  return rig;
}

/// The per-entity window of one run: it opens on construction, and
/// each mark records the wall seconds since then. The gauge, when there
/// is one, is sampled right after each mark, and its time is left out
/// of the window.
class Window {
 public:
  Window(Outcome& out, HostGauge* gauge)
      : out_(out), gauge_(gauge), start_(Clock::now()) {}

  void mark() {
    const auto now = Clock::now();
    out_.marks.push_back(
        std::chrono::duration<double>(now - start_).count() - left_out_s_);
    if (gauge_ == nullptr) return;
    out_.gauge_s.push_back(gauge_->sample());
    left_out_s_ += seconds_since(now);
  }

  /// Marks the end; the last mark is the window's length.
  void close() {
    mark();
    out_.window_s = out_.marks.back();
  }

 private:
  Outcome& out_;
  HostGauge* gauge_;
  Clock::time_point start_;
  double left_out_s_ = 0.0;
};

/// Runs the session to the end, marking `window` at each of `pauses`,
/// and closes the window.
void run_session(core::Session& session, Probe& probe,
                 const std::vector<double>& pauses, Window& window) {
  const auto span = probe.span("session.run", "sim");
  for (const double pause : pauses) {
    session.run_until(pause);
    window.mark();
  }
  session.run();
  window.close();
}

/// Sim-time facts every workload reports.
void read_common(core::Session& session, Outcome& out) {
  auto& e = out.exact;
  e["sim.events"] = static_cast<double>(session.loop().events_processed());
  e["sim.peak_pending"] = static_cast<double>(session.loop().peak_pending());
  e["sim.end_s"] = session.now();
  e["core.scheduler.grants"] =
      static_cast<double>(session.scheduler().granted_total());
  e["core.scheduler.wait_p95_s"] = session.scheduler().wait_times().empty()
                                       ? 0.0
                                       : session.scheduler().wait_times().p95();
  e["msg.messages"] =
      static_cast<double>(session.runtime().network().messages_delivered());
  const auto& records = session.timeline().records();
  e["metrics.timeline_records"] = static_cast<double>(records.size());
  e["core.tasks.transitions"] = static_cast<double>(std::count_if(
      records.begin(), records.end(),
      [](const metrics::TransitionRecord& r) { return r.kind == "task"; }));
  e["core.tasks.count"] = static_cast<double>(session.tasks().uids().size());
  e["core.tasks.done"] =
      static_cast<double>(session.tasks().count_in_state(core::TaskState::done));
  e["core.tasks.failed"] = static_cast<double>(
      session.tasks().count_in_state(core::TaskState::failed));
  e["core.tasks.restarts"] =
      static_cast<double>(session.tasks().restarts_total());

  const core::DataManager& data = session.data();
  e["data.transfers"] = static_cast<double>(data.transfers());
  e["data.bytes_moved"] = data.bytes_moved();
  e["data.evictions"] = static_cast<double>(data.catalog().evictions());
  e["data.prefetches"] = static_cast<double>(data.prefetches_started());
  e["data.cancelled"] = static_cast<double>(data.cancelled_transfers());
  e["data.transfer_p95_s"] =
      data.transfer_times().empty() ? 0.0 : data.transfer_times().p95();

  out.hashes["grant_log_hash"] = session.scheduler().grant_log_hash();
  out.hashes["completion_hash"] = data.engine().completion_hash();
  out.tracer_spans = session.tracer().spans().size();
}

/// Per-entity completion report: each entity must report exactly once,
/// and OK. Returns the number that did not.
std::size_t count_failures(const std::vector<int>& reports,
                           const std::vector<char>& ok, const char* what,
                           Outcome& out) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i] == 1 && ok[i]) continue;
    if (failed == 0) {
      out.errors.push_back(std::string(what) + " " + std::to_string(i) +
                           " reported " + std::to_string(reports[i]) +
                           " time(s), ok=" + std::to_string(ok[i]));
    }
    ++failed;
  }
  return failed;
}

// --- bag and tenants -------------------------------------------------------

void run_tasks(const Inputs& inputs, Rig& rig, Probe& probe,
               const RunOptions& options, Outcome& out) {
  core::Session& session = *rig.session;
  const bool tenants = inputs.workload == Workload::tenants;
  const std::size_t n = inputs.tasks.size();
  std::vector<int> reports(n, 0);
  std::vector<char> ok(n, 0);
  out.task_uids.reserve(n);
  out.completion_order.reserve(n);
  std::uint64_t order_hash = kFnvBasis;
  double last_done = 0.0;

  Window window(out, options.gauge);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskShape& shape = inputs.tasks[i];
    core::TaskDescription desc = modeled(shape.cores, shape.seconds);
    if (tenants) {
      desc.tenant = tenant_name(shape.tenant);
      desc.staging = {core::StagingDirective::in(
          tenant_part_name(shape.tenant, shape.part))};
    }
    std::string uid;
    {
      const auto span = probe.span("tasks.submit", "core.tasks", i);
      uid = session.tasks().submit(*rig.pilot, std::move(desc));
    }
    {
      const auto span = probe.span("tasks.when_done", "core.tasks", i);
      session.tasks().when_done(
          {uid}, [&, i](bool all_done) {
            const auto cb = probe.span("bench.on_done", "bench", i);
            ++reports[i];
            ok[i] = all_done;
            out.completion_order.push_back(i);
            last_done = session.now();
            order_hash = fnv(fnv(order_hash, i),
                             std::bit_cast<std::uint64_t>(last_done));
          });
    }
    out.task_uids.push_back(std::move(uid));
    if ((i + 1) % kSubmitsPerMark == 0) window.mark();
  }
  run_session(session, probe, options.pauses, window);

  out.entities = n;
  out.attempted = n;
  out.failed = count_failures(reports, ok, "task", out);
  read_common(session, out);
  out.hashes["done_order_hash"] = order_hash;
  out.exact["sim_makespan_s"] = last_done;  // every task submitted at t=0

  if (out.exact["core.tasks.done"] != static_cast<double>(n)) {
    out.errors.push_back("tasks in DONE: " +
                         std::to_string(out.exact["core.tasks.done"]) +
                         " of " + std::to_string(n));
  }
  for (const std::string& uid : out.task_uids) {
    if (session.timeline().entry_count(uid, "DONE") != 1) {
      out.errors.push_back(uid + " did not reach DONE exactly once");
      break;
    }
  }
  if (session.scheduler().granted_total() != n) {
    out.errors.push_back(
        "scheduler granted " +
        std::to_string(session.scheduler().granted_total()) + " of " +
        std::to_string(n) + " requests");
  }
  out.exact["data.stage_demands"] = tenants ? static_cast<double>(n) : 0.0;
  if (tenants) {
    // The tenants' names alias one content id per part and the store
    // holds the whole corpus, so every part used crosses the WAN once.
    std::set<std::size_t> parts;
    for (const TaskShape& shape : inputs.tasks) parts.insert(shape.part);
    const double expected = static_cast<double>(parts.size()) *
                            kTenantPartBytes;
    if (out.exact["data.bytes_moved"] != expected) {
      out.errors.push_back(
          "bytes moved " + std::to_string(out.exact["data.bytes_moved"]) +
          ", expected parts x part size = " + std::to_string(expected));
    }
  }
}

// --- dag ---------------------------------------------------------------------

wf::Graph make_graph(const GraphShape& shape, std::size_t index) {
  wf::Graph graph("g" + std::to_string(index));
  wf::Stage src;
  src.name = "src";
  src.tasks = {modeled(kGraphTaskCores, shape.src_seconds)};
  graph.add(std::move(src));
  for (std::size_t b = 0; b < kBranches; ++b) {
    wf::Stage branch;
    branch.name = "b" + std::to_string(b);
    branch.consumes = {dag_part_name(shape.parts[b])};
    for (const double seconds : shape.branch_seconds[b]) {
      branch.tasks.push_back(modeled(kGraphTaskCores, seconds));
    }
    graph.add(std::move(branch));
  }
  wf::Stage sink;
  sink.name = "sink";
  sink.tasks = {modeled(kGraphTaskCores, shape.sink_seconds)};
  graph.add(std::move(sink));
  for (std::size_t b = 0; b < kBranches; ++b) {
    const std::string key = "b" + std::to_string(b);
    graph.depend("src", key);
    graph.depend(key, "sink");
  }
  return graph;
}

void run_dag(const Inputs& inputs, Rig& rig, Probe& probe,
             const RunOptions& options, Outcome& out) {
  core::Session& session = *rig.session;
  const std::size_t n = inputs.graphs.size();
  std::vector<int> reports(n, 0);
  std::vector<char> ok(n, 0);
  std::uint64_t graph_hash = kFnvBasis;
  std::size_t next = 0;
  double last_done = 0.0;

  // Closed loop: each finished graph launches the next one.
  std::function<void(std::size_t)> launch = [&](std::size_t g) {
    wf::Graph graph = [&] {
      const auto span = probe.span("wf.build_graph", "wf", g);
      return make_graph(inputs.graphs[g], g);
    }();
    const auto span = probe.span("wf.run_graph", "wf", g);
    rig.workflows->run_graph(
        std::move(graph), *rig.pilot, [&, g](const wf::GraphResult& r) {
          const auto cb = probe.span("bench.on_graph", "bench", g);
          ++reports[g];
          last_done = session.now();
          ok[g] = r.ok && r.tasks_done == kTasksPerGraph &&
                  r.tasks_failed == 0;
          graph_hash = fnv(fnv(graph_hash, g), r.event_hash);
          if (next < n) launch(next++);
        });
  };

  Window window(out, options.gauge);
  while (next < std::min(n, kGraphsInFlight)) launch(next++);
  run_session(session, probe, options.pauses, window);

  out.entities = n * kNodesPerGraph;
  out.attempted = n;
  out.failed = count_failures(reports, ok, "graph", out);
  read_common(session, out);
  out.hashes["graph_event_hash"] = graph_hash;
  out.exact["sim_makespan_s"] = last_done;  // the first graphs start at t=0
  out.exact["wf.graphs_ok"] = static_cast<double>(n - out.failed);
  out.exact["data.stage_demands"] = static_cast<double>(n * kBranches);
  if (out.exact["core.tasks.done"] != static_cast<double>(n * kTasksPerGraph)) {
    out.errors.push_back("tasks in DONE: " +
                         std::to_string(out.exact["core.tasks.done"]) +
                         ", expected " + std::to_string(n * kTasksPerGraph));
  }
}

// --- serve -------------------------------------------------------------------

void run_serve(const Inputs& inputs, Rig& rig, Probe& probe,
               const RunOptions& options, Outcome& out) {
  core::Session& session = *rig.session;
  const std::size_t clients = inputs.clients;
  const std::size_t requests = clients * inputs.requests_per_client;
  std::vector<int> reports(clients, 0);
  std::vector<char> ok(clients, 0);
  std::uint64_t order_hash = kFnvBasis;
  std::size_t finished = 0;
  double ready_at = -1.0;
  double last_done = 0.0;
  double client_spans_s = 0.0;

  std::vector<std::string> services;
  for (std::size_t i = 0; i < kLocalServices; ++i) {
    const auto span = probe.span("services.submit", "core.services", i);
    services.push_back(
        session.services().submit(*rig.pilot, noop_service(false)));
  }
  for (std::size_t i = 0; i < kRemoteServices; ++i) {
    const auto span =
        probe.span("services.register_remote", "core.services", i);
    services.push_back(session.services().register_remote(
        *rig.r3, noop_service(true), i % rig.r3->node_count()));
  }

  {
    const auto span = probe.span("services.when_ready", "core.services");
    session.services().when_ready(services, [&](bool ready) {
      const auto cb = probe.span("bench.on_ready", "bench");
      ready_at = session.now();
      if (!ready) {
        out.errors.push_back("service bootstrap failed");
        session.services().stop_all();
        return;
      }
      json::Value endpoints = json::Value::array();
      for (const auto& uid : services) {
        endpoints.push_back(session.services().get(uid).endpoint());
      }
      for (std::size_t c = 0; c < clients; ++c) {
        core::TaskDescription desc;
        desc.name = "client";
        desc.kind = "inference_client";
        desc.cores = 1;
        desc.payload = json::Value::object(
            {{"endpoints", endpoints},
             {"requests", static_cast<std::uint64_t>(inputs.requests_per_client)},
             {"concurrency", static_cast<std::uint64_t>(kClientConcurrency)},
             {"series", kSeries},
             {"balancer", "round_robin"}});
        std::string uid;
        {
          const auto s = probe.span("tasks.submit", "core.tasks", c);
          uid = session.tasks().submit(*rig.pilot, std::move(desc));
        }
        const auto s = probe.span("tasks.when_done", "core.tasks", c);
        session.tasks().when_done({uid}, [&, c](bool all_done) {
          const auto done = probe.span("bench.on_done", "bench", c);
          ++reports[c];
          ok[c] = all_done;
          last_done = session.now();
          client_spans_s += last_done - ready_at;
          order_hash = fnv(fnv(order_hash, c),
                           std::bit_cast<std::uint64_t>(last_done));
          if (++finished == clients) {
            const auto stop = probe.span("services.stop_all", "core.services");
            session.services().stop_all();
          }
        });
      }
    });
  }
  Window window(out, options.gauge);
  run_session(session, probe, options.pauses, window);

  read_common(session, out);
  out.hashes["done_order_hash"] = order_hash;
  const bool has_series = session.metrics().has_series(kSeries);
  const std::size_t recorded =
      has_series ? session.metrics().series(kSeries).count() : 0;
  out.entities = std::max<std::size_t>(1, recorded);
  out.attempted = requests;
  out.failed = requests - std::min(requests, recorded);
  // A client that failed or reported twice is an error: the run fails.
  if (count_failures(reports, ok, "client", out) > 0) out.failed = requests;
  if (recorded != requests) {
    out.errors.push_back("requests recorded " + std::to_string(recorded) +
                         " of " + std::to_string(requests));
  }
  const std::size_t stopped =
      session.services().count_in_state(core::ServiceState::stopped);
  if (stopped != services.size()) {
    out.errors.push_back(std::to_string(stopped) + " of " +
                         std::to_string(services.size()) +
                         " services reached STOPPED");
  }
  auto& e = out.exact;
  e["ml.requests"] = static_cast<double>(recorded);
  e["ml.bootstrap_sim_s"] = ready_at;
  // The clients all start when the services are ready; each then waits
  // for its own launch, which the seed draws. The last client's end
  // hangs on one such draw, the mean over clients does not.
  e["sim_makespan_s"] = client_spans_s / static_cast<double>(clients);
  if (has_series) {
    const metrics::RequestSeries& s = session.metrics().series(kSeries);
    e["ml.rt_comm_ms"] = s.communication.mean() * 1e3;
    e["ml.rt_service_ms"] = s.service.mean() * 1e3;
    e["ml.rt_inference_ms"] = s.inference.mean() * 1e3;
    e["ml.rt_p95_ms"] = s.total.p95() * 1e3;
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::bag, Workload::dag, Workload::serve, Workload::tenants}) {
    if (name == name_of(w)) return w;
  }
  return std::nullopt;
}

const char* name_of(Workload workload) {
  switch (workload) {
    case Workload::bag: return "bag";
    case Workload::dag: return "dag";
    case Workload::serve: return "serve";
    case Workload::tenants: return "tenants";
  }
  return "?";
}

const char* entity_of(Workload workload) {
  switch (workload) {
    case Workload::dag: return "node";
    case Workload::serve: return "request";
    default: return "task";
  }
}

std::string tenant_name(std::size_t tenant) {
  return "tenant" + std::to_string(tenant);
}

std::string tenant_part_name(std::size_t tenant, std::size_t part) {
  return "t" + std::to_string(tenant) + "/part" + std::to_string(part);
}

Inputs generate(Workload workload, std::uint64_t seed, double scale) {
  Inputs inputs;
  inputs.workload = workload;
  inputs.seed = seed;
  InputRng rng(seed ^ (0x5eedull << static_cast<int>(workload)));
  switch (workload) {
    case Workload::bag:
      for (std::size_t i = 0; i < scaled(kBagTasks, scale); ++i) {
        inputs.tasks.push_back(random_task(rng));
      }
      break;
    case Workload::tenants:
      for (std::size_t i = 0; i < scaled(kTenantTasks, scale); ++i) {
        TaskShape shape = random_task(rng);
        shape.tenant = i % kTenants;
        shape.part = rng.below(kTenantParts);
        inputs.tasks.push_back(shape);
      }
      break;
    case Workload::dag:
      for (std::size_t g = 0; g < scaled(kGraphs, scale); ++g) {
        GraphShape shape;
        shape.src_seconds = rng.uniform(5.0, 30.0);
        shape.sink_seconds = rng.uniform(5.0, 30.0);
        for (std::size_t b = 0; b < kBranches; ++b) {
          shape.parts[b] = rng.below(kDagParts);
          for (double& seconds : shape.branch_seconds[b]) {
            seconds = rng.uniform(30.0, 300.0);
          }
        }
        inputs.graphs.push_back(shape);
      }
      break;
    case Workload::serve:
      inputs.clients = scaled(kClients, scale);
      inputs.requests_per_client = kRequestsPerClient;
      break;
  }
  return inputs;
}

Outcome run_workload(const Inputs& inputs, const RunOptions& options) {
  Probe disabled(false);
  Probe& probe = options.probe != nullptr ? *options.probe : disabled;
  Outcome out;
  try {
    const auto start = Clock::now();
    Rig rig = build(inputs, options.session_tracing, probe);
    out.setup_s = seconds_since(start);
    switch (inputs.workload) {
      case Workload::bag:
      case Workload::tenants: run_tasks(inputs, rig, probe, options, out); break;
      case Workload::dag: run_dag(inputs, rig, probe, options, out); break;
      case Workload::serve: run_serve(inputs, rig, probe, options, out); break;
    }
  } catch (const std::exception& error) {
    out.errors.push_back(std::string("exception: ") + error.what());
  }
  if (out.attempted == 0) {
    out.attempted = inputs.workload == Workload::dag ? inputs.graphs.size()
                    : inputs.workload == Workload::serve
                        ? inputs.clients * inputs.requests_per_client
                        : inputs.tasks.size();
  }
  // A run whose checks failed cannot vouch for any of its entities.
  if (!out.errors.empty()) out.failed = out.attempted;
  return out;
}

double setup_only(const Inputs& inputs) {
  Probe disabled(false);
  const auto start = Clock::now();
  const Rig rig = build(inputs, false, disabled);
  return seconds_since(start);
}

std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t fnv(std::uint64_t hash, std::string_view text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
