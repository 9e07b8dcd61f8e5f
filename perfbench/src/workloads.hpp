#pragma once

/// \file workloads.hpp
/// The four benchmark workloads, generated from a seed and driven
/// through the public core::Session API.
///
/// - bag: independent modeled tasks of random shape on one 16-node
///   delta pilot, one TaskManager::when_done per task.
/// - dag: a closed loop of fan-out/fan-in wf::Graphs (src -> 4
///   branches -> sink) over a corpus in an "archive" zone, 8 in flight.
/// - serve: 64 inference clients over 8 noop services (4 local on the
///   pilot, 4 remote on r3), round-robin, 4 requests in flight each.
/// - tenants: bag's shape split over 3 weighted tenants, each task
///   staging one part of a corpus the tenants register under their own
///   names with shared content ids.
///
/// NOTES.md records why each exists and which layers it loads.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gauge.hpp"
#include "probe.hpp"

namespace perfbench {

enum class Workload { bag, dag, serve, tenants };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* name_of(Workload workload);
/// What the per-entity wall time is divided by: "task", "node" or
/// "request".
[[nodiscard]] const char* entity_of(Workload workload);

struct TaskShape {
  std::size_t cores = 1;
  double seconds = 1.0;  ///< sim duration of the modeled payload
  std::size_t tenant = 0;
  std::size_t part = 0;  ///< tenants: corpus part staged in
};

struct GraphShape {
  double src_seconds = 1.0;
  double sink_seconds = 1.0;
  std::array<std::size_t, 4> parts{};  ///< corpus part per branch
  std::array<std::array<double, 2>, 4> branch_seconds{};
};

/// Everything a run submits: a pure function of (workload, seed, scale).
/// The Session only ever sees descriptions built from these.
struct Inputs {
  Workload workload = Workload::bag;
  std::uint64_t seed = 0;
  std::vector<TaskShape> tasks;    ///< bag, tenants
  std::vector<GraphShape> graphs;  ///< dag
  std::size_t clients = 0;         ///< serve
  std::size_t requests_per_client = 0;
};

/// `scale` multiplies the workload's entity count (1 = the benchmark
/// size); it exists to show how per-entity cost grows with N.
[[nodiscard]] Inputs generate(Workload workload, std::uint64_t seed,
                              double scale = 1.0);

/// bag and tenants mark the window every this many submits.
inline constexpr std::size_t kSubmitsPerMark = 64;

/// Tasks per graph in the dag workload, and DAG nodes per graph.
inline constexpr std::size_t kTasksPerGraph = 10;
inline constexpr std::size_t kNodesPerGraph = 6;

/// Scheduler-visible facts a replay needs, in the bag/tenants layout.
inline constexpr std::size_t kPilotNodes = 16;
inline constexpr std::size_t kTenants = 3;
inline constexpr std::array<double, kTenants> kTenantWeights{1.0, 2.0, 4.0};
[[nodiscard]] std::string tenant_name(std::size_t tenant);
[[nodiscard]] std::string tenant_part_name(std::size_t tenant,
                                           std::size_t part);

struct RunOptions {
  /// SessionConfig::tracing: the runtime's own tracer and counters.
  bool session_tracing = false;
  /// Benchmark-side spans; null or disabled records nothing.
  Probe* probe = nullptr;
  /// Sim times, ascending and before the run's last event, at which the
  /// run pauses (Session::run_until) to mark the window. Pausing adds no
  /// event: the run is the same as one Session::run. Empty runs in one
  /// go.
  std::vector<double> pauses;
  /// Sampled right after every mark, with its time left out of the
  /// window; null samples nothing.
  HostGauge* gauge = nullptr;
};

/// What one run of a workload produced.
struct Outcome {
  double setup_s = 0.0;   ///< before Session construction -> first submit
  double window_s = 0.0;  ///< the per-entity window (see NOTES.md)
  /// Wall seconds from the window's start to each of its marks: every
  /// kSubmitsPerMark submits (bag, tenants), each pause, and the end
  /// (the last mark is window_s). Same-seed runs with the same pauses
  /// make the same marks after the same work.
  std::vector<double> marks;
  /// The gauge's sample right after each mark, when there is a gauge.
  std::vector<double> gauge_s;
  std::size_t entities = 0;  ///< tasks, DAG nodes or requests
  std::size_t attempted = 0;  ///< tasks, graphs or requests
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks

  /// Exact counts and sim-time model outputs; two same-seed untraced
  /// runs must agree on every entry bit for bit.
  std::map<std::string, double> exact;
  std::map<std::string, std::uint64_t> hashes;

  /// bag/tenants: task uids in submission order, and task indices in
  /// the order their when_done callbacks fired — the scheduler replay's
  /// request and release streams.
  std::vector<std::string> task_uids;
  std::vector<std::size_t> completion_order;

  std::size_t tracer_spans = 0;  ///< runtime tracer spans (session tracing)
};

/// Builds a session for `inputs` and runs the workload to completion,
/// checking its outputs. Never throws: an exception becomes an error
/// and counts every attempted entity as failed.
[[nodiscard]] Outcome run_workload(const Inputs& inputs,
                                   const RunOptions& options);

/// Only the set-up part of a run (session, platforms, pilots, ML
/// programs, tenant weights, datasets); returns its wall seconds.
[[nodiscard]] double setup_only(const Inputs& inputs);

/// FNV-1a folding helpers for the benchmark's own fingerprints.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
[[nodiscard]] std::uint64_t fnv(std::uint64_t hash, std::uint64_t value);
[[nodiscard]] std::uint64_t fnv(std::uint64_t hash, std::string_view text);

}  // namespace perfbench
