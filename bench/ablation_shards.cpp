// Ablation: the sharded runtime core (common::ShardExecutor).
//
// Two experiments, one per sharded control-plane kernel:
//
// 1. Placement. 8 pilots x 32 nodes (256 nodes) x 10k queued requests
//    driven through Scheduler::submit_batch plus release_batch backfill
//    waves, at shards=1 vs shards=8. The per-pilot placement passes run
//    concurrently; grants commit through the deterministic (time,
//    sequence, shard) merge.
// 2. Transfer re-planning. 24 zones (276 zone-pair links) x 40 flowing
//    transfers each; five "telemetry ticks" perturb the default
//    bandwidth and call TransferEngine::replan_all, which shards the
//    per-link fair-share recomputation and commits the timer
//    reschedules through the same merge.
//
// The house rule is parallel==serial: every sharded run must produce a
// grant-order / completion-log FNV fingerprint bit-identical to the
// shards=1 run under the same seed (asserted unconditionally, and
// across same-seed reruns). The >=4x combined-throughput assert only
// activates on hosts with >= 8 cores — on smaller machines (e.g. a
// 1-core CI container) real parallel speedup is physically impossible,
// so the bench only enforces a no-pathological-slowdown floor there.
// In --smoke mode each arm is timed as the best of kSmokeRepeats runs:
// the smoke workload takes about a millisecond, so one run measures
// the host's load as much as the code. Every repeat must reproduce the
// arm's fingerprints.
// Output lands in bench_out/ablation_shards.json.
//
// Usage: bench_ablation_shards [--smoke]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "ripple/common/random.hpp"
#include "ripple/common/shard_executor.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/data/transfer_engine.hpp"
#include "ripple/platform/cluster.hpp"

namespace {

using namespace ripple;

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kCoresPerNode = 64;
constexpr std::size_t kGpusPerNode = 8;
constexpr double kMemPerNode = 512.0;
constexpr std::size_t kSmokeRepeats = 5;

std::string to_hex(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------------
// Experiment 1: sharded batch placement
// ---------------------------------------------------------------------------

struct PlacementConfig {
  std::size_t pilots = 8;
  std::size_t nodes = 32;  ///< per pilot: 8 x 32 = 256 total
  std::size_t queued = 10000;
};

struct PlacementResult {
  double seconds = 0.0;
  std::uint64_t grants = 0;
  std::uint64_t hash = 0;
};

PlacementResult run_placement(const PlacementConfig& config,
                              std::size_t shards) {
  common::ShardExecutor executor(shards);

  // Same seeded workload mix as bench_micro_scheduler: mostly
  // node-filling requests with smaller backfill candidates, three
  // priority classes.
  common::Rng rng(kSeed);
  struct Spec {
    std::size_t cores, gpus;
    double mem_gb;
    int priority;
  };
  std::vector<Spec> specs;
  specs.reserve(config.queued);
  for (std::size_t i = 0; i < config.queued; ++i) {
    Spec spec{kCoresPerNode, 0, kMemPerNode, 0};
    const std::int64_t shape = rng.uniform_int(0, 9);
    if (shape >= 7 && shape < 9) {
      spec = {8, 1, 32.0, 0};
    } else if (shape >= 9) {
      spec = {1, 0, 4.0, 0};
    }
    spec.priority = static_cast<int>(rng.uniform_int(0, 2));
    specs.push_back(spec);
  }

  const auto start = std::chrono::steady_clock::now();
  core::Runtime runtime(kSeed);
  platform::PlatformProfile profile;
  profile.name = "bench";
  profile.node = platform::NodeSpec{kCoresPerNode, kGpusPerNode,
                                    kMemPerNode};
  profile.max_nodes = config.pilots * config.nodes;
  platform::Cluster cluster(runtime.loop(), runtime.network(), profile,
                            runtime.rng().fork("cluster"));
  core::Scheduler scheduler(runtime, core::SchedulerPolicy::backfill);
  if (shards > 1) scheduler.set_shard_executor(&executor);

  std::vector<std::unique_ptr<core::Pilot>> pilots;
  std::vector<std::vector<platform::Slot>> grants(config.pilots);
  for (std::size_t p = 0; p < config.pilots; ++p) {
    core::PilotDescription desc;
    desc.platform = profile.name;
    desc.nodes = config.nodes;
    pilots.push_back(std::make_unique<core::Pilot>(
        "pilot." + std::to_string(p), desc, &cluster));
    pilots.back()->nodes() = cluster.reserve_nodes(config.nodes);
    scheduler.add_pilot(*pilots.back());
  }

  std::vector<core::Scheduler::PilotBatch> batches(config.pilots);
  for (std::size_t p = 0; p < config.pilots; ++p) {
    batches[p].pilot_uid = pilots[p]->uid();
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Spec& spec = specs[i];
    const std::size_t p = i % config.pilots;
    core::ScheduleRequest request;
    request.uid = "r" + std::to_string(i);
    request.cores = spec.cores;
    request.gpus = spec.gpus;
    request.mem_gb = spec.mem_gb;
    request.priority = spec.priority;
    request.granted = [&grants, p](platform::Slot slot, platform::Node*) {
      grants[p].push_back(std::move(slot));
    };
    batches[p].requests.push_back(std::move(request));
  }
  scheduler.submit_batch(std::move(batches));
  runtime.loop().run();

  // Backfill waves: each round frees one granted slot per pilot through
  // the sharded release path, until the budget is spent.
  std::vector<std::size_t> released(config.pilots, 0);
  std::size_t budget = 2 * config.pilots * config.nodes;
  while (budget > 0) {
    std::vector<std::pair<std::string, platform::Slot>> wave;
    for (std::size_t p = 0; p < config.pilots && budget > 0; ++p) {
      if (released[p] >= grants[p].size()) continue;
      wave.emplace_back(pilots[p]->uid(), grants[p][released[p]]);
      ++released[p];
      --budget;
    }
    if (wave.empty()) break;
    scheduler.release_batch(wave);
    runtime.loop().run();
  }

  PlacementResult result;
  result.seconds = seconds_since(start);
  result.grants = scheduler.granted_total();
  result.hash = scheduler.grant_log_hash();
  return result;
}

// ---------------------------------------------------------------------------
// Experiment 2: sharded transfer re-planning
// ---------------------------------------------------------------------------

struct PlanningConfig {
  std::size_t zones = 24;  ///< all pairs: 276 links
  std::size_t per_link = 40;
  std::size_t ticks = 5;
};

struct PlanningResult {
  double tick_seconds = 0.0;  ///< replan_all time only
  std::size_t replanned = 0;
  std::uint64_t hash = 0;
};

PlanningResult run_planning(const PlanningConfig& config,
                            std::size_t shards) {
  common::ShardExecutor executor(shards);
  sim::EventLoop loop;
  data::TransferEngine engine(loop, common::Rng(kSeed));
  if (shards > 1) engine.set_shard_executor(&executor);
  engine.set_setup_latency(common::Distribution::constant(0.01));
  engine.set_default_bandwidth(1e6);
  engine.set_default_concurrency(config.per_link);

  std::size_t done = 0;
  std::size_t total = 0;
  for (std::size_t a = 0; a < config.zones; ++a) {
    for (std::size_t b = a + 1; b < config.zones; ++b) {
      for (std::size_t k = 0; k < config.per_link; ++k) {
        // Sized so nothing completes while the ticks are measured.
        engine.transfer("d" + std::to_string(total++),
                        "z" + std::to_string(a), "z" + std::to_string(b),
                        1e8 + 1e6 * static_cast<double>(k),
                        [&done](bool ok, sim::Duration) { done += ok; });
      }
    }
  }
  loop.run_until(1.0);  // everything past setup, all flowing

  PlanningResult result;
  for (std::size_t t = 0; t < config.ticks; ++t) {
    // Deterministic bandwidth perturbation, then one measured tick.
    engine.set_default_bandwidth(1e6 *
                                 (1.0 + 0.1 * static_cast<double>(t)));
    const auto start = std::chrono::steady_clock::now();
    result.replanned += engine.replan_all();
    result.tick_seconds += seconds_since(start);
    loop.run_until(1.0 + 0.05 * static_cast<double>(t + 1));
  }
  loop.run();
  if (done != total) {
    std::cerr << "FAIL: " << (total - done) << " transfers never landed\n";
    std::exit(1);
  }
  result.hash = engine.completion_hash();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t max_shards = smoke ? 2 : 8;

  PlacementConfig placement_config;
  PlanningConfig planning_config;
  if (smoke) {
    placement_config = {4, 8, 800};
    planning_config = {8, 8, 3};
  }
  std::vector<std::size_t> sweep;
  for (std::size_t s = 1; s <= max_shards; s *= 2) sweep.push_back(s);

  json::Value placement_rows = json::Value::array();
  json::Value planning_rows = json::Value::array();
  metrics::Table table(
      {"shards", "placement_s", "grants", "planning_tick_s", "replanned",
       "combined_speedup", "hash_identical"});

  bool pass = true;
  PlacementResult placement_serial;
  PlanningResult planning_serial;
  double combined_at_max = 1.0;
  const std::size_t repeats = smoke ? kSmokeRepeats : 1;
  for (const std::size_t shards : sweep) {
    PlacementResult placement = run_placement(placement_config, shards);
    PlanningResult planning = run_planning(planning_config, shards);
    bool repeats_identical = true;
    for (std::size_t r = 1; r < repeats; ++r) {
      const PlacementResult p = run_placement(placement_config, shards);
      const PlanningResult q = run_planning(planning_config, shards);
      repeats_identical = repeats_identical && p.hash == placement.hash &&
                          q.hash == planning.hash;
      placement.seconds = std::min(placement.seconds, p.seconds);
      planning.tick_seconds = std::min(planning.tick_seconds, q.tick_seconds);
    }
    if (shards == 1) {
      placement_serial = placement;
      planning_serial = planning;
    }
    const bool identical = repeats_identical &&
                           placement.hash == placement_serial.hash &&
                           planning.hash == planning_serial.hash;
    pass = pass && identical;
    const double serial_total =
        placement_serial.seconds + planning_serial.tick_seconds;
    const double sharded_total = placement.seconds + planning.tick_seconds;
    const double combined =
        sharded_total > 0.0 ? serial_total / sharded_total : 0.0;
    if (shards == sweep.back()) combined_at_max = combined;

    json::Value prow = json::Value::object();
    prow.set("shards", shards);
    prow.set("seconds", placement.seconds);
    prow.set("grants", placement.grants);
    prow.set("grant_hash", to_hex(placement.hash));
    placement_rows.push_back(std::move(prow));
    json::Value trow = json::Value::object();
    trow.set("shards", shards);
    trow.set("tick_seconds", planning.tick_seconds);
    trow.set("replanned", planning.replanned);
    trow.set("completion_hash", to_hex(planning.hash));
    planning_rows.push_back(std::move(trow));

    table.add_row({std::to_string(shards),
                   strutil::format_fixed(placement.seconds, 4),
                   std::to_string(placement.grants),
                   strutil::format_fixed(planning.tick_seconds, 4),
                   std::to_string(planning.replanned),
                   strutil::format_fixed(combined, 2),
                   identical ? "yes" : "NO"});
    if (!identical) {
      std::cerr << "FAIL: shards=" << shards
                << " fingerprints diverged from shards=1 or across repeats\n";
    }
  }

  // Same-seed rerun at the widest shard count must reproduce the
  // fingerprints bit-for-bit.
  const PlacementResult placement_rerun =
      run_placement(placement_config, max_shards);
  const PlanningResult planning_rerun =
      run_planning(planning_config, max_shards);
  if (placement_rerun.hash != placement_serial.hash ||
      planning_rerun.hash != planning_serial.hash) {
    std::cerr << "FAIL: same-seed sharded rerun diverged\n";
    pass = false;
  }

  // The throughput target needs real cores; on smaller hosts only a
  // no-pathological-slowdown floor applies.
  const bool gate_active = !smoke && cores >= 8;
  if (gate_active && combined_at_max < 4.0) {
    std::cerr << "FAIL: combined speedup at " << max_shards << " shards is "
              << combined_at_max << "x, target >= 4x\n";
    pass = false;
  }
  if (!gate_active && combined_at_max < 0.15) {
    std::cerr << "FAIL: sharding slowed the control plane "
              << (1.0 / combined_at_max) << "x on a small host\n";
    pass = false;
  }

  std::cout << metrics::banner(
      "Sharded runtime core (parallel placement + transfer planning, "
      "deterministic merge)");
  std::cout << table.to_string();
  std::cout << "\ncores=" << cores << " gate_active="
            << (gate_active ? "yes" : "no (needs >= 8 cores)")
            << " combined_speedup_at_" << max_shards << "_shards="
            << strutil::format_fixed(combined_at_max, 2) << "x\n";

  json::Value report = json::Value::object();
  report.set("cores", cores);
  report.set("smoke", smoke);
  report.set("gate_active", gate_active);
  report.set("max_shards", max_shards);
  report.set("combined_speedup_at_max", combined_at_max);
  report.set("placement", std::move(placement_rows));
  report.set("planning", std::move(planning_rows));
  std::ofstream file(bench::output_dir() + "/ablation_shards.json");
  file << report.dump(2) << "\n";

  std::cout << (pass ? "\nPASS" : "\nFAIL")
            << ": sharded grant order and completion log bit-identical to "
               "shards=1 under the same seed\n";
  return pass ? 0 : 1;
}
