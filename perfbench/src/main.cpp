// Ripple's wall-clock benchmark program.
//
//   ripple_perf --workload <bag|dag|serve|tenants> --seed <n>
//               --seconds <s> --trace <0|1> [--scale <f>]
//               [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics with all tracing off: the
// workload runs again and again within --seconds (at least three times)
// and entity_us adds up, slice by slice of the run, a high quantile over
// the runs of the slice's wall time in units of a host gauge sampled
// right after it. --trace 1 makes the traced runs that give the
// per-layer metrics. Either way the last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
// output check prints correct=false and exits 1. NOTES.md describes the
// workloads and every metric.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "probe.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-up samples taken after each measured run.
constexpr int kSetupSamples = 4;
/// Set-up-only passes timed back to back for one set-up sample.
constexpr int kSetupsPerSample = 8;
/// Measured runs needed at least, whatever --seconds says.
constexpr std::size_t kMinRuns = 3;
/// A measured run pauses this many times minus one, evenly in sim time,
/// to mark its window.
constexpr std::size_t kSlices = 64;
/// Each slice of the window reads this quantile of its gauge-scaled
/// times over the runs (see scaled_window_s).
constexpr double kSliceQuantile = 0.9;
/// The host gauge's sample time that wall times are scaled to: about
/// its median on the 4-vCPU Xeon VM of NOTES.md.
constexpr double kGaugeReferenceS = 500e-6;

struct Args {
  Workload workload = Workload::bag;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parse_workload(value);
        if (!w) {
          std::cerr << "unknown workload '" << value << "'\n";
          return false;
        }
        args.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--scale") {
        args.scale = std::stod(value);
      } else if (flag == "--spans-out") {
        args.spans_out = value;
      } else {
        std::cerr << "unknown flag " << flag << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value '" << value << "' for " << flag << "\n";
      return false;
    }
  }
  if (!have_workload) std::cerr << "--workload is required\n";
  return have_workload && args.seconds > 0.0 && args.scale > 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;
};

class Report {
 public:
  /// Adds a metric to the JSON line and the table.
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1, std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), samples,
                        std::move(note)});
  }
  /// Adds a table-only row (an alias or a check, not a declared metric).
  void info(std::string name, double value, std::string unit,
            std::size_t samples = 1, std::string note = "") {
    info_.push_back({std::move(name), value, std::move(unit), samples,
                     std::move(note)});
  }
  /// p50 and p99 of `samples` as two metrics; zero samples reads 0.
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit, const std::string& note = "") {
    add(name + ".p50", quantile(samples, 0.50), unit, samples.size(),
        samples.empty() ? note : "");
    add(name + ".p99", quantile(samples, 0.99), unit, samples.size(),
        samples.empty() ? note : "");
  }

  void print_table(std::ostream& os) const {
    char line[256];
    std::snprintf(line, sizeof line, "%-36s %16s %-8s %8s  %s\n", "metric",
                  "value", "unit", "samples", "note");
    os << line;
    for (const auto* rows : {&metrics_, &info_}) {
      for (const Metric& m : *rows) {
        std::snprintf(line, sizeof line, "%-36s %16.6g %-8s %8zu  %s\n",
                      m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                      m.note.c_str());
        os << line;
      }
    }
  }

  [[nodiscard]] std::string json(bool correct, std::size_t attempted,
                                 std::size_t failed) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
         << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> info_;
};

double exact_or_zero(const Outcome& out, const std::string& key) {
  const auto it = out.exact.find(key);
  return it == out.exact.end() ? 0.0 : it->second;
}

/// Same-seed runs must agree on every exact count, sim value and hash.
void check_repeat(const Outcome& a, const Outcome& b,
                  std::vector<std::string>& errors) {
  if (a.exact != b.exact) {
    for (const auto& [key, value] : a.exact) {
      if (exact_or_zero(b, key) != value) {
        errors.push_back("same-seed runs disagree on " + key + ": " +
                         number(value) + " vs " + number(exact_or_zero(b, key)));
        return;
      }
    }
    errors.push_back("same-seed runs report different exact counts");
  }
  for (const auto& [key, value] : a.hashes) {
    const auto it = b.hashes.find(key);
    if (it == b.hashes.end() || it->second != value) {
      errors.push_back("same-seed runs disagree on " + key);
    }
  }
}

void print_errors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) std::cout << "CHECK FAILED: " << e << "\n";
}

/// The workload's own name for its per-entity wall time.
std::string entity_metric(Workload w) {
  return std::string(entity_of(w)) + "_us";
}

// --- --trace 0: end-to-end metrics ------------------------------------------

/// A run's window at the reference host speed, read on a busy host.
/// Each run's window is cut at its marks; same-seed runs do the same
/// work between the same marks, and the gauge is sampled right after
/// each. A slice's wall time over the gauge sample after it is the slice
/// in units of the gauge, whatever the host's speed at that moment. Each
/// slice reads the kSliceQuantile quantile of that over the runs, and
/// the slices add up, times kGaugeReferenceS. The gauge leaves some of
/// the host's swings in, more when the neighbours are idle than when
/// they are busy; the high quantile reads the busy level, which is the
/// steadier one. A runtime that is slower at any point raises it.
double scaled_window_s(const std::vector<Outcome>& runs) {
  double total = 0.0;
  std::vector<double> scaled(runs.size());
  for (std::size_t k = 0; k < runs.front().marks.size(); ++k) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const Outcome& out = runs[r];
      const double wall = out.marks[k] - (k == 0 ? 0.0 : out.marks[k - 1]);
      scaled[r] = wall / out.gauge_s[k];
    }
    total += quantile(scaled, kSliceQuantile);
  }
  return total * kGaugeReferenceS;
}

int run_end_to_end(const Args& args, const Inputs& inputs) {
  // --seconds covers the warm-up run too; a run starts only if one more
  // like the last still fits.
  const auto start = Clock::now();
  HostGauge gauge;
  std::vector<std::string> errors;
  // The warm-up run fills the allocator and caches; it is checked, and
  // it is the reference for the same-seed repeat check, but not timed.
  // It runs in one go; its end time places the measured runs' pauses,
  // and the repeat check then shows that pausing changed nothing.
  const Outcome warmup = run_workload(inputs, {});
  errors = warmup.errors;
  RunOptions measured;
  measured.gauge = &gauge;
  const double end_s = exact_or_zero(warmup, "sim.end_s");
  for (std::size_t k = 1; k < kSlices; ++k) {
    const double pause = end_s * static_cast<double>(k) / kSlices;
    if (pause < end_s) measured.pauses.push_back(pause);
  }

  std::vector<Outcome> runs;
  std::vector<double> setups;  // set-up passes, at the reference speed
  std::vector<double> gauge_s;
  double last_s = seconds_since(start);
  while (errors.empty() &&
         (runs.size() < kMinRuns || seconds_since(start) + last_s <= args.seconds)) {
    const auto run_start = Clock::now();
    runs.push_back(run_workload(inputs, measured));
    const Outcome& out = runs.back();
    errors.insert(errors.end(), out.errors.begin(), out.errors.end());
    if (runs.size() == 1 && errors.empty()) check_repeat(warmup, out, errors);
    if (out.marks.size() != runs.front().marks.size()) {
      errors.push_back("same-seed runs made different numbers of marks");
    }
    gauge_s.insert(gauge_s.end(), out.gauge_s.begin(), out.gauge_s.end());
    // Set-up samples are spread over the whole window, like the runs,
    // and scaled like them by a gauge sample taken right after. One
    // set-up is short enough that what the run left in the caches
    // would decide it, so a sample is the mean of a few in a row.
    for (int i = 0; i < kSetupSamples; ++i) {
      double setup_s = 0.0;
      for (int j = 0; j < kSetupsPerSample; ++j) setup_s += setup_only(inputs);
      setups.push_back(setup_s / kSetupsPerSample * kGaugeReferenceS /
                       gauge.sample());
    }
    last_s = seconds_since(run_start);
  }
  if (runs.empty()) runs.push_back(warmup);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> per_entity_us;
  for (const Outcome& out : runs) {
    attempted += out.attempted;
    failed += out.failed;
    per_entity_us.push_back(out.window_s * 1e6 /
                            static_cast<double>(std::max<std::size_t>(1, out.entities)));
  }
  // A repeat-check failure is not tied to one entity: nothing is vouched for.
  if (!errors.empty()) failed = attempted;
  const Outcome& first = runs.front();
  const Workload w = inputs.workload;

  Report report;
  // A failed warm-up leaves no measured run, only its unscaled window.
  const double window_s =
      first.gauge_s.empty() ? first.window_s : scaled_window_s(runs);
  const double entity_us =
      window_s * 1e6 / static_cast<double>(std::max<std::size_t>(1, first.entities));
  report.add("entity_us", entity_us, "us", per_entity_us.size(),
             std::string("wall us per ") + entity_of(w) +
                 ", at reference speed, busy host");
  report.add("setup_s", setups.empty() ? warmup.setup_s : median(setups), "s",
             setups.size(), "median of set-up samples, at reference speed");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "whole process");
  report.add("sim_makespan_s", exact_or_zero(first, "sim_makespan_s"),
             "sim_s", 1, "model-output guard");

  report.info(entity_metric(w), entity_us, "us", per_entity_us.size(),
              "same as entity_us");
  report.info("run_median_us", median(per_entity_us), "us",
              per_entity_us.size(), "wall, median of whole runs");
  report.info("gauge_us", median(gauge_s) * 1e6, "us", gauge_s.size(),
              "host gauge sample, median");
  report.info("failed_frac",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::size_t>(1, attempted)),
              "ratio", attempted);
  if (w == Workload::serve) {
    report.info("sim_rt_p95_ms", exact_or_zero(first, "ml.rt_p95_ms"),
                "sim_ms", static_cast<std::size_t>(exact_or_zero(first, "ml.requests")));
  }
  if (w == Workload::dag || w == Workload::tenants) {
    report.info("wan_gb", exact_or_zero(first, "data.bytes_moved") / 1e9, "GB");
  }
  report.info("runs", static_cast<double>(runs.size()), "count", 1,
              "measured, after one warm-up run");

  std::cout << "# ripple perfbench: workload=" << name_of(w)
            << " seed=" << args.seed << " trace=0 runs=" << runs.size()
            << "\n";
  report.print_table(std::cout);
  std::cout << "# " << entity_metric(w) << " per run:";
  for (const double us : per_entity_us) std::cout << " " << us;
  std::cout << "\n";
  print_errors(errors);
  std::cout << report.json(errors.empty(), attempted, failed) << std::endl;
  return errors.empty() ? 0 : 1;
}

// --- --trace 1: per-layer metrics -------------------------------------------

int run_traced(const Args& args, const Inputs& inputs) {
  const Workload w = inputs.workload;
  std::vector<std::string> errors;
  const auto collect = [&errors](const std::vector<std::string>& more) {
    errors.insert(errors.end(), more.begin(), more.end());
  };

  // The runtime-tracer pass runs first, so the process peak RSS read
  // right after it is its own. Tracing arms a gauge tick, which changes
  // the event count and sim end time: nothing from this pass feeds an
  // end-to-end metric or the repeat check.
  const Outcome session_traced = run_workload(
      inputs, {.session_tracing = true, .probe = nullptr, .pauses = {}});
  const double traced_rss_mb = peak_rss_mb();
  collect(session_traced.errors);

  // Untraced and probe-traced runs alternate, twice; the overhead
  // compares the faster run of each kind. The first probe's spans give
  // the per-layer numbers.
  const Outcome plain = run_workload(inputs, {});
  collect(plain.errors);
  Probe probe(true);
  const Outcome probed = run_workload(
      inputs, {.session_tracing = false, .probe = &probe, .pauses = {}});
  collect(probed.errors);
  if (plain.errors.empty() && probed.errors.empty()) {
    check_repeat(plain, probed, errors);
  }
  const Outcome plain_again = run_workload(inputs, {});
  collect(plain_again.errors);
  Probe second_probe(true);
  const Outcome probed_again = run_workload(
      inputs, {.session_tracing = false, .probe = &second_probe, .pauses = {}});
  collect(probed_again.errors);
  const double plain_s = std::min(plain.window_s, plain_again.window_s);
  const double probed_s = std::min(probed.window_s, probed_again.window_s);

  const bool tasks_workload = w == Workload::bag || w == Workload::tenants;
  ReplayResult replay;
  if (tasks_workload && probed.errors.empty()) {
    replay = replay_scheduler(inputs, probed.task_uids, probed.completion_order);
    collect(replay.errors);
    if (replay.errors.empty() && replay.grant_log_hash != probed.hashes.at("grant_log_hash")) {
      errors.push_back("scheduler replay granted in a different order than "
                       "the session (grant_log_hash differs)");
    }
  }

  if (!args.spans_out.empty() && !probe.write_jsonl(args.spans_out)) {
    std::cerr << "could not write spans to " << args.spans_out << "\n";
  }

  const auto e = [&plain](const char* key) { return exact_or_zero(plain, key); };
  const std::string na = std::string("not exercised by ") + name_of(w);
  const auto applies = [&na](bool yes) { return yes ? std::string() : na; };

  Report report;
  // core.session: set-up calls.
  report.add("core.session.build_ms", probe.total_us("setup") / 1e3, "ms");
  const std::vector<double> registers = probe.durations_us("data.register_dataset");
  report.add("core.data.register_us", median(registers), "us", registers.size(),
             applies(!registers.empty()));
  // core.tasks
  report.timing("core.tasks.submit_us", probe.durations_us("tasks.submit"), "us", na);
  report.timing("core.tasks.when_done_us", probe.durations_us("tasks.when_done"), "us", na);
  report.timing("core.tasks.completion_gap_us", probe.gaps_us("bench.on_done"), "us", na);
  const double tasks = e("core.tasks.count");
  report.add("core.tasks.transitions_per_task",
             tasks > 0 ? e("core.tasks.transitions") / tasks : 0.0, "count",
             static_cast<std::size_t>(tasks));
  report.add("core.tasks.failed", e("core.tasks.failed"), "count");
  report.add("core.tasks.restarts", e("core.tasks.restarts"), "count");
  // core.scheduler: replayed calls, plus the session's own counters.
  report.timing("core.scheduler.submit_us", replay.submit_us, "us", na);
  report.timing("core.scheduler.release_us", replay.release_us, "us", na);
  report.add("core.scheduler.grants", e("core.scheduler.grants"), "count");
  report.add("core.scheduler.wait_p95_s", e("core.scheduler.wait_p95_s"), "sim_s",
             static_cast<std::size_t>(e("core.scheduler.grants")));
  // sim
  const double events = e("sim.events");
  const double entities = static_cast<double>(std::max<std::size_t>(1, plain.entities));
  report.add("sim.events_per_entity", events / entities, "count");
  report.add("sim.peak_pending", e("sim.peak_pending"), "count");
  report.add("sim.run_ns_per_event",
             events > 0 ? probe.self_us("session.run") * 1e3 / events : 0.0, "ns",
             static_cast<std::size_t>(events), "Session::run self time / events");
  // msg and ml (serve)
  const bool serve = w == Workload::serve;
  const double requests = e("ml.requests");
  report.add("msg.messages_per_request",
             requests > 0 ? e("msg.messages") / requests : 0.0, "count",
             static_cast<std::size_t>(requests), applies(serve));
  report.add("ml.requests", requests, "count", 1, applies(serve));
  report.add("ml.rt_comm_ms", e("ml.rt_comm_ms"), "sim_ms",
             static_cast<std::size_t>(requests), applies(serve));
  report.add("ml.rt_service_ms", e("ml.rt_service_ms"), "sim_ms",
             static_cast<std::size_t>(requests), applies(serve));
  report.add("ml.rt_inference_ms", e("ml.rt_inference_ms"), "sim_ms",
             static_cast<std::size_t>(requests), applies(serve));
  report.add("ml.rt_p95_ms", e("ml.rt_p95_ms"), "sim_ms",
             static_cast<std::size_t>(requests), applies(serve));
  report.add("ml.bootstrap_sim_s", serve ? e("ml.bootstrap_sim_s") : 0.0, "sim_s",
             serve ? 1 : 0, applies(serve));
  // wf (dag)
  report.timing("wf.run_graph_us", probe.durations_us("wf.run_graph"), "us", na);
  report.timing("wf.graph_gap_us", probe.gaps_us("bench.on_graph"), "us", na);
  report.add("wf.graphs_ok", e("wf.graphs_ok"), "count", 1,
             applies(w == Workload::dag));
  // data
  const bool data_plane = w == Workload::dag || w == Workload::tenants;
  const double demands = e("data.stage_demands");
  report.add("data.transfers", e("data.transfers"), "count", 1, applies(data_plane));
  report.add("data.hit_ratio", demands > 0 ? 1.0 - e("data.transfers") / demands : 0.0,
             "ratio", static_cast<std::size_t>(demands), applies(data_plane));
  report.add("data.evictions", e("data.evictions"), "count", 1, applies(data_plane));
  report.add("data.prefetches", e("data.prefetches"), "count", 1, applies(data_plane));
  report.add("data.cancelled", e("data.cancelled"), "count", 1, applies(data_plane));
  report.add("data.transfer_p95_s", e("data.transfer_p95_s"), "sim_s",
             static_cast<std::size_t>(e("data.transfers")), applies(data_plane));
  report.add("data.wan_gb", e("data.bytes_moved") / 1e9, "GB", 1, applies(data_plane));
  // metrics: the runtime's own tracer, against the untraced run.
  const double spans = static_cast<double>(session_traced.tracer_spans);
  report.add("metrics.timeline_records", e("metrics.timeline_records"), "count");
  report.add("metrics.spans", spans, "count");
  report.add("metrics.tracer_ns_per_span",
             spans > 0 ? (session_traced.window_s - plain_s) * 1e9 / spans : 0.0,
             "ns", static_cast<std::size_t>(spans), "traced - untraced wall, per span");
  report.add("metrics.traced_rss_mb", traced_rss_mb, "MB", 1,
             "peak RSS of the SessionConfig::tracing pass");
  // The benchmark's own spans, against the untraced run.
  report.add("bench.trace_overhead_pct",
             plain_s > 0 ? (probed_s - plain_s) / plain_s * 100.0 : 0.0, "%", 2,
             "faster probe-traced vs faster untraced run");

  // Self time per layer, from the benchmark's spans (table only).
  for (const auto& [layer, ms] : probe.self_ms_by_layer()) {
    report.info("self_ms." + layer, ms, "ms", 1, "span self time");
  }
  report.info("untraced_window_s", plain_s, "s", 2, "faster of two");
  report.info("probe_traced_window_s", probed_s, "s", 2, "faster of two");
  report.info("session_traced_window_s", session_traced.window_s, "s");
  report.info("bench.spans", static_cast<double>(probe.spans().size()), "count");

  std::cout << "# ripple perfbench: workload=" << name_of(w)
            << " seed=" << args.seed << " trace=1\n";
  report.print_table(std::cout);
  print_errors(errors);
  const std::size_t attempted = probed.attempted;
  const std::size_t failed = errors.empty() ? probed.failed : attempted;
  std::cout << report.json(errors.empty(), attempted, failed) << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: ripple_perf --workload <bag|dag|serve|tenants> "
                 "--seed <n> --seconds <s> --trace <0|1> [--scale <f>] "
                 "[--spans-out <file>]\n";
    return 2;
  }
  const Inputs inputs = generate(args.workload, args.seed, args.scale);
  return args.trace ? run_traced(args, inputs) : run_end_to_end(args, inputs);
}
