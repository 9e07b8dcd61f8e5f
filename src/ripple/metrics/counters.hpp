#pragma once

/// \file counters.hpp
/// Named monotonic counters and sampled gauges for the runtime.
///
/// Counters are bumped inline by instrumented subsystems ("sched.grants",
/// "task.restarts", "data.bytes_moved", ...); gauges are registered as
/// callbacks ("loop.pending", "sched.waiting", "store.used_bytes", ...)
/// and both are snapshotted into a sample log on a configurable
/// sim-time tick. Like the Tracer, everything is off by default and a
/// single branch when disabled.
///
/// The sampling tick re-arms itself only while the event loop still has
/// other pending events, so an enabled session's loop drains exactly
/// like a disabled one — run() never spins on its own telemetry. Ticks
/// may extend now() by at most one interval past the last workload
/// event; workloads that measure makespan capture it from their own
/// completion callbacks, not from the drained loop's clock.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ripple/sim/event_loop.hpp"

namespace ripple::metrics {

class Counters {
 public:
  /// One snapshotted (time, name, value) point.
  struct Sample {
    double time = 0.0;
    std::string name;
    double value = 0.0;
  };

  Counters() = default;
  Counters(const Counters&) = delete;
  Counters& operator=(const Counters&) = delete;

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Adds `delta` to the named monotonic counter.
  void add(const std::string& name, double delta = 1.0);

  /// Adds to counter `prefix + suffix`, building the name only if enabled.
  void add(std::string_view prefix, const std::string& suffix,
           double delta = 1.0) {
    if (enabled_) add(std::string(prefix) + suffix, delta);
  }

  /// Sets the named value outright (for push-style gauges such as
  /// "ml.batch_fill" that are cheaper to set at the source than to
  /// poll).
  void set_value(const std::string& name, double value);

  /// Current value of a counter or push-gauge; 0 when never touched.
  [[nodiscard]] double value(const std::string& name) const;

  /// Registers a pull-gauge polled at every sampling tick.
  /// Registration order is the sample order, so register gauges from
  /// deterministic call sites only (Session::enable_tracing does).
  void register_gauge(std::string name, std::function<double()> fn);

  /// Snapshots every counter, push-gauge and pull-gauge at `time`.
  void sample(double time);

  /// Arms the periodic sampling tick on `loop` every `interval`
  /// seconds of sim time. The tick re-arms only while the loop has
  /// other pending events (see file comment).
  void arm_sampling(sim::EventLoop& loop, double interval);

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }

  /// Counter/push-gauge values, in deterministic (sorted-name) order.
  [[nodiscard]] const std::map<std::string, double>& values() const noexcept {
    return values_;
  }

  /// FNV-1a fingerprint of the sample log.
  [[nodiscard]] std::uint64_t sample_log_hash() const;

  void clear();

 private:
  void tick(sim::EventLoop& loop, double interval);

  bool enabled_ = false;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::function<double()>>> gauges_;
  std::vector<Sample> samples_;
};

}  // namespace ripple::metrics
