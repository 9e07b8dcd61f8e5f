#pragma once

/// \file probe.hpp
/// Benchmark-side wall-clock tracing.
///
/// A Probe records spans around the benchmark's own calls into Ripple's
/// public functions: name, layer, start, end, the span that was open
/// when it began (its parent) and an entity id shared by the spans of
/// one task, graph or request batch. Spans stay in memory and are
/// written out once the run ends. A disabled Probe records nothing and
/// costs one branch per call site, so the untraced runs that give the
/// end-to-end metrics go through the same code.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct SpanRecord {
  const char* name = "";   ///< call site, e.g. "tasks.submit"
  const char* layer = "";  ///< module the call enters, e.g. "core.tasks"
  std::uint64_t entity = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int32_t parent = -1;  ///< index into spans(), -1 for roots
};

class Probe {
 public:
  explicit Probe(bool enabled) : enabled_(enabled) {}

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Closes its span when it goes out of scope. Spans nest in scope
  /// order, so a span's parent is whichever span was open around it.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (index_ >= 0) probe_->close(index_);
    }

   private:
    friend class Probe;
    Scope(Probe* probe, std::int32_t index) : probe_(probe), index_(index) {}
    Probe* probe_;
    std::int32_t index_;
  };

  /// `name` and `layer` must be string literals (they are stored as
  /// pointers).
  [[nodiscard]] Scope span(const char* name, const char* layer,
                           std::uint64_t entity = 0) {
    return Scope(this, enabled_ ? open(name, layer, entity) : -1);
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Durations (µs) of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations_us(const char* name) const;

  /// Wall time (µs) between consecutive spans called `name`: each
  /// span's start minus the previous one's end, so the spans' own time
  /// is left out.
  [[nodiscard]] std::vector<double> gaps_us(const char* name) const;

  /// Summed duration (µs) of every span called `name`.
  [[nodiscard]] double total_us(const char* name) const;

  /// Self time (µs) of every span called `name`: its duration minus the
  /// part its child spans cover, summed.
  [[nodiscard]] double self_us(const char* name) const;

  /// Self time (ms) summed per layer.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// One JSON object per line: name, layer, entity, start/end (ns since
  /// the first span) and parent index. Returns false if the file could
  /// not be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int32_t open(const char* name, const char* layer,
                    std::uint64_t entity);
  void close(std::int32_t index);
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::vector<double> child_us() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

}  // namespace perfbench
