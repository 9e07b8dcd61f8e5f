#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

std::int64_t Probe::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t Probe::open(const char* name, const char* layer,
                         std::uint64_t entity) {
  SpanRecord record;
  record.name = name;
  record.layer = layer;
  record.entity = entity;
  record.parent = stack_.empty() ? -1 : stack_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(record);
  stack_.push_back(index);
  // Read the clock last, so the bookkeeping above is not charged to the
  // span.
  spans_.back().start_ns = now_ns();
  return index;
}

void Probe::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<double> Probe::durations_us(const char* name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> Probe::gaps_us(const char* name) const {
  std::vector<double> out;
  std::int64_t previous_end = -1;
  for (const SpanRecord& span : spans_) {
    if (std::strcmp(span.name, name) != 0) continue;
    if (previous_end >= 0) {
      out.push_back(static_cast<double>(span.start_ns - previous_end) / 1e3);
    }
    previous_end = span.end_ns;
  }
  return out;
}

double Probe::total_us(const char* name) const {
  double total = 0.0;
  for (const double d : durations_us(name)) total += d;
  return total;
}

std::vector<double> Probe::child_us() const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    }
  }
  return children;
}

double Probe::self_us(const char* name) const {
  const std::vector<double> children = child_us();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (std::strcmp(span.name, name) == 0) {
      total += static_cast<double>(span.end_ns - span.start_ns) / 1e3 -
               children[i];
    }
  }
  return total;
}

std::map<std::string, double> Probe::self_ms_by_layer() const {
  const std::vector<double> children = child_us();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out[span.layer] +=
        (static_cast<double>(span.end_ns - span.start_ns) / 1e3 -
         children[i]) /
        1e3;
  }
  return out;
}

bool Probe::write_jsonl(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  for (const SpanRecord& span : spans_) {
    file << "{\"name\":\"" << span.name << "\",\"layer\":\"" << span.layer
         << "\",\"entity\":" << span.entity
         << ",\"start_ns\":" << span.start_ns
         << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
         << "}\n";
  }
  return static_cast<bool>(file);
}

}  // namespace perfbench
