#pragma once

/// \file gauge.hpp
/// A fixed reference job that tells how fast the host runs right now.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

namespace perfbench {

/// Times a fixed job shaped like the runtime's hot paths: a few thousand
/// lookups of string keys in a std::map. The job never changes, and its
/// data sits in one block of its own, taken before any workload runs, so
/// the runtime's heap does not move it. Each sample runs the job once untimed to bring its data (a little
/// under 1 MB, within a core's L2 cache) back after the workload, then
/// times a second pass. On a host shared with other tenants the sample
/// time rises and falls with the host's speed, as the workload's does.
class HostGauge {
 public:
  HostGauge();

  HostGauge(const HostGauge&) = delete;
  HostGauge& operator=(const HostGauge&) = delete;

  /// Wall seconds of one timed pass.
  double sample();

 private:
  std::uint64_t pass();

  std::pmr::monotonic_buffer_resource memory_;
  std::pmr::map<std::pmr::string, std::uint64_t> keys_;
  std::pmr::vector<std::pmr::string> lookups_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
