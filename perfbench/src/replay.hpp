#pragma once

/// \file replay.hpp
/// Scheduler replay: Session hides core::Scheduler's share of run(), so
/// the benchmark replays the exact request stream of a bag or tenants
/// run into a standalone Runtime + Cluster + Pilot + Scheduler and
/// times each submit and release call on its own.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct ReplayResult {
  std::vector<double> submit_us;   ///< one per Scheduler::submit
  std::vector<double> release_us;  ///< one per Scheduler::release
  std::uint64_t grants = 0;
  std::uint64_t grant_log_hash = 0;
  std::vector<std::string> errors;
};

/// Submits every request of `inputs` (bag or tenants) in submission
/// order under the uids the session gave them, then releases the
/// granted slots in `completion_order`. bag gets a locality oracle that
/// returns 0, as the session wires for data-free tasks; tenants gets
/// the session's tenant weights. Checks that every request is granted.
[[nodiscard]] ReplayResult replay_scheduler(
    const Inputs& inputs, const std::vector<std::string>& task_uids,
    const std::vector<std::size_t>& completion_order);

}  // namespace perfbench
