#include "replay.hpp"

#include <optional>

#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/platform/cluster.hpp"
#include "ripple/platform/profiles.hpp"

namespace perfbench {

using namespace ripple;

ReplayResult replay_scheduler(const Inputs& inputs,
                              const std::vector<std::string>& task_uids,
                              const std::vector<std::size_t>& completion_order) {
  ReplayResult result;
  const std::size_t n = inputs.tasks.size();
  if (task_uids.size() != n || completion_order.size() != n) {
    result.errors.push_back("replay needs every task's uid and completion");
    return result;
  }
  const bool tenants = inputs.workload == Workload::tenants;

  core::Runtime runtime(inputs.seed);
  const platform::PlatformProfile profile = platform::delta_profile(kPilotNodes);
  platform::Cluster cluster(runtime.loop(), runtime.network(), profile,
                            runtime.rng().fork("cluster." + profile.name));
  core::Scheduler scheduler(runtime, core::SchedulerPolicy::backfill);
  scheduler.set_locality_oracle(
      [](const std::vector<std::string>&, const std::string&) { return 0.0; });
  if (tenants) {
    for (std::size_t t = 0; t < kTenants; ++t) {
      scheduler.set_tenant_weight(tenant_name(t), kTenantWeights[t]);
    }
  }
  core::PilotDescription desc;
  desc.platform = profile.name;
  desc.nodes = kPilotNodes;
  core::Pilot pilot("pilot.replay", desc, &cluster);
  pilot.nodes() = cluster.reserve_nodes(kPilotNodes);
  scheduler.add_pilot(pilot);

  std::vector<std::optional<platform::Slot>> slots(n);
  result.submit_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskShape& shape = inputs.tasks[i];
    core::ScheduleRequest request;
    request.uid = task_uids[i];
    request.cores = shape.cores;
    if (tenants) {
      request.tenant = tenant_name(shape.tenant);
      request.input_datasets = {tenant_part_name(shape.tenant, shape.part)};
    }
    request.granted = [&slots, i](platform::Slot slot, platform::Node*) {
      slots[i] = std::move(slot);
    };
    const auto start = Clock::now();
    scheduler.submit(pilot.uid(), std::move(request));
    result.submit_us.push_back(seconds_since(start) * 1e6);
  }
  runtime.loop().run();  // deliver the grant callbacks (untimed)

  result.release_us.reserve(n);
  for (const std::size_t i : completion_order) {
    if (!slots[i]) {
      result.errors.push_back("replay reached the release of " +
                              task_uids[i] + " before granting it");
      break;
    }
    const auto start = Clock::now();
    scheduler.release(pilot.uid(), *slots[i]);
    result.release_us.push_back(seconds_since(start) * 1e6);
    runtime.loop().run();
  }

  result.grants = scheduler.granted_total();
  result.grant_log_hash = scheduler.grant_log_hash();
  if (result.grants != n) {
    result.errors.push_back("replay granted " + std::to_string(result.grants) +
                            " of " + std::to_string(n) + " requests");
  }
  return result;
}

}  // namespace perfbench
