#include "ripple/core/scheduler.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/platform/cluster.hpp"

namespace ripple::core {

Scheduler::Scheduler(Runtime& runtime, SchedulerPolicy policy)
    : runtime_(runtime),
      policy_(policy),
      log_(runtime.make_logger("scheduler")) {}

void Scheduler::set_policy(SchedulerPolicy policy) noexcept {
  if (policy == policy_) return;
  policy_ = policy;
  // Queued entries were filtered under the old policy's invariants; the
  // next submit must rescan the whole queue, not just the new entry.
  for (auto& [uid, entry] : pilots_) entry.needs_full_scan = true;
}

void Scheduler::add_pilot(Pilot& pilot) {
  ensure(pilots_.count(pilot.uid()) == 0, Errc::invalid_state, "pilot ",
         pilot.uid(), " already registered");
  PilotEntry& entry = pilots_[pilot.uid()];
  try {
    entry.pilot = &pilot;
    entry.index.attach(pilot.nodes());
    for (const platform::Node* node : pilot.nodes()) {
      const platform::NodeSpec& spec = node->spec();
      entry.total_cores += spec.cores;
      entry.total_gpus += spec.gpus;
      entry.total_mem += spec.mem_gb;
      const bool seen = std::any_of(
          entry.distinct_specs.begin(), entry.distinct_specs.end(),
          [&](const platform::NodeSpec& s) {
            return s.cores == spec.cores && s.gpus == spec.gpus &&
                   s.mem_gb == spec.mem_gb;
          });
      if (!seen) entry.distinct_specs.push_back(spec);
    }
  } catch (...) {
    // Don't leave a half-registered pilot behind (e.g. a node already
    // indexed by another pilot).
    pilots_.erase(pilot.uid());
    throw;
  }
}

void Scheduler::remove_pilot(const std::string& pilot_uid) {
  pilots_.erase(pilot_uid);
}

std::size_t Scheduler::reschedule(const std::string& pilot_uid) {
  PilotEntry& entry = entry_for(pilot_uid);
  const std::size_t grants = try_schedule(entry);
  trace_pass(entry, grants);
  return grants;
}

std::size_t Scheduler::waiting_total() const {
  std::size_t total = 0;
  for (const auto& [uid, entry] : pilots_) total += entry.waiting.size();
  return total;
}

void Scheduler::trace_pass(const PilotEntry& entry, std::size_t grants) {
  auto& tracer = runtime_.tracer();
  if (!tracer.enabled()) return;
  const double now = runtime_.loop().now();
  tracer.instant("place", "sched", entry.pilot->uid(), now, 0,
                 {{"grants", strutil::cat(grants)},
                  {"queued", strutil::cat(entry.waiting.size())}});
}

Scheduler::PilotEntry& Scheduler::entry_for(const std::string& pilot_uid) {
  const auto it = pilots_.find(pilot_uid);
  ensure(it != pilots_.end(), Errc::not_found, "unknown pilot '", pilot_uid,
         "'");
  return it->second;
}

namespace {

/// True when some node shape covers the request in every dimension.
bool specs_cover(const std::vector<platform::NodeSpec>& specs,
                 std::size_t cores, std::size_t gpus, double mem_gb) {
  return std::any_of(specs.begin(), specs.end(),
                     [&](const platform::NodeSpec& spec) {
                       return cores <= spec.cores && gpus <= spec.gpus &&
                              mem_gb <= spec.mem_gb;
                     });
}

}  // namespace

bool Scheduler::fits_pilot(const std::string& pilot_uid, std::size_t cores,
                           std::size_t gpus, double mem_gb) const {
  const auto it = pilots_.find(pilot_uid);
  ensure(it != pilots_.end(), Errc::not_found, "unknown pilot '", pilot_uid,
         "'");
  return specs_cover(it->second.distinct_specs, cores, gpus, mem_gb);
}

void Scheduler::validate_fits_pilot(const PilotEntry& entry,
                                    const ScheduleRequest& request) const {
  ensure(static_cast<bool>(request.granted), Errc::invalid_argument,
         "schedule request needs a granted callback");
  // Reject requests that exceed every node shape outright. Pilots are
  // typically homogeneous, so this is one comparison.
  ensure(specs_cover(entry.distinct_specs, request.cores, request.gpus,
                     request.mem_gb),
         Errc::capacity, "request ", request.uid, " (", request.cores, "c/",
         request.gpus, "g) cannot fit any node of pilot ", entry.pilot->uid());
}

WaitQueue::Key Scheduler::enqueue(PilotEntry& entry,
                                  ScheduleRequest request) {
  const WaitQueue::Key key{request.priority, next_sequence_++};
  entry.waiting.push(
      key, WaitQueue::Entry{std::move(request), runtime_.loop().now()});
  return key;
}

void Scheduler::submit(const std::string& pilot_uid,
                       ScheduleRequest request) {
  PilotEntry& entry = entry_for(pilot_uid);
  validate_fits_pilot(entry, request);
  const WaitQueue::Key key = enqueue(entry, std::move(request));
  if (entry.needs_full_scan) {
    try_schedule(entry);
  } else {
    try_place_new(entry, key);
  }
}

std::size_t Scheduler::submit_all(const std::string& pilot_uid,
                                  std::vector<ScheduleRequest> requests) {
  PilotEntry& entry = entry_for(pilot_uid);
  for (const ScheduleRequest& request : requests) {
    validate_fits_pilot(entry, request);
  }
  try {
    for (ScheduleRequest& request : requests) {
      enqueue(entry, std::move(request));
    }
  } catch (...) {
    // A duplicate uid mid-batch must not strand the already-enqueued
    // requests without a placement pass (the submit fast path would
    // never look at them again).
    try_schedule(entry);
    throw;
  }
  const std::size_t grants = try_schedule(entry);
  trace_pass(entry, grants);
  return grants;
}

bool Scheduler::cancel(const std::string& pilot_uid,
                       const std::string& request_uid) {
  PilotEntry& entry = entry_for(pilot_uid);
  const bool was_head = !entry.waiting.empty() &&
                        entry.waiting.begin()->second.request.uid ==
                            request_uid;
  if (!entry.waiting.erase_uid(request_uid)) return false;
  // A fifo queue head may have been the only thing blocking placeable
  // successors. Matching the legacy scheduler, cancel itself does not
  // re-run placement (grant order stays bit-identical); the flag makes
  // the next submit rescan the whole queue instead of fast-pathing.
  if (was_head && policy_ == SchedulerPolicy::fifo) {
    entry.needs_full_scan = true;
  }
  return true;
}

void Scheduler::release(const std::string& pilot_uid,
                        const platform::Slot& slot) {
  PilotEntry& entry = entry_for(pilot_uid);
  platform::Node* node = entry.pilot->cluster().find_node(slot.node_id);
  ensure(node != nullptr, Errc::not_found, "release on unknown node '",
         slot.node_id, "'");
  node->release(slot);  // capacity index updates via the listener
  try_schedule(entry);
}

WaitQueue::iterator Scheduler::grant(PilotEntry& entry,
                                     WaitQueue::iterator position,
                                     platform::Node& node, GrantSink* sink) {
  ScheduleRequest& request = position->second.request;
  platform::Slot slot =
      node.allocate(request.cores, request.gpus, request.mem_gb);
  // The grant's share cost is fixed here, against the pilot it landed
  // on; it is charged to the tenant at commit time, in merged order.
  double share_cost = 0.0;
  if (!tenant_weights_.empty() && !request.tenant.empty()) {
    share_cost =
        dominant_fraction(entry, request) / weight_for(request.tenant);
  }
  if (sink != nullptr) {
    // Sharded pass: only pilot-local state may change here. The shard
    // field of the key is stamped by run_sharded_passes; sequence is
    // the request's globally unique wait-queue sequence, so the merged
    // commit order is invariant under the shard count.
    PendingGrant pending;
    pending.key = common::MergeKey{position->second.enqueued_at,
                                   position->first.sequence, 0};
    pending.enqueued_at = position->second.enqueued_at;
    pending.uid = request.uid;
    pending.tenant = request.tenant;
    pending.share_cost = share_cost;
    pending.slot = std::move(slot);
    pending.node = &node;
    pending.callback = std::move(request.granted);
    sink->push_back(std::move(pending));
    return entry.waiting.erase(position);
  }
  const double enqueued_at = position->second.enqueued_at;
  std::string uid = request.uid;
  std::string tenant = request.tenant;
  auto callback = std::move(request.granted);
  const auto next = entry.waiting.erase(position);
  commit_grant(enqueued_at, uid, tenant, share_cost, std::move(slot), &node,
               std::move(callback));
  return next;
}

void Scheduler::commit_grant(
    double enqueued_at, const std::string& uid, const std::string& tenant,
    double share_cost, platform::Slot slot, platform::Node* node,
    std::function<void(platform::Slot, platform::Node*)> callback) {
  wait_times_.add(runtime_.loop().now() - enqueued_at);
  ++granted_;
  runtime_.counters().add("sched.grants");
  if (!tenant.empty()) runtime_.counters().add("sched.grants.", tenant);
  if (!tenant.empty() && share_cost > 0.0) tenant_shares_[tenant] += share_cost;
  grant_hash_ = common::fnv1a(grant_hash_, uid);
  grant_hash_ = common::fnv1a(grant_hash_, node->id());
  grant_hash_ = common::fnv1a(grant_hash_,
                              static_cast<std::uint64_t>(slot.cores));
  grant_hash_ = common::fnv1a(grant_hash_,
                              static_cast<std::uint64_t>(slot.gpus));
  runtime_.loop().post([callback = std::move(callback),
                        slot = std::move(slot),
                        placed = node] { callback(slot, placed); });
}

void Scheduler::set_locality_oracle(LocalityOracle oracle) {
  oracle_ = std::move(oracle);
}

void Scheduler::set_tenant_weight(const std::string& tenant, double weight) {
  ensure(!tenant.empty(), Errc::invalid_argument,
         "fair-share weight needs a tenant");
  ensure(weight > 0.0, Errc::invalid_argument,
         "fair-share weight must be > 0");
  tenant_weights_[tenant] = weight;
  // The scan order just changed; the submit fast path's only-the-new-
  // entry-can-fit invariant still holds, but a full rescan keeps the
  // first fair pass from inheriting a stale filtered queue.
  for (auto& [uid, entry] : pilots_) entry.needs_full_scan = true;
}

double Scheduler::tenant_share(const std::string& tenant) const {
  const auto it = tenant_shares_.find(tenant);
  return it == tenant_shares_.end() ? 0.0 : it->second;
}

double Scheduler::weight_for(const std::string& tenant) const {
  const auto it = tenant_weights_.find(tenant);
  return it == tenant_weights_.end() ? 1.0 : it->second;
}

double Scheduler::dominant_fraction(const PilotEntry& entry,
                                    const ScheduleRequest& request) const {
  double fraction =
      entry.total_cores > 0
          ? static_cast<double>(request.cores) /
                static_cast<double>(entry.total_cores)
          : 0.0;
  if (request.gpus > 0 && entry.total_gpus > 0) {
    fraction = std::max(fraction,
                        static_cast<double>(request.gpus) /
                            static_cast<double>(entry.total_gpus));
  }
  if (request.mem_gb > 0.0 && entry.total_mem > 0.0) {
    fraction = std::max(fraction, request.mem_gb / entry.total_mem);
  }
  return fraction;
}

std::size_t Scheduler::try_schedule(PilotEntry& entry, GrantSink* sink) {
  if (!tenant_weights_.empty() && policy_ == SchedulerPolicy::backfill) {
    return try_schedule_fair(entry, sink);
  }
  if (oracle_ && policy_ == SchedulerPolicy::backfill) {
    return try_schedule_data_aware(entry, sink);
  }
  std::size_t grants = 0;
  auto it = entry.waiting.begin();
  while (it != entry.waiting.end()) {
    const ScheduleRequest& request = it->second.request;
    platform::Node* node =
        entry.index.first_fit(request.cores, request.gpus, request.mem_gb);
    if (node == nullptr) {
      if (policy_ == SchedulerPolicy::fifo) break;  // head blocks queue
      ++it;
      continue;
    }
    it = grant(entry, it, *node, sink);
    ++grants;
  }
  entry.needs_full_scan = false;
  return grants;
}

std::size_t Scheduler::try_schedule_data_aware(PilotEntry& entry,
                                               GrantSink* sink) {
  std::size_t grants = 0;
  const std::string zone = entry.pilot->cluster().name();
  std::vector<WaitQueue::Key> deferred;  ///< skipped: non-zero footprint
  auto group_begin = entry.waiting.begin();
  while (group_begin != entry.waiting.end()) {
    const int priority = group_begin->first.priority;
    deferred.clear();
    // Pass 1 — resident requests of this priority class, in submission
    // order. With every footprint zero this pass *is* the data-blind
    // scan of the class: capacity only shrinks as grants land, so
    // anything it skips stays unplaceable and pass 2 grants nothing —
    // the conservative bit-identical-order guarantee.
    for (auto it = group_begin;
         it != entry.waiting.end() && it->first.priority == priority;) {
      const ScheduleRequest& request = it->second.request;
      // No declared inputs is the common case; it is resident by
      // definition, so don't pay the oracle's catalog lookup for it.
      if (!request.input_datasets.empty() &&
          oracle_(request.input_datasets, zone) > 0.0) {
        deferred.push_back(it->first);
        ++it;
        continue;
      }
      platform::Node* node = entry.index.first_fit(
          request.cores, request.gpus, request.mem_gb);
      if (node == nullptr) {
        ++it;
        continue;
      }
      const bool at_begin = it == group_begin;
      it = grant(entry, it, *node, sink);
      if (at_begin) group_begin = it;
      ++grants;
    }
    // Pass 2 — non-resident backfill, submission order. Only the
    // requests pass 1 deferred are probed: every resident request it
    // left behind already failed first_fit at capacity that has only
    // shrunk since, so re-probing them would be pure waste (and with
    // nothing deferred this pass is free — the all-resident hot path
    // costs exactly the data-blind scan).
    for (const WaitQueue::Key& key : deferred) {
      const auto it = entry.waiting.find(key);
      const ScheduleRequest& request = it->second.request;
      platform::Node* node = entry.index.first_fit(
          request.cores, request.gpus, request.mem_gb);
      if (node == nullptr) continue;
      const bool at_begin = it == group_begin;
      const auto next = grant(entry, it, *node, sink);
      if (at_begin) group_begin = next;
      ++grants;
    }
    while (group_begin != entry.waiting.end() &&
           group_begin->first.priority == priority) {
      ++group_begin;
    }
  }
  entry.needs_full_scan = false;
  return grants;
}

std::size_t Scheduler::try_schedule_fair(PilotEntry& entry,
                                         GrantSink* sink) {
  // Snapshot the scan order up front: (priority desc, tenant share asc,
  // enqueue time asc, sequence asc). Shares are read-only during a pass
  // (commit_grant is the sole writer and runs after the pass on the
  // batch paths), so the order is a pure function of committed history
  // — identical for every shard count — and the reads race with
  // nothing under the executor.
  struct ScanItem {
    int priority = 0;
    double share = 0.0;
    double enqueued_at = 0.0;
    std::uint64_t sequence = 0;
  };
  std::vector<ScanItem> order;
  order.reserve(entry.waiting.size());
  for (const auto& [key, queued] : entry.waiting) {
    const auto it = tenant_shares_.find(queued.request.tenant);
    order.push_back({key.priority,
                     it == tenant_shares_.end() ? 0.0 : it->second,
                     queued.enqueued_at, key.sequence});
  }
  std::sort(order.begin(), order.end(),
            [](const ScanItem& a, const ScanItem& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              if (a.share != b.share) return a.share < b.share;
              if (a.enqueued_at != b.enqueued_at) {
                return a.enqueued_at < b.enqueued_at;
              }
              return a.sequence < b.sequence;
            });
  std::size_t grants = 0;
  for (const ScanItem& item : order) {
    const auto it =
        entry.waiting.find(WaitQueue::Key{item.priority, item.sequence});
    if (it == entry.waiting.end()) continue;
    const ScheduleRequest& request = it->second.request;
    platform::Node* node =
        entry.index.first_fit(request.cores, request.gpus, request.mem_gb);
    // Backfill semantics: an unplaceable low-share request does not
    // block higher-share tenants — fairness is enacted by scan order
    // (and by whose grants accumulate share), not by head-of-line
    // blocking. Every entry is probed, so the everything-left-is-
    // unplaceable invariant holds afterwards.
    if (node == nullptr) continue;
    grant(entry, it, *node, sink);
    ++grants;
  }
  entry.needs_full_scan = false;
  return grants;
}

std::size_t Scheduler::run_sharded_passes(
    const std::vector<PilotEntry*>& touched) {
  if (touched.empty()) return 0;
  const std::size_t nshards =
      (executor_ != nullptr && executor_->shards() > 1)
          ? std::min<std::size_t>(executor_->shards(), touched.size())
          : 1;
  // Round-robin pilots over shards: shard s owns pilots s, s+nshards, …
  // Each pilot's wait queue, capacity index and nodes belong to exactly
  // one shard (a node has one exclusive capacity listener), so the
  // passes share no mutable state. Grants are buffered, not committed.
  std::vector<GrantSink> buffers(nshards);
  // Per-shard trace lanes: lane records carry (pass time, pilot index)
  // merge keys, so the committed span order is invariant under the
  // shard count — same protocol as the grants themselves.
  auto& tracer = runtime_.tracer();
  const bool traced = tracer.enabled();
  const double pass_time = runtime_.loop().now();
  if (traced) tracer.begin_lanes(nshards);
  const auto pass = [&](std::size_t shard) {
    GrantSink& sink = buffers[shard];
    for (std::size_t p = shard; p < touched.size(); p += nshards) {
      const std::size_t grants = try_schedule(*touched[p], &sink);
      if (traced) {
        tracer.lane_complete(
            shard,
            common::MergeKey{pass_time, p, static_cast<std::uint32_t>(shard)},
            "place", "sched", touched[p]->pilot->uid(), pass_time, pass_time,
            {{"grants", strutil::cat(grants)},
             {"queued", strutil::cat(touched[p]->waiting.size())}});
      }
    }
    for (PendingGrant& pending : sink) {
      pending.key.shard = static_cast<std::uint32_t>(shard);
    }
  };
  if (nshards == 1) {
    pass(0);
  } else {
    executor_->run(nshards, pass);
  }
  if (traced) tracer.commit_lanes();
  return commit_merged(std::move(buffers));
}

std::size_t Scheduler::commit_merged(std::vector<GrantSink> buffers) {
  // Merge in (enqueue time, request sequence, shard) order and commit
  // serially. Sequences are globally unique, so this order is a pure
  // function of the grant records — bit-identical for any shard count.
  std::vector<PendingGrant> merged = common::merge_shards(
      std::move(buffers),
      [](const PendingGrant& pending) { return pending.key; });
  for (PendingGrant& pending : merged) {
    commit_grant(pending.enqueued_at, pending.uid, pending.tenant,
                 pending.share_cost, std::move(pending.slot), pending.node,
                 std::move(pending.callback));
  }
  return merged.size();
}

std::size_t Scheduler::submit_batch(std::vector<PilotBatch> batches) {
  // Validate everything first so a bad request leaves no partial state.
  for (const PilotBatch& batch : batches) {
    const PilotEntry& entry = entry_for(batch.pilot_uid);
    for (const ScheduleRequest& request : batch.requests) {
      validate_fits_pilot(entry, request);
    }
  }
  std::vector<PilotEntry*> touched;
  const auto touch = [&](PilotEntry& entry) {
    if (std::find(touched.begin(), touched.end(), &entry) == touched.end()) {
      touched.push_back(&entry);
    }
  };
  try {
    // Enqueue in input order on the calling thread: sequence assignment
    // is identical to per-pilot submit_all calls in the same order.
    for (PilotBatch& batch : batches) {
      PilotEntry& entry = entry_for(batch.pilot_uid);
      touch(entry);
      for (ScheduleRequest& request : batch.requests) {
        enqueue(entry, std::move(request));
      }
    }
  } catch (...) {
    // Same strand protection as submit_all: a duplicate uid mid-batch
    // must not leave enqueued requests without a placement pass.
    run_sharded_passes(touched);
    throw;
  }
  return run_sharded_passes(touched);
}

std::size_t Scheduler::release_batch(
    const std::vector<std::pair<std::string, platform::Slot>>& slots) {
  // Group slots per pilot in first-occurrence order so each shard can
  // release its pilots' capacity before re-running their passes.
  std::vector<std::pair<PilotEntry*, std::vector<const platform::Slot*>>>
      grouped;
  for (const auto& [pilot_uid, slot] : slots) {
    PilotEntry& entry = entry_for(pilot_uid);
    auto it = std::find_if(grouped.begin(), grouped.end(),
                           [&](const auto& g) { return g.first == &entry; });
    if (it == grouped.end()) {
      grouped.emplace_back(&entry, std::vector<const platform::Slot*>{});
      it = std::prev(grouped.end());
    }
    // Resolve the node up front (loop-thread, may throw not_found).
    platform::Node* node =
        entry.pilot->cluster().find_node(slot.node_id);
    ensure(node != nullptr, Errc::not_found, "release on unknown node '",
           slot.node_id, "'");
    it->second.push_back(&slot);
  }
  if (grouped.empty()) return 0;
  const std::size_t nshards =
      (executor_ != nullptr && executor_->shards() > 1)
          ? std::min<std::size_t>(executor_->shards(), grouped.size())
          : 1;
  std::vector<GrantSink> buffers(nshards);
  auto& tracer = runtime_.tracer();
  const bool traced = tracer.enabled();
  const double pass_time = runtime_.loop().now();
  if (traced) tracer.begin_lanes(nshards);
  const auto pass = [&](std::size_t shard) {
    GrantSink& sink = buffers[shard];
    for (std::size_t g = shard; g < grouped.size(); g += nshards) {
      PilotEntry& entry = *grouped[g].first;
      for (const platform::Slot* slot : grouped[g].second) {
        platform::Node* node =
            entry.pilot->cluster().find_node(slot->node_id);
        node->release(*slot);  // index updates via the listener
      }
      const std::size_t grants = try_schedule(entry, &sink);
      if (traced) {
        tracer.lane_complete(
            shard,
            common::MergeKey{pass_time, g, static_cast<std::uint32_t>(shard)},
            "backfill", "sched", entry.pilot->uid(), pass_time, pass_time,
            {{"released", strutil::cat(grouped[g].second.size())},
             {"grants", strutil::cat(grants)}});
      }
    }
    for (PendingGrant& pending : sink) {
      pending.key.shard = static_cast<std::uint32_t>(shard);
    }
  };
  if (nshards == 1) {
    pass(0);
  } else {
    executor_->run(nshards, pass);
  }
  if (traced) tracer.commit_lanes();
  return commit_merged(std::move(buffers));
}

void Scheduler::try_place_new(PilotEntry& entry, WaitQueue::Key key) {
  // Everything already queued was unplaceable at unchanged capacity
  // (try_schedule invariant), so only the new entry can be granted —
  // and under fifo only when it is the queue head.
  auto position = entry.waiting.begin();
  if (policy_ == SchedulerPolicy::fifo) {
    if (position->first.priority != key.priority ||
        position->first.sequence != key.sequence) {
      return;
    }
  } else {
    position = entry.waiting.find(key);
    ensure(position != entry.waiting.end(), Errc::internal,
           "submitted request vanished from wait queue");
  }
  const ScheduleRequest& request = position->second.request;
  platform::Node* node =
      entry.index.first_fit(request.cores, request.gpus, request.mem_gb);
  if (node != nullptr) grant(entry, position, *node);
}

std::size_t Scheduler::queue_length(const std::string& pilot_uid) const {
  const auto it = pilots_.find(pilot_uid);
  return it == pilots_.end() ? 0 : it->second.waiting.size();
}

}  // namespace ripple::core
