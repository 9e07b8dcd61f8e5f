#include "ripple/core/task_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/data/placement_advisor.hpp"
#include "ripple/platform/cluster.hpp"

namespace ripple::core {

namespace {

/// Datasets a description stages in — the task's input footprint.
std::vector<std::string> stage_in_datasets(const TaskDescription& desc) {
  std::vector<std::string> inputs;
  for (const auto& directive : desc.staging) {
    if (directive.action == StagingDirective::Action::stage_in) {
      inputs.push_back(directive.dataset);
    }
  }
  return inputs;
}

constexpr std::size_t index(TaskState state) noexcept {
  return static_cast<std::size_t>(state);
}

}  // namespace

TaskManager::TaskManager(Runtime& runtime, Scheduler& scheduler,
                         Executor& executor, DataManager& data,
                         ServiceManager& services)
    : runtime_(runtime),
      scheduler_(scheduler),
      executor_(executor),
      data_(data),
      services_(services),
      log_(runtime.make_logger("task_manager")),
      restart_rng_(runtime.rng().fork("task_restart")) {
  // A required service may have become RUNNING.
  services_.on_transition([this] { post_recheck_waiting(); });
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

TaskManager::Active& TaskManager::active_for(const std::string& uid) {
  const auto it = tasks_.find(uid);
  ensure(it != tasks_.end(), Errc::not_found, "unknown task '", uid, "'");
  return it->second;
}

const TaskManager::Active& TaskManager::active_for(
    const std::string& uid) const {
  const auto it = tasks_.find(uid);
  ensure(it != tasks_.end(), Errc::not_found, "unknown task '", uid, "'");
  return it->second;
}

TaskManager::Active* TaskManager::find_live(const std::string& uid) {
  const auto it = tasks_.find(uid);
  if (it == tasks_.end() || !it->second.live) return nullptr;
  return &it->second;
}

const Task& TaskManager::get(const std::string& uid) const {
  return active_for(uid).task;
}

bool TaskManager::exists(const std::string& uid) const {
  return tasks_.count(uid) != 0;
}

std::vector<std::string> TaskManager::uids() const {
  std::vector<std::string> out;
  out.reserve(tasks_.size());
  for (const auto& [uid, active] : tasks_) out.push_back(uid);
  return out;
}

std::size_t TaskManager::count_in_state(TaskState state) const {
  return state_counts_[index(state)];
}

// ---------------------------------------------------------------------------
// State bookkeeping
// ---------------------------------------------------------------------------

void TaskManager::set_state(Active& active, TaskState state) {
  const TaskState from = active.task.state();
  active.task.set_state(state, runtime_.loop().now());
  --state_counts_[index(from)];
  ++state_counts_[index(state)];
  record_transition(active.task.uid(), state);
  if (is_terminal(state)) {
    recheck_watchers();
    // Retire: only the Task record outlives the attempt. Every caller
    // returns right after a terminal set_state, and callbacks still in
    // flight find no live part and drop themselves.
    active.live.reset();
  }
}

void TaskManager::record_transition(const std::string& uid, TaskState state) {
  runtime_.publish_state("task", uid, to_string(state));
  post_recheck_waiting();
}

void TaskManager::post_recheck_waiting() {
  // Posted, not called: a transition happens mid-event, before the
  // caller has finished its bookkeeping; waiting tasks are re-evaluated
  // once the current event has returned.
  runtime_.loop().post([this] { recheck_waiting(); });
}

void TaskManager::recheck_watchers() {
  for (std::size_t i = 0; i < watchers_.size();) {
    DoneWatcher& watcher = watchers_[i];
    bool all_terminal = true;
    bool all_done = true;
    for (const auto& uid : watcher.uids) {
      const TaskState state = get(uid).state();
      if (!is_terminal(state)) all_terminal = false;
      if (state != TaskState::done) all_done = false;
    }
    if (all_terminal) {
      auto callback = std::move(watcher.on_done);
      watchers_.erase(watchers_.begin() + static_cast<std::ptrdiff_t>(i));
      runtime_.loop().post(
          [callback = std::move(callback), all_done] { callback(all_done); });
    } else {
      ++i;
    }
  }
}

void TaskManager::when_done(std::vector<std::string> uids,
                            std::function<void(bool)> on_done) {
  ensure(static_cast<bool>(on_done), Errc::invalid_argument,
         "when_done: empty callback");
  for (const auto& uid : uids) {
    ensure(exists(uid), Errc::not_found, "when_done: unknown task '", uid, "'");
  }
  watchers_.push_back(DoneWatcher{std::move(uids), std::move(on_done)});
  recheck_watchers();
}

// ---------------------------------------------------------------------------
// Submission & readiness
// ---------------------------------------------------------------------------

std::string TaskManager::create_task(Pilot& pilot, TaskDescription desc) {
  desc.validate();
  ensure(executor_.payloads().has(desc.kind), Errc::not_found,
         "no payload factory for kind '", desc.kind, "'");
  for (const auto& dep : desc.depends_on) {
    ensure(exists(dep), Errc::not_found, "dependency '", dep,
           "' does not exist");
  }
  for (const auto& svc : desc.requires_services) {
    ensure(services_.exists(svc), Errc::not_found, "required service '", svc,
           "' does not exist");
  }

  const std::string uid = runtime_.make_uid("task");
  auto live = std::make_unique<Live>(std::move(desc));
  // The root span covers the task's whole lifetime; the phase spans
  // (queue-wait, stage-in/out, run, recovery) nest under it.
  if (runtime_.tracer().enabled()) {
    live->trace_task = runtime_.tracer().begin(live->desc.name, "task", uid,
                                               runtime_.loop().now());
  }
  runtime_.counters().add("task.submitted");
  tasks_.emplace(uid, Active{Task(uid, pilot), std::move(live)});
  ++state_counts_[index(TaskState::created)];
  record_transition(uid, TaskState::created);
  return uid;
}

std::string TaskManager::submit(Pilot& pilot, TaskDescription desc) {
  const std::string uid = create_task(pilot, std::move(desc));
  runtime_.loop().post([this, uid] { evaluate(uid); });
  return uid;
}

std::string TaskManager::submit_any(const std::vector<Pilot*>& candidates,
                                    TaskDescription desc) {
  ensure(!candidates.empty(), Errc::invalid_argument,
         "submit_any: no candidate pilots");
  // Contention-aware: estimated stage-in time at live link rates plus
  // the candidate's queue depth, not just resident bytes.
  const data::PlacementAdvisor advisor(data_.catalog(), &data_.engine(),
                                       &scheduler_);
  Pilot* pilot = advisor.best(candidates, stage_in_datasets(desc));
  return submit(*pilot, std::move(desc));
}

std::vector<std::string> TaskManager::submit_all(
    Pilot& pilot, std::vector<TaskDescription> descs) {
  std::vector<std::string> out;
  out.reserve(descs.size());
  // One deferred pass: evaluate everything, then enter the scheduler as
  // a single batch so the waiting queue is scanned once, not N times.
  // Posted even when a later description throws — already-created tasks
  // must still be evaluated, as they were under per-task submission.
  const auto post_batch = [this, &pilot](std::vector<std::string> uids) {
    if (uids.empty()) return;
    runtime_.loop().post([this, &pilot, uids = std::move(uids)] {
      std::vector<std::string> ready;
      for (const auto& uid : uids) evaluate(uid, &ready);
      schedule_batch(pilot, ready);
    });
  };
  try {
    for (auto& desc : descs) {
      out.push_back(create_task(pilot, std::move(desc)));
    }
  } catch (...) {
    post_batch(out);
    throw;
  }
  post_batch(out);
  return out;
}

TaskManager::Readiness TaskManager::readiness(const Active& active,
                                              std::string* blocker) const {
  const TaskDescription& desc = active.live->desc;
  for (const auto& dep : desc.depends_on) {
    const TaskState state = get(dep).state();
    if (state == TaskState::failed || state == TaskState::canceled) {
      if (blocker) *blocker = dep;
      return Readiness::broken;
    }
    if (state != TaskState::done) return Readiness::pending;
  }
  for (const auto& svc : desc.requires_services) {
    const ServiceState state = services_.get(svc).state();
    if (is_terminal(state)) {
      if (blocker) *blocker = svc;
      return Readiness::broken;
    }
    if (state != ServiceState::running) return Readiness::pending;
  }
  return Readiness::ready;
}

void TaskManager::evaluate(const std::string& uid,
                           std::vector<std::string>* batch) {
  Active* const active = find_live(uid);
  if (active == nullptr) return;
  const TaskState state = active->task.state();
  if (state != TaskState::created && state != TaskState::waiting) return;

  std::string blocker;
  switch (readiness(*active, &blocker)) {
    case Readiness::broken:
      waiting_.erase(uid);
      fail_task(uid, strutil::cat("dependency ", blocker, " failed"));
      return;
    case Readiness::pending:
      if (state == TaskState::created) {
        set_state(*active, TaskState::waiting);
      }
      waiting_.insert(uid);
      return;
    case Readiness::ready: {
      waiting_.erase(uid);
      const auto& staging = active->live->desc.staging;
      const bool stages_in = std::any_of(
          staging.begin(), staging.end(), [](const StagingDirective& d) {
            return d.action == StagingDirective::Action::stage_in;
          });
      if (batch != nullptr && !stages_in) {
        batch->push_back(uid);  // scheduled by schedule_batch
      } else {
        to_staging_in(uid);
      }
      return;
    }
  }
}

void TaskManager::recheck_waiting() {
  // Copy: evaluate() mutates waiting_.
  const std::vector<std::string> snapshot(waiting_.begin(), waiting_.end());
  for (const auto& uid : snapshot) evaluate(uid);
}

// ---------------------------------------------------------------------------
// Staging in
// ---------------------------------------------------------------------------

void TaskManager::to_staging_in(const std::string& uid) {
  Active& active = active_for(uid);
  const std::vector<std::string> inputs =
      stage_in_datasets(active.live->desc);
  if (inputs.empty()) {
    to_scheduling(uid);
    return;
  }
  set_state(active, TaskState::staging_input);
  begin_stage_in(uid, active);
  // Staging overlaps the queue wait: enter the scheduler immediately;
  // launch is gated on both the grant and the staged inputs.
  to_scheduling(uid);
}

void TaskManager::begin_stage_in(const std::string& uid, Active& active) {
  Live& live = *active.live;
  const std::vector<std::string> inputs = stage_in_datasets(live.desc);
  if (inputs.empty()) return;
  live.stage_in_pending = true;
  if (runtime_.tracer().enabled() && live.trace_stage == 0) {
    live.trace_stage =
        runtime_.tracer().begin("stage-in", "data", uid,
                                runtime_.loop().now(), live.trace_task);
  }
  const std::string zone = active.task.pilot().cluster().name();
  const std::uint64_t epoch = live.epoch;
  live.stage_batch = data_.stage_all_tracked(
      inputs, zone,
      [this, uid, inputs, zone, epoch](bool ok,
                                       const std::string& failed_dataset) {
        Active* const active = find_live(uid);
        // Finished, or the attempt was interrupted.
        if (active == nullptr || active->live->epoch != epoch) return;
        Live& live = *active->live;
        live.stage_in_pending = false;
        live.stage_batch.reset();
        runtime_.tracer().end(live.trace_stage, runtime_.loop().now());
        live.trace_stage = 0;
        if (!ok) {
          fail_task(uid, strutil::cat("stage-in of '", failed_dataset,
                                      "' failed"));
          return;
        }
        // Pin the landed inputs until the task is terminal: while it
        // waits for its grant, store pressure must not evict them. An
        // input already gone (evicted between its landing and the
        // batch completing) is a staging failure.
        live.input_pin_zone = zone;
        for (const auto& name : inputs) {
          if (!data_.available_in(name, zone)) {
            fail_task(uid, strutil::cat("stage-in of '", name,
                                        "' was evicted before launch"));
            return;
          }
          data_.catalog().pin(name, zone, live.desc.tenant);
          live.input_pins.push_back(name);
        }
        // The grant may have arrived while the data was in flight.
        if (live.slot_held && active->task.state() == TaskState::scheduled) {
          begin_launch(uid);
        }
      },
      live.desc.tenant);
}

// ---------------------------------------------------------------------------
// Scheduling & execution
// ---------------------------------------------------------------------------

ScheduleRequest TaskManager::make_request(const std::string& uid,
                                          Active& active) {
  const TaskDescription& desc = active.live->desc;
  ScheduleRequest request;
  request.uid = uid;
  request.cores = desc.cores;
  request.gpus = desc.gpus;
  request.mem_gb = desc.mem_gb;
  request.priority = desc.priority;
  request.tenant = desc.tenant;
  request.input_datasets = stage_in_datasets(desc);
  request.input_bytes = data_.bytes_required(
      request.input_datasets, active.task.pilot().cluster().name());
  const std::uint64_t epoch = active.live->epoch;
  const std::string pilot_uid = active.task.pilot_uid();
  request.granted = [this, uid, epoch, pilot_uid](platform::Slot slot,
                                                  platform::Node* node) {
    on_granted(uid, epoch, pilot_uid, std::move(slot), node);
  };
  return request;
}

void TaskManager::to_scheduling(const std::string& uid) {
  Active* const active = find_live(uid);
  if (active == nullptr) return;
  Live& live = *active->live;
  const std::string& pilot_uid = active->task.pilot_uid();
  // Oversized tasks fail individually; this runs inside an event-loop
  // callback, where a Scheduler::submit throw would abort the run.
  const TaskDescription& desc = live.desc;
  if (!scheduler_.fits_pilot(pilot_uid, desc.cores, desc.gpus,
                             desc.mem_gb)) {
    fail_task(uid, strutil::cat("request (", desc.cores, "c/", desc.gpus,
                                "g) cannot fit any node of pilot ",
                                pilot_uid));
    return;
  }
  set_state(*active, TaskState::scheduling);
  if (runtime_.tracer().enabled() && live.trace_queue == 0) {
    live.trace_queue =
        runtime_.tracer().begin("queue-wait", "queue", uid,
                                runtime_.loop().now(), live.trace_task);
  }
  scheduler_.submit(pilot_uid, make_request(uid, *active));
}

void TaskManager::schedule_batch(Pilot& pilot,
                                 const std::vector<std::string>& uids) {
  std::vector<ScheduleRequest> requests;
  requests.reserve(uids.size());
  for (const auto& uid : uids) {
    Active* const active = find_live(uid);
    if (active == nullptr) continue;
    Live& live = *active->live;
    // Fail oversized tasks individually; Scheduler::submit_all
    // validates the whole batch up front, and one impossible request
    // must not strand its siblings in SCHEDULING.
    const TaskDescription& desc = live.desc;
    if (!scheduler_.fits_pilot(pilot.uid(), desc.cores, desc.gpus,
                               desc.mem_gb)) {
      fail_task(uid, strutil::cat("request (", desc.cores, "c/", desc.gpus,
                                  "g) cannot fit any node of pilot ",
                                  pilot.uid()));
      continue;
    }
    set_state(*active, TaskState::scheduling);
    if (runtime_.tracer().enabled() && live.trace_queue == 0) {
      live.trace_queue = runtime_.tracer().begin(
          "queue-wait", "queue", uid, runtime_.loop().now(), live.trace_task);
    }
    requests.push_back(make_request(uid, *active));
  }
  if (!requests.empty()) {
    scheduler_.submit_all(pilot.uid(), std::move(requests));
  }
}

void TaskManager::on_granted(const std::string& uid, std::uint64_t epoch,
                             const std::string& pilot_uid,
                             platform::Slot slot, platform::Node* node) {
  Active* const active = find_live(uid);
  if (active == nullptr || active->live->epoch != epoch) {
    if (scheduler_.has_pilot(pilot_uid)) scheduler_.release(pilot_uid, slot);
    return;
  }
  if (!node->alive() || slot.incarnation != node->incarnation()) {
    // The node died between placement and this (posted) delivery; the
    // slot died with it. Requeue — the capacity index now excludes the
    // dead node, so the replacement grant lands elsewhere.
    scheduler_.submit(pilot_uid, make_request(uid, *active));
    return;
  }
  Live& live = *active->live;
  live.slot = std::move(slot);
  live.slot_held = true;
  live.node = node;
  set_state(*active, TaskState::scheduled);
  runtime_.tracer().end(live.trace_queue, runtime_.loop().now());
  live.trace_queue = 0;
  if (live.stage_in_pending) return;  // launch once the inputs land
  begin_launch(uid);
}

void TaskManager::begin_launch(const std::string& uid) {
  Active& active = active_for(uid);
  Live& live = *active.live;
  set_state(active, TaskState::launching);
  // The run span covers launch latency plus payload execution.
  if (runtime_.tracer().enabled() && live.trace_run == 0) {
    live.trace_run =
        runtime_.tracer().begin("run", "compute", uid,
                                runtime_.loop().now(), live.trace_task);
  }
  live.ctx = std::make_unique<ExecutionContext>(
      executor_.make_context(uid, live.node->host(), live.desc.payload));
  live.ctx->data = &data_;
  live.ctx->speed_factor = live.node->speed_factor();
  const std::uint64_t epoch = live.epoch;
  executor_.launch(active.task.pilot().cluster(), 0,
                   [this, uid, epoch](sim::Duration) {
                     on_launched(uid, epoch);
                   });
}

void TaskManager::on_launched(const std::string& uid, std::uint64_t epoch) {
  Active* const active = find_live(uid);
  if (active == nullptr || active->live->epoch != epoch) return;
  set_state(*active, TaskState::running);

  Live& live = *active->live;
  live.payload = executor_.payloads().create(live.desc);
  live.payload->run(
      *live.ctx,
      [this, uid, epoch](json::Value result) {
        on_payload_done(uid, epoch, std::move(result), /*from_spec=*/false);
      },
      [this, uid, epoch](const std::string& error) {
        on_payload_failed(uid, epoch, error, /*from_spec=*/false);
      });

  // A payload can fail inside run() (an unknown function), which has
  // already retired the task.
  if (!speculation_.enabled || !active->live) return;
  const sim::Duration wait =
      std::max(speculation_.min_delay,
               live.desc.duration.mean() * speculation_.latency_multiple);
  live.spec_timer = runtime_.loop().call_after(
      wait, [this, uid, epoch] { maybe_speculate(uid, epoch); });
}

void TaskManager::on_payload_failed(const std::string& uid,
                                    std::uint64_t epoch,
                                    const std::string& error,
                                    bool from_spec) {
  Active* const active = find_live(uid);
  if (active == nullptr || active->live->epoch != epoch) return;
  if (from_spec) {
    // The duplicate failed; the primary attempt is still the task.
    cancel_speculation(*active,
                       scheduler_.has_pilot(active->task.pilot_uid()));
    record_recovery(uid, "spec_failed");
    return;
  }
  fail_task(uid, error);
}

void TaskManager::on_payload_done(const std::string& uid,
                                  std::uint64_t epoch, json::Value result,
                                  bool from_spec) {
  Active* const active = find_live(uid);
  if (active == nullptr || active->live->epoch != epoch) return;
  Live& live = *active->live;
  // First finisher wins. Bump the epoch so the loser's uncancellable
  // completion timer drops itself at the guard above.
  ++live.epoch;
  if (from_spec) {
    ++speculation_wins_;
    record_recovery(uid, "spec_win");
    runtime_.counters().add("task.spec_wins");
    runtime_.tracer().instant("spec-win", "task", uid,
                              runtime_.loop().now(), live.trace_task);
    // Promote the duplicate: its slot becomes the task's slot, the
    // straggling primary's slot goes back to the scheduler.
    release_slot(*active);
    live.slot = live.spec_slot;
    live.node = live.spec_node;
    live.slot_held = live.spec_slot_held;
    live.ctx = std::move(live.spec_ctx);
    live.payload = std::move(live.spec_payload);
    live.spec_slot_held = false;
    live.spec_node = nullptr;
    if (live.spec_timer.valid()) {
      runtime_.loop().cancel(live.spec_timer);
      live.spec_timer = {};
    }
    live.spec_queued = false;
  } else {
    cancel_speculation(*active,
                       scheduler_.has_pilot(active->task.pilot_uid()));
  }
  runtime_.tracer().end(live.trace_run, runtime_.loop().now());
  live.trace_run = 0;
  active->task.set_result(std::move(result));
  // The payload has read its inputs: stop pinning them, so a finite
  // store can evict them to make room for this task's own outputs.
  release_input_pins(*active);
  to_staging_out(uid);
}

// ---------------------------------------------------------------------------
// Speculation (straggler mitigation)
// ---------------------------------------------------------------------------

void TaskManager::maybe_speculate(const std::string& uid,
                                  std::uint64_t epoch) {
  Active* const active = find_live(uid);
  if (active == nullptr) return;
  Live& live = *active->live;
  live.spec_timer = {};
  if (live.epoch != epoch) return;
  if (active->task.state() != TaskState::running) return;
  if (live.spec_queued || live.spec_slot_held) return;
  const std::string pilot_uid = active->task.pilot_uid();
  if (!scheduler_.has_pilot(pilot_uid)) return;

  const TaskDescription& desc = live.desc;
  ScheduleRequest request;
  request.uid = uid + "#spec";
  request.cores = desc.cores;
  request.gpus = desc.gpus;
  request.mem_gb = desc.mem_gb;
  request.priority = desc.priority;
  request.tenant = desc.tenant;
  request.granted = [this, uid, epoch, pilot_uid](platform::Slot slot,
                                                   platform::Node* node) {
    on_spec_granted(uid, epoch, pilot_uid, std::move(slot), node);
  };
  scheduler_.submit(pilot_uid, std::move(request));
  live.spec_queued = true;
  record_recovery(uid, "speculate");
  runtime_.counters().add("task.speculations");
  runtime_.tracer().instant("speculate", "task", uid,
                            runtime_.loop().now(), live.trace_task);
}

void TaskManager::on_spec_granted(const std::string& uid,
                                  std::uint64_t epoch,
                                  const std::string& pilot_uid,
                                  platform::Slot slot,
                                  platform::Node* node) {
  const auto give_back = [this, &pilot_uid](const platform::Slot& s) {
    if (scheduler_.has_pilot(pilot_uid)) scheduler_.release(pilot_uid, s);
  };
  Active* const active = find_live(uid);
  if (active == nullptr) {
    give_back(slot);
    return;
  }
  Live& live = *active->live;
  if (live.epoch != epoch || active->task.state() != TaskState::running) {
    give_back(slot);
    live.spec_queued = false;
    return;
  }
  live.spec_queued = false;
  if (!node->alive() || slot.incarnation != node->incarnation()) {
    return;  // the duplicate's node died in flight; drop the attempt
  }
  live.spec_slot = std::move(slot);
  live.spec_node = node;
  live.spec_slot_held = true;
  ++speculations_;
  live.spec_ctx = std::make_unique<ExecutionContext>(executor_.make_context(
      uid + "#spec", node->host(), live.desc.payload));
  live.spec_ctx->data = &data_;
  live.spec_ctx->speed_factor = node->speed_factor();
  executor_.launch(active->task.pilot().cluster(), 0,
                   [this, uid, epoch](sim::Duration) {
                     on_spec_launched(uid, epoch);
                   });
}

void TaskManager::on_spec_launched(const std::string& uid,
                                   std::uint64_t epoch) {
  Active* const active = find_live(uid);
  if (active == nullptr || active->live->epoch != epoch) return;
  Live& live = *active->live;
  if (!live.spec_slot_held || !live.spec_ctx) return;
  live.spec_payload = executor_.payloads().create(live.desc);
  live.spec_payload->run(
      *live.spec_ctx,
      [this, uid, epoch](json::Value result) {
        on_payload_done(uid, epoch, std::move(result), /*from_spec=*/true);
      },
      [this, uid, epoch](const std::string& error) {
        on_payload_failed(uid, epoch, error, /*from_spec=*/true);
      });
}

void TaskManager::cancel_speculation(Active& active, bool pilot_alive) {
  Live& live = *active.live;
  if (live.spec_timer.valid()) {
    runtime_.loop().cancel(live.spec_timer);
    live.spec_timer = {};
  }
  const std::string& pilot_uid = active.task.pilot_uid();
  if (live.spec_queued) {
    if (pilot_alive) scheduler_.cancel(pilot_uid, active.task.uid() + "#spec");
    live.spec_queued = false;
  }
  if (live.spec_slot_held) {
    if (pilot_alive && scheduler_.has_pilot(pilot_uid)) {
      scheduler_.release(pilot_uid, live.spec_slot);
    }
    live.spec_slot_held = false;
  }
  live.spec_payload.reset();
  live.spec_ctx.reset();
  live.spec_node = nullptr;
}

// ---------------------------------------------------------------------------
// Failure handling & re-placement
// ---------------------------------------------------------------------------

void TaskManager::record_recovery(const std::string& uid,
                                  const std::string& event) {
  const std::string line = strutil::cat(
      strutil::format_fixed(runtime_.loop().now(), 6), " ", uid, " ", event);
  recovery_log_.push_back(line);
  recovery_hash_ = common::fnv1a(recovery_hash_, line);
}

void TaskManager::interrupt_task(const std::string& uid,
                                 const std::string& reason,
                                 Pilot* replacement, bool pilot_alive) {
  Active* const active = find_live(uid);
  if (active == nullptr) return;
  Live& live = *active->live;
  // Invalidate every callback of the interrupted attempt (payload
  // completions cannot be cancelled, grants may be posted in flight).
  ++live.epoch;
  close_phase_spans(*active);
  if (live.restart_timer.valid()) {
    runtime_.loop().cancel(live.restart_timer);
    live.restart_timer = {};
  }
  cancel_speculation(*active, pilot_alive);
  const std::string& pilot_uid = active->task.pilot_uid();
  if (active->task.state() == TaskState::scheduling && pilot_alive &&
      scheduler_.has_pilot(pilot_uid)) {
    scheduler_.cancel(pilot_uid, uid);
  }
  if (live.stage_batch) {
    data_.cancel_batch(live.stage_batch);
    live.stage_batch.reset();
  }
  live.stage_in_pending = false;
  release_input_pins(*active);
  if (live.slot_held) {
    // Release before any re-bind: the slot belongs to the old pilot.
    if (pilot_alive && scheduler_.has_pilot(pilot_uid)) {
      scheduler_.release(pilot_uid, live.slot);
    }
    live.slot_held = false;
  }
  live.payload.reset();
  live.ctx.reset();
  live.node = nullptr;
  if (replacement != nullptr) active->task.set_pilot(*replacement);
  if (live.restarts >= restart_policy_.max_restarts) {
    fail_task(uid, strutil::cat(reason, " (restart budget exhausted after ",
                                live.restarts, " restarts)"));
    return;
  }
  ++live.restarts;
  ++restarts_total_;
  double step = restart_policy_.backoff *
                std::pow(restart_policy_.multiplier, live.restarts - 1);
  step = std::min(step, restart_policy_.max_backoff);
  const double delay =
      restart_policy_.jitter ? step * restart_rng_.uniform(0.5, 1.5) : step;
  set_state(*active, TaskState::scheduling);
  record_recovery(uid, strutil::cat("restart", live.restarts, " ", reason));
  runtime_.counters().add("task.restarts");
  // The recovery span covers the backoff wait until re-submission.
  if (runtime_.tracer().enabled()) {
    live.trace_recover = runtime_.tracer().begin(
        "recovery", "recovery", uid, runtime_.loop().now(), live.trace_task,
        {{"reason", reason}});
  }
  const std::uint64_t epoch = live.epoch;
  live.restart_timer = runtime_.loop().call_after(
      delay, [this, uid, epoch] { resume_restart(uid, epoch); });
}

void TaskManager::resume_restart(const std::string& uid,
                                 std::uint64_t epoch) {
  Active* const active = find_live(uid);
  if (active == nullptr || active->live->epoch != epoch) return;
  Live& live = *active->live;
  live.restart_timer = {};
  const TaskDescription& desc = live.desc;
  const std::string& pilot_uid = active->task.pilot_uid();
  if (!scheduler_.has_pilot(pilot_uid) ||
      !scheduler_.fits_pilot(pilot_uid, desc.cores, desc.gpus,
                             desc.mem_gb)) {
    fail_task(uid, strutil::cat("restart: pilot ", pilot_uid,
                                " cannot host the task any more"));
    return;
  }
  runtime_.tracer().end(live.trace_recover, runtime_.loop().now());
  live.trace_recover = 0;
  if (runtime_.tracer().enabled() && live.trace_queue == 0) {
    live.trace_queue =
        runtime_.tracer().begin("queue-wait", "queue", uid,
                                runtime_.loop().now(), live.trace_task);
  }
  // Re-stage inputs: datasets still resident in the pilot's zone land
  // instantly, anything lost with a failed store is re-fetched.
  begin_stage_in(uid, *active);
  scheduler_.submit(pilot_uid, make_request(uid, *active));
}

std::size_t TaskManager::handle_node_failure(const platform::Node& node) {
  std::vector<std::string> snapshot;
  snapshot.reserve(tasks_.size());
  for (const auto& [uid, active] : tasks_) snapshot.push_back(uid);
  std::size_t interrupted = 0;
  for (const auto& uid : snapshot) {
    Active* const active = find_live(uid);
    if (active == nullptr) continue;
    const Live& live = *active->live;
    if (live.spec_node == &node && live.spec_slot_held) {
      cancel_speculation(*active,
                         scheduler_.has_pilot(active->task.pilot_uid()));
      record_recovery(uid, "spec_lost_node");
    }
    if (live.node != &node || !live.slot_held) continue;
    // STAGING_OUTPUT attempts keep their results: outputs are zone-level
    // transfers that survive the node; the stale slot release is a no-op.
    if (active->task.state() == TaskState::staging_output) continue;
    interrupt_task(uid, strutil::cat("node ", node.id(), " failed"),
                   /*replacement=*/nullptr, /*pilot_alive=*/true);
    ++interrupted;
  }
  return interrupted;
}

std::size_t TaskManager::handle_pilot_loss(
    const std::string& pilot_uid, const std::vector<Pilot*>& survivors) {
  std::vector<std::string> snapshot;
  snapshot.reserve(tasks_.size());
  for (const auto& [uid, active] : tasks_) snapshot.push_back(uid);
  std::size_t moved = 0;
  for (const auto& uid : snapshot) {
    Active* const active = find_live(uid);
    if (active == nullptr || active->task.pilot_uid() != pilot_uid) continue;
    const TaskDescription& desc = active->live->desc;
    Pilot* replacement = nullptr;
    for (Pilot* candidate : survivors) {
      if (candidate == nullptr || candidate->uid() == pilot_uid) continue;
      if (scheduler_.has_pilot(candidate->uid()) &&
          scheduler_.fits_pilot(candidate->uid(), desc.cores, desc.gpus,
                                desc.mem_gb)) {
        replacement = candidate;
        break;
      }
    }
    if (replacement == nullptr) {
      fail_task(uid, strutil::cat("pilot ", pilot_uid,
                                  " preempted, no surviving pilot fits"));
      continue;
    }
    const TaskState state = active->task.state();
    if (state == TaskState::created || state == TaskState::waiting ||
        state == TaskState::staging_output) {
      // Not holding pilot resources worth restarting for: just re-bind.
      // (A staging-out attempt's outputs are zone-level and keep going;
      // its slot died with the pilot, so only drop the local handle.)
      active->live->slot_held = false;
      active->task.set_pilot(*replacement);
      record_recovery(uid, strutil::cat("rebind ", replacement->uid()));
      ++moved;
      continue;
    }
    interrupt_task(uid, strutil::cat("pilot ", pilot_uid, " preempted"),
                   replacement, /*pilot_alive=*/false);
    ++moved;
  }
  return moved;
}

// ---------------------------------------------------------------------------
// Staging out & completion
// ---------------------------------------------------------------------------

void TaskManager::to_staging_out(const std::string& uid) {
  Active& active = active_for(uid);
  Live& live = *active.live;
  std::vector<StagingDirective> outputs;
  for (const auto& directive : live.desc.staging) {
    if (directive.action == StagingDirective::Action::stage_out) {
      outputs.push_back(directive);
    }
  }
  if (outputs.empty()) {
    finish(uid);
    return;
  }
  set_state(active, TaskState::staging_output);
  if (runtime_.tracer().enabled() && live.trace_stage == 0) {
    live.trace_stage =
        runtime_.tracer().begin("stage-out", "data", uid,
                                runtime_.loop().now(), live.trace_task);
  }
  const std::string pilot_zone = active.task.pilot().cluster().name();
  // Register products first: a full store rejecting the output is a
  // task failure, not a crash (this runs inside an event-loop callback,
  // where a throw would abort the whole run).
  for (const auto& directive : outputs) {
    if (data_.has(directive.dataset)) continue;
    const double bytes =
        live.desc.payload.get_or("output_bytes", 1e6).as_double();
    try {
      data_.put(directive.dataset, bytes, pilot_zone);
    } catch (const Error& error) {
      fail_task(uid, strutil::cat("stage-out of '", directive.dataset,
                                  "' failed: ", error.what()));
      return;
    }
  }
  // Tracked like stage-in: the first failed output cancels the task's
  // surviving output transfers instead of leaving them running
  // untracked (transfers shared with other callers keep running).
  std::vector<std::pair<std::string, std::string>> targets;
  targets.reserve(outputs.size());
  for (const auto& directive : outputs) {
    targets.emplace_back(directive.dataset, directive.zone.empty()
                                                ? pilot_zone
                                                : directive.zone);
  }
  live.stage_batch = data_.stage_all_tracked(
      targets,
      [this, uid](bool ok, const std::string& failed_dataset) {
        Active* const active = find_live(uid);
        if (active == nullptr) return;
        Live& live = *active->live;
        live.stage_batch.reset();
        if (!ok) {
          fail_task(uid, strutil::cat("stage-out of '", failed_dataset,
                                      "' failed"));
          return;
        }
        runtime_.tracer().end(live.trace_stage, runtime_.loop().now());
        live.trace_stage = 0;
        finish(uid);
      },
      live.desc.tenant);
}

void TaskManager::finish(const std::string& uid) {
  Active* const active = find_live(uid);
  if (active == nullptr) return;
  release_slot(*active);
  release_input_pins(*active);
  close_phase_spans(*active);
  close_task_span(*active, "done");
  runtime_.counters().add("task.done");
  set_state(*active, TaskState::done);
}

void TaskManager::close_phase_spans(Active& active) {
  Live& live = *active.live;
  const double now = runtime_.loop().now();
  auto& tracer = runtime_.tracer();
  tracer.end(live.trace_queue, now);
  tracer.end(live.trace_stage, now);
  tracer.end(live.trace_run, now);
  tracer.end(live.trace_recover, now);
  live.trace_queue = 0;
  live.trace_stage = 0;
  live.trace_run = 0;
  live.trace_recover = 0;
}

void TaskManager::close_task_span(Active& active, const char* state) {
  Live& live = *active.live;
  if (live.trace_task == 0) return;
  runtime_.tracer().arg(live.trace_task, "state", state);
  runtime_.tracer().end(live.trace_task, runtime_.loop().now());
  live.trace_task = 0;
}

void TaskManager::release_slot(Active& active) {
  Live& live = *active.live;
  if (live.slot_held) {
    const std::string& pilot_uid = active.task.pilot_uid();
    if (scheduler_.has_pilot(pilot_uid)) {
      scheduler_.release(pilot_uid, live.slot);
    }
    live.slot_held = false;
  }
}

void TaskManager::release_input_pins(Active& active) {
  Live& live = *active.live;
  for (const auto& name : live.input_pins) {
    // Unpin under the same tenant that pinned — per-tenant pin counts
    // must pair exactly.
    data_.catalog().unpin(name, live.input_pin_zone, live.desc.tenant);
  }
  live.input_pins.clear();
}

void TaskManager::fail_task(const std::string& uid,
                            const std::string& error) {
  Active* const active = find_live(uid);
  if (active == nullptr) return;
  Live& live = *active->live;
  log_.error(uid, ": ", error);
  active->task.set_error(error);
  waiting_.erase(uid);
  if (live.restart_timer.valid()) {
    runtime_.loop().cancel(live.restart_timer);
    live.restart_timer = {};
  }
  const std::string& pilot_uid = active->task.pilot_uid();
  cancel_speculation(*active, scheduler_.has_pilot(pilot_uid));
  if (active->task.state() == TaskState::scheduling &&
      scheduler_.has_pilot(pilot_uid)) {
    // Staging can fail while the request queues (overlapped stage-in);
    // drop the queue entry so the scheduler never grants a dead task.
    scheduler_.cancel(pilot_uid, uid);
  }
  if (live.stage_batch) data_.cancel_batch(live.stage_batch);
  release_slot(*active);
  release_input_pins(*active);
  close_phase_spans(*active);
  close_task_span(*active, "failed");
  runtime_.counters().add("task.failed");
  set_state(*active, TaskState::failed);
}

bool TaskManager::cancel(const std::string& uid) {
  Active& active = active_for(uid);
  const TaskState state = active.task.state();
  if (is_terminal(state)) return false;
  Live& live = *active.live;
  const auto abandon_staging = [this, &live] {
    if (live.stage_batch) data_.cancel_batch(live.stage_batch);
  };
  switch (state) {
    case TaskState::created:
    case TaskState::waiting:
    case TaskState::staging_input:
    case TaskState::scheduling: {
      if (state == TaskState::scheduling) {
        scheduler_.cancel(active.task.pilot_uid(), uid);
      }
      abandon_staging();
      release_input_pins(active);
      waiting_.erase(uid);
      close_phase_spans(active);
      close_task_span(active, "canceled");
      set_state(active, TaskState::canceled);
      return true;
    }
    case TaskState::scheduled: {
      // Launch is imminent unless the task is parked on overlapped
      // stage-in; in that window the slot is reclaimable.
      if (!live.stage_in_pending) return false;
      abandon_staging();
      release_input_pins(active);
      release_slot(active);
      close_phase_spans(active);
      close_task_span(active, "canceled");
      set_state(active, TaskState::canceled);
      return true;
    }
    default: return false;
  }
}

}  // namespace ripple::core
