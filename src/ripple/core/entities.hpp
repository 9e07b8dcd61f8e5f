#pragma once

/// \file entities.hpp
/// Stateful runtime entities: Pilot, Task, Service.
///
/// Entities are owned by their managers; user code refers to them by uid
/// and reads them through const accessors. State changes go through
/// set_state(), which validates the transition and keeps the first time
/// the entity entered each state in a fixed array indexed by state (no
/// allocation per transition). The full history, re-entries included,
/// lives in the metrics Timeline.

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "ripple/core/descriptions.hpp"
#include "ripple/core/states.hpp"
#include "ripple/platform/node.hpp"

namespace ripple::platform {
class Cluster;
}

namespace ripple::core {

/// First time an entity entered each state of its machine, indexed by
/// state; -1 when never. `Last` is the machine's last enumerator.
/// Times are non-negative sim times, so -1 marks an unvisited state.
template <typename State, State Last>
class StateTimes {
 public:
  StateTimes() noexcept { times_.fill(-1.0); }

  /// Records `now` unless `state` was entered before.
  void enter(State state, double now) noexcept {
    double& first = times_[index(state)];
    if (first < 0.0) first = now;
  }

  [[nodiscard]] double operator[](State state) const noexcept {
    return times_[index(state)];
  }

 private:
  static constexpr std::size_t index(State state) noexcept {
    return static_cast<std::size_t>(state);
  }

  std::array<double, index(Last) + 1> times_;
};

/// Bootstrap-time decomposition of one service instance (Fig. 3).
struct BootstrapTiming {
  double launch = -1.0;
  double init = -1.0;
  double publish = -1.0;

  [[nodiscard]] bool complete() const noexcept {
    return launch >= 0 && init >= 0 && publish >= 0;
  }
  [[nodiscard]] double total() const noexcept {
    return launch + init + publish;
  }
};

class Pilot {
 public:
  Pilot(std::string uid, PilotDescription desc, platform::Cluster* cluster);

  [[nodiscard]] const std::string& uid() const noexcept { return uid_; }
  [[nodiscard]] const PilotDescription& description() const noexcept {
    return desc_;
  }
  [[nodiscard]] PilotState state() const noexcept { return state_; }
  [[nodiscard]] platform::Cluster& cluster() const noexcept {
    return *cluster_;
  }
  [[nodiscard]] const std::vector<platform::Node*>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::vector<platform::Node*>& nodes() noexcept {
    return nodes_;
  }

  /// Validates and applies a state transition; records `now`.
  void set_state(PilotState next, double now);

  [[nodiscard]] double state_time(PilotState state) const;

 private:
  std::string uid_;
  PilotDescription desc_;
  platform::Cluster* cluster_;
  std::vector<platform::Node*> nodes_;
  PilotState state_ = PilotState::created;
  StateTimes<PilotState, PilotState::canceled> timestamps_;
};

/// A task's durable record: what stays once the task is finished. The
/// TaskManager keeps the description, slot and attempt state beside it
/// while the task is live and frees them at DONE, FAILED or CANCELED;
/// this record, and references to it, last as long as the manager.
class Task {
 public:
  Task(std::string uid, const Pilot& pilot);

  [[nodiscard]] const std::string& uid() const noexcept { return uid_; }
  [[nodiscard]] TaskState state() const noexcept { return state_; }

  void set_state(TaskState next, double now);

  /// First time this task entered `state`; -1 when never.
  [[nodiscard]] double state_time(TaskState state) const;

  /// Time between first entries of two visited states.
  [[nodiscard]] double duration(TaskState from, TaskState to) const;

  /// The pilot the task is bound to (the last one, after a re-bind).
  [[nodiscard]] const Pilot& pilot() const noexcept { return *pilot_; }
  [[nodiscard]] const std::string& pilot_uid() const noexcept {
    return pilot_->uid();
  }
  void set_pilot(const Pilot& pilot) noexcept { pilot_ = &pilot; }

  [[nodiscard]] const json::Value& result() const noexcept { return result_; }
  void set_result(json::Value result) { result_ = std::move(result); }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  void set_error(std::string error) { error_ = std::move(error); }

 private:
  std::string uid_;
  const Pilot* pilot_;
  TaskState state_ = TaskState::created;
  StateTimes<TaskState, TaskState::canceled> timestamps_;
  json::Value result_;
  std::string error_;
};

class Service {
 public:
  Service(std::string uid, ServiceDescription desc);

  [[nodiscard]] const std::string& uid() const noexcept { return uid_; }
  [[nodiscard]] const ServiceDescription& description() const noexcept {
    return desc_;
  }
  [[nodiscard]] ServiceState state() const noexcept { return state_; }

  void set_state(ServiceState next, double now);

  [[nodiscard]] double state_time(ServiceState state) const;
  [[nodiscard]] double duration(ServiceState from, ServiceState to) const;

  /// RPC address clients use once RUNNING ("svc.000002").
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }
  void set_endpoint(std::string endpoint) { endpoint_ = std::move(endpoint); }

  [[nodiscard]] const std::string& pilot_uid() const noexcept {
    return pilot_uid_;
  }
  void set_pilot_uid(std::string uid) { pilot_uid_ = std::move(uid); }

  [[nodiscard]] const platform::Slot& slot() const noexcept { return slot_; }
  void set_slot(platform::Slot slot) { slot_ = std::move(slot); }

  [[nodiscard]] bool remote() const noexcept { return remote_; }
  void set_remote(bool remote) { remote_ = remote; }

  [[nodiscard]] const BootstrapTiming& bootstrap() const noexcept {
    return bootstrap_;
  }
  [[nodiscard]] BootstrapTiming& bootstrap() noexcept { return bootstrap_; }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  void set_error(std::string error) { error_ = std::move(error); }

  [[nodiscard]] double last_heartbeat() const noexcept {
    return last_heartbeat_;
  }
  void set_last_heartbeat(double t) noexcept { last_heartbeat_ = t; }

  [[nodiscard]] int restarts() const noexcept { return restarts_; }
  void count_restart() noexcept { ++restarts_; }

 private:
  std::string uid_;
  ServiceDescription desc_;
  ServiceState state_ = ServiceState::created;
  StateTimes<ServiceState, ServiceState::canceled> timestamps_;
  std::string endpoint_;
  std::string pilot_uid_;
  platform::Slot slot_;
  bool remote_ = false;
  BootstrapTiming bootstrap_;
  std::string error_;
  double last_heartbeat_ = -1.0;
  int restarts_ = 0;
};

}  // namespace ripple::core
