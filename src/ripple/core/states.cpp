#include "ripple/core/states.hpp"

#include <ostream>

namespace ripple::core {

const char* to_string(TaskState state) noexcept {
  switch (state) {
    case TaskState::created: return "CREATED";
    case TaskState::waiting: return "WAITING";
    case TaskState::staging_input: return "STAGING_INPUT";
    case TaskState::scheduling: return "SCHEDULING";
    case TaskState::scheduled: return "SCHEDULED";
    case TaskState::launching: return "LAUNCHING";
    case TaskState::running: return "RUNNING";
    case TaskState::staging_output: return "STAGING_OUTPUT";
    case TaskState::done: return "DONE";
    case TaskState::failed: return "FAILED";
    case TaskState::canceled: return "CANCELED";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, TaskState state) {
  return os << to_string(state);
}

const char* to_string(ServiceState state) noexcept {
  switch (state) {
    case ServiceState::created: return "CREATED";
    case ServiceState::scheduling: return "SCHEDULING";
    case ServiceState::scheduled: return "SCHEDULED";
    case ServiceState::launching: return "LAUNCHING";
    case ServiceState::initializing: return "INITIALIZING";
    case ServiceState::publishing: return "PUBLISHING";
    case ServiceState::running: return "RUNNING";
    case ServiceState::draining: return "DRAINING";
    case ServiceState::stopped: return "STOPPED";
    case ServiceState::failed: return "FAILED";
    case ServiceState::canceled: return "CANCELED";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, ServiceState state) {
  return os << to_string(state);
}

const char* to_string(PilotState state) noexcept {
  switch (state) {
    case PilotState::created: return "CREATED";
    case PilotState::active: return "ACTIVE";
    case PilotState::done: return "DONE";
    case PilotState::failed: return "FAILED";
    case PilotState::canceled: return "CANCELED";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, PilotState state) {
  return os << to_string(state);
}

bool is_terminal(TaskState state) noexcept {
  return state == TaskState::done || state == TaskState::failed ||
         state == TaskState::canceled;
}

bool is_terminal(ServiceState state) noexcept {
  return state == ServiceState::stopped || state == ServiceState::failed ||
         state == ServiceState::canceled;
}

bool is_terminal(PilotState state) noexcept {
  return state == PilotState::done || state == PilotState::failed ||
         state == PilotState::canceled;
}

bool transition_allowed(TaskState from, TaskState to) noexcept {
  // Re-placement path: a task interrupted by a node crash or pilot
  // preemption re-enters the scheduling queue when the restart policy
  // allows it (enforced by TaskManager). Inputs stay staged; outputs
  // of the lost attempt are discarded.
  if (to == TaskState::scheduling &&
      (from == TaskState::scheduling || from == TaskState::scheduled ||
       from == TaskState::launching || from == TaskState::running)) {
    return true;
  }
  if (is_terminal(from)) return false;
  if (to == TaskState::failed || to == TaskState::canceled) return true;
  switch (from) {
    case TaskState::created:
      return to == TaskState::waiting || to == TaskState::staging_input ||
             to == TaskState::scheduling;
    case TaskState::waiting:
      return to == TaskState::staging_input || to == TaskState::scheduling;
    case TaskState::staging_input: return to == TaskState::scheduling;
    case TaskState::scheduling: return to == TaskState::scheduled;
    case TaskState::scheduled: return to == TaskState::launching;
    case TaskState::launching: return to == TaskState::running;
    case TaskState::running:
      return to == TaskState::staging_output || to == TaskState::done;
    case TaskState::staging_output: return to == TaskState::done;
    default: return false;
  }
}

bool transition_allowed(ServiceState from, ServiceState to) noexcept {
  // Restart path: a failed service may re-enter the bootstrap pipeline
  // when its description allows restarts (enforced by ServiceManager).
  if (from == ServiceState::failed && to == ServiceState::scheduling) {
    return true;
  }
  if (is_terminal(from)) return false;
  if (to == ServiceState::failed || to == ServiceState::canceled) return true;
  switch (from) {
    case ServiceState::created:
      // Remote persistent services enter running directly.
      return to == ServiceState::scheduling || to == ServiceState::running;
    case ServiceState::scheduling: return to == ServiceState::scheduled;
    case ServiceState::scheduled: return to == ServiceState::launching;
    case ServiceState::launching: return to == ServiceState::initializing;
    case ServiceState::initializing: return to == ServiceState::publishing;
    case ServiceState::publishing: return to == ServiceState::running;
    case ServiceState::running:
      return to == ServiceState::draining || to == ServiceState::stopped;
    case ServiceState::draining: return to == ServiceState::stopped;
    default: return false;
  }
}

bool transition_allowed(PilotState from, PilotState to) noexcept {
  if (is_terminal(from)) return false;
  if (to == PilotState::failed || to == PilotState::canceled) return true;
  switch (from) {
    case PilotState::created: return to == PilotState::active;
    case PilotState::active: return to == PilotState::done;
    default: return false;
  }
}

}  // namespace ripple::core
