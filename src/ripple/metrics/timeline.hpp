#pragma once

/// \file timeline.hpp
/// State-transition timeline, appended to directly by the runtime.
///
/// Mirrors RADICAL-Analytics: every entity (pilot, task, service)
/// reports timestamped state transitions through
/// core::Runtime::publish_state, which appends a typed record here at
/// the moment of the transition; the Timeline records every
/// time each entity entered each state and answers duration queries
/// such as "time from LAUNCHING to RUNNING of service X". Entities may
/// re-enter a state (a task restarted after a node crash runs twice);
/// state_time() keeps its historical first-entry semantics while
/// state_times()/last_state_time()/entry_count() expose the full
/// history.
///
/// Records are indexed by entity: each one links to its entity's
/// previous record, so appending costs one hash lookup and the
/// per-entity queries walk only that entity's history.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace ripple::metrics {

struct TransitionRecord {
  std::string entity;  ///< uid
  std::string kind;    ///< "task" | "service" | "pilot"
  std::string state;
  double time = 0.0;
};

class Timeline {
 public:
  /// Appends a transition.
  void record(TransitionRecord record);

  [[nodiscard]] const std::vector<TransitionRecord>& records() const noexcept {
    return records_;
  }

  /// First time `entity` entered `state`; -1 when never.
  [[nodiscard]] double state_time(const std::string& entity,
                                  const std::string& state) const;

  /// Every time `entity` entered `state`, in record order; empty when
  /// never. Restarted/speculated tasks enter RUNNING more than once.
  [[nodiscard]] std::vector<double> state_times(
      const std::string& entity, const std::string& state) const;

  /// Most recent time `entity` entered `state`; -1 when never.
  [[nodiscard]] double last_state_time(const std::string& entity,
                                       const std::string& state) const;

  /// How many times `entity` entered `state`.
  [[nodiscard]] std::size_t entry_count(const std::string& entity,
                                        const std::string& state) const;

  /// state_time(to) - state_time(from); throws when either is missing.
  [[nodiscard]] double duration(const std::string& entity,
                                const std::string& from,
                                const std::string& to) const;

  /// Number of distinct entities of `kind` that ever entered `state`.
  [[nodiscard]] std::size_t count(const std::string& kind,
                                  const std::string& state) const;

  /// All uids of `kind` that entered `state`, in first-entry order.
  [[nodiscard]] std::vector<std::string> entities_in(
      const std::string& kind, const std::string& state) const;

  void clear();

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Calls `visit(record)` for each of `entity`'s records in `state`,
  /// newest first, until it returns false.
  template <typename Visit>
  void for_each_entry(const std::string& entity, const std::string& state,
                      Visit visit) const;

  std::vector<TransitionRecord> records_;
  /// Per record: index of the same entity's previous record, or kNone.
  std::vector<std::uint32_t> previous_;
  /// entity -> index of its latest record
  std::unordered_map<std::string, std::uint32_t> latest_;
};

}  // namespace ripple::metrics
