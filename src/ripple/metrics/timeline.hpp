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
/// The journal is compact: a record is three string views and a time
/// (56 bytes). The views point into text the Timeline owns: each entity
/// uid is stored once, as the key of the per-entity index, and each
/// kind and state name once, in a small name table. Records live in a
/// std::deque, so an append never relocates or copies earlier records
/// and a record's address is stable until clear(). Each record links to
/// its entity's previous record, so appending costs one hash lookup on
/// the entity plus two on the (few) names, and the per-entity queries
/// walk only that entity's history.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ripple::metrics {

/// One transition. In a record the Timeline holds, the views point into
/// the Timeline's own storage and stay valid until clear(); a record
/// passed to Timeline::record() needs its views valid only for the call.
struct TransitionRecord {
  std::string_view entity;  ///< uid
  std::string_view kind;    ///< "task" | "service" | "pilot"
  std::string_view state;
  double time = 0.0;
};

class Timeline {
 public:
  using Records = std::deque<TransitionRecord>;

  /// Appends a transition, copying any text not yet interned.
  void record(const TransitionRecord& record);

  [[nodiscard]] const Records& records() const noexcept { return records_; }

  /// First time `entity` entered `state`; -1 when never.
  [[nodiscard]] double state_time(std::string_view entity,
                                  std::string_view state) const;

  /// Every time `entity` entered `state`, in record order; empty when
  /// never. Restarted/speculated tasks enter RUNNING more than once.
  [[nodiscard]] std::vector<double> state_times(std::string_view entity,
                                                std::string_view state) const;

  /// Most recent time `entity` entered `state`; -1 when never.
  [[nodiscard]] double last_state_time(std::string_view entity,
                                       std::string_view state) const;

  /// How many times `entity` entered `state`.
  [[nodiscard]] std::size_t entry_count(std::string_view entity,
                                        std::string_view state) const;

  /// state_time(to) - state_time(from); throws when either is missing.
  [[nodiscard]] double duration(std::string_view entity,
                                std::string_view from,
                                std::string_view to) const;

  /// Number of distinct entities of `kind` that ever entered `state`.
  [[nodiscard]] std::size_t count(std::string_view kind,
                                  std::string_view state) const;

  /// All uids of `kind` that entered `state`, in first-entry order.
  [[nodiscard]] std::vector<std::string> entities_in(
      std::string_view kind, std::string_view state) const;

  void clear();

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Lets the tables below be searched by string_view without building
  /// a std::string.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const noexcept {
      return std::hash<std::string_view>{}(text);
    }
  };

  /// The stored copy of a kind or state name.
  std::string_view intern_name(std::string_view name);

  /// Calls `visit(record)` for each of `entity`'s records in `state`,
  /// newest first, until it returns false.
  template <typename Visit>
  void for_each_entry(std::string_view entity, std::string_view state,
                      Visit visit) const;

  /// Calls `visit(entity)` once per distinct entity of `kind` that
  /// entered `state`, in first-entry order.
  template <typename Visit>
  void for_each_first(std::string_view kind, std::string_view state,
                      Visit visit) const;

  Records records_;
  /// Per record: index of the same entity's previous record, or kNone.
  std::deque<std::uint32_t> previous_;
  /// entity uid -> index of its latest record. Its nodes never move, so
  /// the key is the text every record of that entity points at.
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>>
      latest_;
  /// Kind and state names, stored once each.
  std::unordered_set<std::string, Hash, std::equal_to<>> names_;
};

}  // namespace ripple::metrics
