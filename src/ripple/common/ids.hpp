#pragma once

/// \file ids.hpp
/// Entity UID generation, mirroring RADICAL-Pilot's `prefix.000042` scheme.
///
/// UIDs are strings so that logs, metrics and JSON payloads stay readable.
/// Each Runtime owns a generator that hands out monotonically increasing
/// counters per prefix, so uids are scoped to one session.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ripple::common {

/// Thread-safe per-prefix counter, producing uids like "task.000007".
class IdGenerator {
 public:
  /// Returns the next uid for `prefix` (e.g. "task" -> "task.000000").
  [[nodiscard]] std::string next(const std::string& prefix);

  /// Number of uids handed out so far for `prefix`.
  [[nodiscard]] std::uint64_t count(const std::string& prefix) const;

  /// Resets all counters. Intended for test fixtures only.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::uint64_t> counters_;
};

}  // namespace ripple::common
