#include "ripple/metrics/timeline.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"

namespace ripple::metrics {

std::string_view Timeline::intern_name(std::string_view name) {
  auto it = names_.find(name);
  if (it == names_.end()) it = names_.emplace(name).first;
  return *it;
}

void Timeline::record(const TransitionRecord& record) {
  const auto index = static_cast<std::uint32_t>(records_.size());
  auto it = latest_.find(record.entity);
  if (it == latest_.end()) {
    it = latest_.emplace(std::string(record.entity), kNone).first;
  }
  previous_.push_back(it->second);
  it->second = index;
  records_.push_back(TransitionRecord{it->first, intern_name(record.kind),
                                      intern_name(record.state), record.time});
}

template <typename Visit>
void Timeline::for_each_entry(std::string_view entity, std::string_view state,
                              Visit visit) const {
  const auto it = latest_.find(entity);
  if (it == latest_.end()) return;
  for (std::uint32_t i = it->second; i != kNone; i = previous_[i]) {
    if (records_[i].state == state && !visit(records_[i])) return;
  }
}

template <typename Visit>
void Timeline::for_each_first(std::string_view kind, std::string_view state,
                              Visit visit) const {
  // Interned uids are unique, so an entity is identified by its text's
  // address.
  std::unordered_set<const char*> seen;
  for (const auto& record : records_) {
    if (record.kind == kind && record.state == state &&
        seen.insert(record.entity.data()).second) {
      visit(record.entity);
    }
  }
}

double Timeline::state_time(std::string_view entity,
                            std::string_view state) const {
  double first = -1.0;
  for_each_entry(entity, state, [&](const TransitionRecord& record) {
    first = record.time;
    return true;
  });
  return first;
}

std::vector<double> Timeline::state_times(std::string_view entity,
                                          std::string_view state) const {
  std::vector<double> times;
  for_each_entry(entity, state, [&](const TransitionRecord& record) {
    times.push_back(record.time);
    return true;
  });
  std::reverse(times.begin(), times.end());
  return times;
}

double Timeline::last_state_time(std::string_view entity,
                                 std::string_view state) const {
  double last = -1.0;
  for_each_entry(entity, state, [&](const TransitionRecord& record) {
    last = record.time;
    return false;
  });
  return last;
}

std::size_t Timeline::entry_count(std::string_view entity,
                                  std::string_view state) const {
  std::size_t n = 0;
  for_each_entry(entity, state, [&](const TransitionRecord&) {
    ++n;
    return true;
  });
  return n;
}

double Timeline::duration(std::string_view entity, std::string_view from,
                          std::string_view to) const {
  const double t_from = state_time(entity, from);
  const double t_to = state_time(entity, to);
  ensure(t_from >= 0.0, Errc::not_found, entity, " never entered state ", from);
  ensure(t_to >= 0.0, Errc::not_found, entity, " never entered state ", to);
  return t_to - t_from;
}

std::size_t Timeline::count(std::string_view kind,
                            std::string_view state) const {
  std::size_t n = 0;
  for_each_first(kind, state, [&](std::string_view) { ++n; });
  return n;
}

std::vector<std::string> Timeline::entities_in(std::string_view kind,
                                               std::string_view state) const {
  std::vector<std::string> out;
  for_each_first(kind, state,
                 [&](std::string_view entity) { out.emplace_back(entity); });
  return out;
}

void Timeline::clear() {
  // Fresh containers, not clear(): clear() keeps a deque's block map
  // and a hash table's buckets, which grow with the records dropped.
  records_ = Records();
  previous_ = std::deque<std::uint32_t>();
  latest_ = decltype(latest_)();
  names_ = decltype(names_)();
}

}  // namespace ripple::metrics
