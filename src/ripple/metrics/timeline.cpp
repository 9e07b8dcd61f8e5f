#include "ripple/metrics/timeline.hpp"

#include <algorithm>
#include <set>

#include "ripple/common/error.hpp"

namespace ripple::metrics {

void Timeline::record(TransitionRecord record) {
  const auto index = static_cast<std::uint32_t>(records_.size());
  const auto [it, inserted] = latest_.try_emplace(record.entity, index);
  previous_.push_back(inserted ? kNone : it->second);
  it->second = index;
  records_.push_back(std::move(record));
}

template <typename Visit>
void Timeline::for_each_entry(const std::string& entity,
                              const std::string& state, Visit visit) const {
  const auto it = latest_.find(entity);
  if (it == latest_.end()) return;
  for (std::uint32_t i = it->second; i != kNone; i = previous_[i]) {
    if (records_[i].state == state && !visit(records_[i])) return;
  }
}

double Timeline::state_time(const std::string& entity,
                            const std::string& state) const {
  double first = -1.0;
  for_each_entry(entity, state, [&](const TransitionRecord& record) {
    first = record.time;
    return true;
  });
  return first;
}

std::vector<double> Timeline::state_times(const std::string& entity,
                                          const std::string& state) const {
  std::vector<double> times;
  for_each_entry(entity, state, [&](const TransitionRecord& record) {
    times.push_back(record.time);
    return true;
  });
  std::reverse(times.begin(), times.end());
  return times;
}

double Timeline::last_state_time(const std::string& entity,
                                 const std::string& state) const {
  double last = -1.0;
  for_each_entry(entity, state, [&](const TransitionRecord& record) {
    last = record.time;
    return false;
  });
  return last;
}

std::size_t Timeline::entry_count(const std::string& entity,
                                  const std::string& state) const {
  std::size_t n = 0;
  for_each_entry(entity, state, [&](const TransitionRecord&) {
    ++n;
    return true;
  });
  return n;
}

double Timeline::duration(const std::string& entity, const std::string& from,
                          const std::string& to) const {
  const double t_from = state_time(entity, from);
  const double t_to = state_time(entity, to);
  ensure(t_from >= 0.0, Errc::not_found, entity, " never entered state ", from);
  ensure(t_to >= 0.0, Errc::not_found, entity, " never entered state ", to);
  return t_to - t_from;
}

std::size_t Timeline::count(const std::string& kind,
                            const std::string& state) const {
  std::set<std::string> seen;
  for (const auto& record : records_) {
    if (record.kind == kind && record.state == state) {
      seen.insert(record.entity);
    }
  }
  return seen.size();
}

std::vector<std::string> Timeline::entities_in(const std::string& kind,
                                               const std::string& state) const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& record : records_) {
    if (record.kind == kind && record.state == state &&
        seen.insert(record.entity).second) {
      out.push_back(record.entity);
    }
  }
  return out;
}

void Timeline::clear() {
  records_.clear();
  previous_.clear();
  latest_.clear();
}

}  // namespace ripple::metrics
