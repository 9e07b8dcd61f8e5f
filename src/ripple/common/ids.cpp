#include "ripple/common/ids.hpp"

#include "ripple/common/strutil.hpp"

namespace ripple::common {

std::string IdGenerator::next(const std::string& prefix) {
  std::lock_guard lock(mutex_);
  const std::uint64_t n = counters_[prefix]++;
  return prefix + "." + strutil::zero_pad(n, 6);
}

std::uint64_t IdGenerator::count(const std::string& prefix) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(prefix);
  return it == counters_.end() ? 0 : it->second;
}

void IdGenerator::reset() {
  std::lock_guard lock(mutex_);
  counters_.clear();
}

}  // namespace ripple::common
