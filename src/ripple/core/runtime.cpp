#include "ripple/core/runtime.hpp"

namespace ripple::core {

Runtime::Runtime(std::uint64_t seed)
    : seed_(seed),
      rng_(seed),
      network_(loop_, rng_.fork("network")),
      router_(loop_, network_),
      pubsub_(loop_) {}

common::Logger Runtime::make_logger(const std::string& name) {
  return common::Logger(name, [this] { return loop_.now(); });
}

void Runtime::publish_state(std::string_view kind, const std::string& uid,
                            std::string_view state) {
  timeline_.record(metrics::TransitionRecord{uid, kind, state, loop_.now()});
}

void Runtime::register_endpoint(const std::string& name,
                                const std::string& endpoint) {
  endpoint_directory_[name].insert(endpoint);
}

void Runtime::deregister_endpoint(const std::string& name,
                                  const std::string& endpoint) {
  const auto it = endpoint_directory_.find(name);
  if (it == endpoint_directory_.end()) return;
  it->second.erase(endpoint);
  if (it->second.empty()) endpoint_directory_.erase(it);
}

std::vector<std::string> Runtime::endpoints_of(
    const std::string& name) const {
  const auto it = endpoint_directory_.find(name);
  if (it == endpoint_directory_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

}  // namespace ripple::core
