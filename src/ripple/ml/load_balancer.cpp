#include "ripple/ml/load_balancer.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"

namespace ripple::ml {

LoadBalancer::LoadBalancer(std::vector<std::string> endpoints)
    : endpoints_(std::move(endpoints)) {
  ensure(!endpoints_.empty(), Errc::invalid_argument,
         "load balancer needs at least one endpoint");
}

std::size_t LoadBalancer::index_of(const std::string& endpoint) const {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (endpoints_[i] == endpoint) return i;
  }
  return endpoints_.size();
}

bool LoadBalancer::has_endpoint(const std::string& endpoint) const {
  return index_of(endpoint) < endpoints_.size();
}

bool LoadBalancer::add_endpoint(const std::string& endpoint) {
  ensure(!endpoint.empty(), Errc::invalid_argument,
         "add_endpoint: empty endpoint");
  if (has_endpoint(endpoint)) return false;
  endpoints_.push_back(endpoint);
  endpoint_added(endpoints_.size() - 1);
  return true;
}

bool LoadBalancer::remove_endpoint(const std::string& endpoint) {
  const std::size_t index = index_of(endpoint);
  if (index >= endpoints_.size()) return false;
  endpoints_.erase(endpoints_.begin() +
                   static_cast<std::ptrdiff_t>(index));
  endpoint_removed(index, endpoint);
  return true;
}

RoundRobinBalancer::RoundRobinBalancer(std::vector<std::string> endpoints)
    : LoadBalancer(std::move(endpoints)) {}

const std::string& RoundRobinBalancer::pick() {
  ensure(!endpoints_.empty(), Errc::invalid_state,
         "round_robin pick: no endpoints");
  if (next_ >= endpoints_.size()) next_ = 0;
  const std::string& chosen = endpoints_[next_];
  next_ = (next_ + 1) % endpoints_.size();
  return chosen;
}

void RoundRobinBalancer::endpoint_removed(std::size_t index,
                                          const std::string&) {
  // Keep the cursor on the endpoint it was about to serve.
  if (index < next_) --next_;
  if (!endpoints_.empty()) next_ %= endpoints_.size();
}

RandomBalancer::RandomBalancer(std::vector<std::string> endpoints,
                               common::Rng rng)
    : LoadBalancer(std::move(endpoints)), rng_(rng) {}

const std::string& RandomBalancer::pick() {
  ensure(!endpoints_.empty(), Errc::invalid_state,
         "random pick: no endpoints");
  const auto index = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(endpoints_.size()) - 1));
  return endpoints_[index];
}

LeastOutstandingBalancer::LeastOutstandingBalancer(
    std::vector<std::string> endpoints)
    : LoadBalancer(std::move(endpoints)), in_flight_(endpoints_.size(), 0) {}

const std::string& LeastOutstandingBalancer::pick() {
  ensure(!endpoints_.empty(), Errc::invalid_state,
         "least_outstanding pick: no endpoints");
  std::size_t best = 0;
  std::size_t best_load = in_flight_[0];
  // Rotate the starting index so equal-load endpoints share work.
  if (tie_break_ >= endpoints_.size()) tie_break_ = 0;
  for (std::size_t step = 0; step < endpoints_.size(); ++step) {
    const std::size_t i = (tie_break_ + step) % endpoints_.size();
    if (step == 0 || in_flight_[i] < best_load) {
      best = i;
      best_load = in_flight_[i];
    }
  }
  tie_break_ = (tie_break_ + 1) % endpoints_.size();
  ++in_flight_[best];
  return endpoints_[best];
}

void LeastOutstandingBalancer::on_complete(const std::string& endpoint) {
  const std::size_t index = index_of(endpoint);
  if (index < endpoints_.size()) {
    if (in_flight_[index] > 0) --in_flight_[index];
    return;
  }
  // A completion for a removed endpoint: settle it against the draining
  // ledger so not a single in-flight request is ever lost track of.
  const auto it = draining_.find(endpoint);
  if (it != draining_.end() && --it->second == 0) draining_.erase(it);
}

std::size_t LeastOutstandingBalancer::outstanding(
    const std::string& endpoint) const {
  const std::size_t index = index_of(endpoint);
  if (index < endpoints_.size()) return in_flight_[index];
  const auto it = draining_.find(endpoint);
  return it == draining_.end() ? 0 : it->second;
}

std::size_t LeastOutstandingBalancer::draining_total() const noexcept {
  std::size_t total = 0;
  for (const auto& [endpoint, count] : draining_) total += count;
  return total;
}

void LeastOutstandingBalancer::endpoint_added(std::size_t index) {
  // A returning endpoint resumes with the load it still carries.
  std::size_t carried = 0;
  const auto it = draining_.find(endpoints_[index]);
  if (it != draining_.end()) {
    carried = it->second;
    draining_.erase(it);
  }
  in_flight_.push_back(carried);
}

void LeastOutstandingBalancer::endpoint_removed(
    std::size_t index, const std::string& endpoint) {
  const std::size_t carried = in_flight_[index];
  in_flight_.erase(in_flight_.begin() +
                   static_cast<std::ptrdiff_t>(index));
  if (carried > 0) draining_[endpoint] += carried;
}

std::unique_ptr<LoadBalancer> make_balancer(const std::string& policy,
                                            std::vector<std::string> endpoints,
                                            common::Rng rng) {
  if (policy == "round_robin") {
    return std::make_unique<RoundRobinBalancer>(std::move(endpoints));
  }
  if (policy == "random") {
    return std::make_unique<RandomBalancer>(std::move(endpoints), rng);
  }
  if (policy == "least_outstanding") {
    return std::make_unique<LeastOutstandingBalancer>(std::move(endpoints));
  }
  raise(Errc::not_found, "unknown load-balancing policy '", policy, "'");
}

}  // namespace ripple::ml
