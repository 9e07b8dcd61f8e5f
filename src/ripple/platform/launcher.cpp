#include "ripple/platform/launcher.hpp"

#include <algorithm>
#include <cmath>

#include "ripple/common/error.hpp"

namespace ripple::platform {

const char* to_string(LaunchMethod method) noexcept {
  switch (method) {
    case LaunchMethod::fork: return "fork";
    case LaunchMethod::ssh: return "ssh";
    case LaunchMethod::mpiexec: return "mpiexec";
    case LaunchMethod::prrte: return "prrte";
  }
  return "?";
}

LaunchMethod launch_method_from_string(const std::string& name) {
  if (name == "fork") return LaunchMethod::fork;
  if (name == "ssh") return LaunchMethod::ssh;
  if (name == "mpiexec") return LaunchMethod::mpiexec;
  if (name == "prrte") return LaunchMethod::prrte;
  raise(Errc::parse_error, "unknown launch method '", name, "'");
}

namespace {

double contention_extra(const LaunchModel& model, std::size_t concurrency) {
  if (concurrency <= model.contention_threshold ||
      model.contention_coeff <= 0.0) {
    return 0.0;
  }
  const double excess =
      static_cast<double>(concurrency - model.contention_threshold);
  return model.contention_coeff *
         std::pow(excess, model.contention_exponent);
}

}  // namespace

sim::Duration LaunchModel::sample(common::Rng& rng,
                                  std::size_t concurrency) const {
  return base.sample(rng) + contention_extra(*this, concurrency);
}

double LaunchModel::mean(std::size_t concurrency) const {
  return base.mean() + contention_extra(*this, concurrency);
}

Launcher::Launcher(sim::EventLoop& loop, common::Rng rng, LaunchModel model)
    : loop_(loop), rng_(rng), model_(model) {}

void Launcher::launch(Callback done, std::size_t concurrency_hint) {
  ensure(static_cast<bool>(done), Errc::invalid_argument,
         "launch: empty callback");
  ++in_flight_;
  const std::size_t concurrency = std::max(in_flight_, concurrency_hint);
  const sim::Duration duration = model_.sample(rng_, concurrency);
  loop_.call_after(duration, [this, duration, done = std::move(done)] {
    --in_flight_;
    ++completed_;
    done(duration);
  });
}

}  // namespace ripple::platform
