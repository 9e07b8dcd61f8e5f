#include "ripple/ml/model.hpp"

#include <algorithm>
#include <cmath>

#include "ripple/common/error.hpp"

namespace ripple::ml {

sim::Duration ModelSpec::sample_inference(common::Rng& rng) const {
  const double tokens = std::max(0.0, tokens_out.sample(rng));
  return inference_floor_s + tokens * per_token_s;
}

sim::Duration ModelSpec::sample_init(common::Rng& rng,
                                     std::size_t concurrent_loads,
                                     double fs_coeff,
                                     std::size_t fs_threshold) const {
  double duration = init.sample(rng);
  if (fs_coeff > 0.0 && concurrent_loads > fs_threshold) {
    const double excess =
        static_cast<double>(concurrent_loads - fs_threshold);
    duration *= 1.0 + fs_coeff * excess;
  }
  return duration;
}

double ModelSpec::mean_inference() const {
  return inference_floor_s + tokens_out.mean() * per_token_s;
}

double ModelSpec::step_factor(std::size_t batch_size) const {
  if (batch_size <= 1) return 1.0;
  return 1.0 + batch_cost_slope * static_cast<double>(batch_size - 1);
}

double ModelSpec::sequence_work(double tokens) const {
  return inference_floor_s + std::max(0.0, tokens) * per_token_s;
}

sim::Duration ModelSpec::batch_duration(
    const std::vector<double>& tokens) const {
  if (tokens.empty()) return 0.0;
  double max_tokens = 0.0;
  for (const double t : tokens) max_tokens = std::max(max_tokens, t);
  return inference_floor_s +
         max_tokens * per_token_s * step_factor(tokens.size());
}

double ModelSpec::mean_batch_duration(std::size_t batch_size) const {
  if (batch_size == 0) return 0.0;
  return inference_floor_s +
         tokens_out.mean() * per_token_s * step_factor(batch_size);
}

ModelSpec noop_model() {
  ModelSpec m;
  m.name = "noop";
  // The NOOP "model" replies immediately (paper section IV-C); only a
  // tiny parse/serialize cost remains, which is what makes the
  // `service` component visible but small in Figs. 4-5.
  m.init = common::Distribution::constant(0.05);
  m.parse = common::Distribution::lognormal(18e-6, 0.25, 2e-6);
  m.serialize = common::Distribution::lognormal(8e-6, 0.25, 1e-6);
  m.tokens_out = common::Distribution::constant(0.0);
  m.per_token_s = 0.0;
  m.inference_floor_s = 1e-6;  // executing `noop` and forming the reply
  m.batch_cost_slope = 0.0;    // nothing to batch
  return m;
}

ModelSpec llama_8b_model() {
  ModelSpec m;
  m.name = "llama-8b";
  m.params_b = 8.0;
  m.mem_gb = 16.0;
  // Loading ~16 GB of weights from the shared FS plus runtime warm-up:
  // tens of seconds, dominating bootstrap (Fig. 3 `init`).
  m.init = common::Distribution::lognormal(32.0, 0.10, 12.0);
  m.parse = common::Distribution::lognormal(250e-6, 0.30, 20e-6);
  m.serialize = common::Distribution::lognormal(120e-6, 0.30, 10e-6);
  // ~120-token answers at ~35 ms/token on an A100-class GPU: seconds
  // per inference, which is why IT dominates RT in Fig. 6.
  m.tokens_out = common::Distribution::lognormal(120.0, 0.35, 8.0);
  m.per_token_s = 0.035;
  m.inference_floor_s = 0.12;
  m.batch_cost_slope = 0.10;  // A100-class GPUs batch decode well
  return m;
}

ModelSpec llama_70b_model() {
  ModelSpec m;
  m.name = "llama-70b";
  m.params_b = 70.0;
  m.mem_gb = 140.0;
  m.init = common::Distribution::lognormal(210.0, 0.12, 90.0);
  m.parse = common::Distribution::lognormal(300e-6, 0.30, 20e-6);
  m.serialize = common::Distribution::lognormal(150e-6, 0.30, 10e-6);
  m.tokens_out = common::Distribution::lognormal(140.0, 0.35, 8.0);
  m.per_token_s = 0.22;
  m.inference_floor_s = 0.5;
  m.batch_cost_slope = 0.18;  // memory-bound: batching pays less
  return m;
}

ModelSpec mistral_7b_model() {
  ModelSpec m;
  m.name = "mistral-7b";
  m.params_b = 7.0;
  m.mem_gb = 14.0;
  m.init = common::Distribution::lognormal(28.0, 0.10, 10.0);
  m.parse = common::Distribution::lognormal(230e-6, 0.30, 20e-6);
  m.serialize = common::Distribution::lognormal(110e-6, 0.30, 10e-6);
  m.tokens_out = common::Distribution::lognormal(110.0, 0.35, 8.0);
  m.per_token_s = 0.031;
  m.inference_floor_s = 0.11;
  m.batch_cost_slope = 0.10;
  return m;
}

ModelSpec vit_base_model() {
  ModelSpec m;
  m.name = "vit-base";
  m.params_b = 0.086;
  m.mem_gb = 2.0;
  m.init = common::Distribution::lognormal(6.0, 0.15, 2.0);
  m.parse = common::Distribution::lognormal(150e-6, 0.30, 10e-6);
  m.serialize = common::Distribution::lognormal(60e-6, 0.30, 5e-6);
  // Image classification: fixed-cost forward pass, no token generation.
  m.tokens_out = common::Distribution::constant(1.0);
  m.per_token_s = 0.0;
  m.inference_floor_s = 0.018;
  m.batch_cost_slope = 0.05;  // fixed-cost forward passes batch near-perfectly
  return m;
}

ModelRegistry::ModelRegistry() {
  add(noop_model());
  add(llama_8b_model());
  add(llama_70b_model());
  add(mistral_7b_model());
  add(vit_base_model());
}

void ModelRegistry::add(ModelSpec spec) {
  ensure(!spec.name.empty(), Errc::invalid_argument,
         "model spec needs a name");
  for (auto& existing : specs_) {
    if (existing.name == spec.name) {
      existing = std::move(spec);
      return;
    }
  }
  specs_.push_back(std::move(spec));
}

bool ModelRegistry::has(const std::string& name) const {
  return std::any_of(specs_.begin(), specs_.end(),
                     [&](const ModelSpec& m) { return m.name == name; });
}

const ModelSpec& ModelRegistry::get(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return spec;
  }
  raise(Errc::not_found, "unknown model '", name, "'");
}

std::vector<std::string> ModelRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) out.push_back(spec.name);
  return out;
}

ModelRegistry& ModelRegistry::global() {
  static ModelRegistry instance;
  return instance;
}

}  // namespace ripple::ml
