#include "gauge.hpp"

#include "probe.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kKeys = 4096;
constexpr std::size_t kLookups = 2048;
/// Enough for the keys and lookups in one block.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;
/// Samples the constructor takes and drops.
constexpr int kWarmupSamples = 8;

std::string key_of(std::uint64_t index) {
  return "task.gauge.entity." + std::to_string(index * 7919 % 100003);
}

}  // namespace

HostGauge::HostGauge()
    : memory_(kBlockBytes),
      keys_(&memory_),
      lookups_(&memory_) {
  for (std::size_t i = 0; i < kKeys; ++i) keys_.emplace(key_of(i), i);
  lookups_.reserve(kLookups);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < kLookups; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    lookups_.emplace_back(key_of((state >> 33) % kKeys));
  }
  for (int i = 0; i < kWarmupSamples; ++i) sample();
}

std::uint64_t HostGauge::pass() {
  std::uint64_t sum = 0;
  for (const auto& key : lookups_) sum += keys_.find(key)->second;
  return sum;
}

double HostGauge::sample() {
  sink_ += pass();
  const auto start = Clock::now();
  sink_ += pass();
  return seconds_since(start);
}

}  // namespace perfbench
