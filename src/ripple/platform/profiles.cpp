#include "ripple/platform/profiles.hpp"

#include "ripple/common/error.hpp"

namespace ripple::platform {

json::Value PlatformProfile::to_json() const {
  json::Value out = json::Value::object();
  out.set("name", name);
  out.set("node", node.to_json());
  out.set("max_nodes", max_nodes);
  out.set("internode_latency", internode_latency.to_json());
  out.set("internode_bandwidth_bytes_per_s", internode_bandwidth_bytes_per_s);
  out.set("launch_method", to_string(launch.method));
  out.set("launch_base", launch.base.to_json());
  out.set("launch_contention_threshold", launch.contention_threshold);
  out.set("launch_contention_coeff", launch.contention_coeff);
  out.set("endpoint_publish", endpoint_publish.to_json());
  return out;
}

PlatformProfile frontier_profile(std::size_t nodes) {
  PlatformProfile p;
  p.name = "frontier";
  p.node = NodeSpec{64, 8, 512.0};
  p.max_nodes = nodes;
  // Slingshot-class fabric.
  p.internode_latency = common::Distribution::normal(2.0e-6, 0.4e-6, 0.5e-6);
  p.internode_bandwidth_bytes_per_s = 25e9;
  // PRRTE/MPI launch: ~2 s base, contention elbow past 160 concurrent
  // instances (paper section IV-B attributes the growth to MPI startup).
  p.launch.method = LaunchMethod::prrte;
  p.launch.base = common::Distribution::lognormal(2.0, 0.18, 0.2);
  p.launch.contention_threshold = 160;
  p.launch.contention_coeff = 0.016;
  p.launch.contention_exponent = 1.0;
  p.endpoint_publish = common::Distribution::lognormal(0.18, 0.30, 1e-3);
  // Lustre under many concurrent model loads slows down mildly.
  p.fs_contention_coeff = 0.0006;
  p.fs_contention_threshold = 64;
  p.wan_latency = common::Distribution::normal(18e-3, 2e-3, 1e-4);
  return p;
}

PlatformProfile delta_profile(std::size_t nodes) {
  PlatformProfile p;
  p.name = "delta";
  p.node = NodeSpec{64, 4, 256.0};
  p.max_nodes = nodes;
  // Paper section IV-C: inter-node latency 0.063 ms +/- 0.014 ms.
  p.internode_latency = common::Distribution::normal(63e-6, 14e-6, 5e-6);
  p.internode_bandwidth_bytes_per_s = 12.5e9;
  p.launch.method = LaunchMethod::mpiexec;
  p.launch.base = common::Distribution::lognormal(1.6, 0.20, 0.2);
  p.launch.contention_threshold = 160;
  p.launch.contention_coeff = 0.02;
  p.endpoint_publish = common::Distribution::lognormal(0.15, 0.25, 1e-3);
  p.fs_contention_coeff = 0.001;
  p.fs_contention_threshold = 32;
  // Paper section IV-C: Delta <-> R3 node-to-node 0.47 ms +/- 0.04 ms.
  p.wan_latency = common::Distribution::normal(0.47e-3, 0.04e-3, 1e-5);
  p.wan_bandwidth_bytes_per_s = 1.25e9;
  return p;
}

PlatformProfile r3_profile(std::size_t nodes) {
  PlatformProfile p;
  p.name = "r3";
  p.node = NodeSpec{48, 8, 384.0};
  p.max_nodes = nodes;
  p.internode_latency = common::Distribution::normal(80e-6, 20e-6, 5e-6);
  p.internode_bandwidth_bytes_per_s = 3.125e9;  // 25 Gb/s cloud fabric
  p.launch.method = LaunchMethod::ssh;
  p.launch.base = common::Distribution::lognormal(1.2, 0.25, 0.2);
  p.launch.contention_threshold = 64;
  p.launch.contention_coeff = 0.05;
  p.endpoint_publish = common::Distribution::lognormal(0.12, 0.25, 1e-3);
  p.wan_latency = common::Distribution::normal(0.47e-3, 0.04e-3, 1e-5);
  p.wan_bandwidth_bytes_per_s = 1.25e9;
  return p;
}

PlatformProfile profile_by_name(const std::string& name, std::size_t nodes) {
  if (name == "frontier") {
    return nodes ? frontier_profile(nodes) : frontier_profile();
  }
  if (name == "delta") return nodes ? delta_profile(nodes) : delta_profile();
  if (name == "r3") return nodes ? r3_profile(nodes) : r3_profile();
  raise(Errc::not_found, "unknown platform profile '", name, "'");
}

}  // namespace ripple::platform
