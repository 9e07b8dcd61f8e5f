#pragma once

/// \file router.hpp
/// Address-based message routing over the network model.
///
/// The Router plays the role ZeroMQ plays in the paper's implementation:
/// endpoints bind an address on a host; send() looks up the target,
/// samples the link delay between the two hosts and schedules the
/// handler at arrival time. It also centralizes the `sent`/`received`
/// (and `reply_sent`/`reply_received`) timestamping so the RT metric is
/// computed identically everywhere.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "ripple/msg/message.hpp"
#include "ripple/sim/event_loop.hpp"
#include "ripple/sim/network.hpp"

namespace ripple::msg {

class Router {
 public:
  using Handler = std::function<void(Message)>;

  Router(sim::EventLoop& loop, sim::Network& network);

  /// Binds `address` on `host`; incoming messages invoke `handler`.
  /// Rebinding an existing address replaces its handler (service restart).
  void bind(const Address& address, const sim::HostId& host, Handler handler);

  /// Removes a binding; unknown addresses are ignored.
  void unbind(const Address& address);

  [[nodiscard]] bool bound(const Address& address) const;

  /// The next message uid, "msg.000000" onwards, counted per Router.
  [[nodiscard]] std::string next_uid();

  /// Host on which `address` is bound; throws not_found when unbound.
  [[nodiscard]] const sim::HostId& host_of(const Address& address) const;

  /// Sends `message` from `from_host`. Stamps ts.sent / ts.reply_sent,
  /// samples the link delay and schedules delivery. Returns false (and
  /// counts a drop) when the target is not bound.
  bool send(const sim::HostId& from_host, Message message);

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] sim::Network& network() noexcept { return network_; }

 private:
  struct Binding {
    sim::HostId host;
    Handler handler;
  };

  sim::EventLoop& loop_;
  sim::Network& network_;
  std::unordered_map<Address, Binding> bindings_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t uids_issued_ = 0;
};

}  // namespace ripple::msg
