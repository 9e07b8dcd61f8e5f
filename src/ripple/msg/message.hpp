#pragma once

/// \file message.hpp
/// The message envelope exchanged between tasks (clients) and services.
///
/// Every request/reply pair carries a Timestamps record which the router
/// and servers fill in as the message moves through the system. The
/// decomposition of the paper's Response Time metric (communication /
/// service / inference — Figs. 4-6) is computed from exactly these
/// stamps, so their meaning is documented precisely here.

#include <cstddef>
#include <string>

#include "ripple/common/json.hpp"

namespace ripple::msg {

/// Network-wide endpoint address, e.g. "svc.000002" or "client.000017".
using Address = std::string;

enum class MessageKind { request, reply, event };

[[nodiscard]] const char* to_string(MessageKind kind) noexcept;

/// Wall-clock (simulation-time) stamps along a request's life cycle.
/// Unset stamps are -1.
struct Timestamps {
  double sent = -1.0;            ///< request left the client
  double received = -1.0;        ///< request arrived at the service host
  double compute_start = -1.0;   ///< payload execution (inference) began
  double compute_end = -1.0;     ///< payload execution finished
  double reply_sent = -1.0;      ///< reply left the service
  double reply_received = -1.0;  ///< reply arrived back at the client

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static Timestamps from_json(const json::Value& v);
};

/// Derived per-request timing decomposition (seconds), the unit of the
/// paper's Figs. 4-6 stacked bars.
struct RequestTiming {
  double communication = 0.0;  ///< both network flight legs
  double service = 0.0;        ///< queueing + parse + serialize at the service
  double inference = 0.0;      ///< model compute (0 for NOOP)
  double total = 0.0;          ///< end-to-end response time

  /// Builds the decomposition from a completed request's stamps.
  /// Throws invalid_state if any required stamp is missing.
  [[nodiscard]] static RequestTiming from(const Timestamps& ts);
};

struct Message {
  std::string uid;            ///< Router-issued id ("msg.000042")
  MessageKind kind = MessageKind::request;
  std::string method;         ///< RPC method (request) or topic (event)
  Address sender;             ///< reply-to address
  Address target;             ///< destination address
  std::string corr_id;        ///< request uid this reply answers
  bool ok = true;             ///< reply status
  std::string error;          ///< reply error text when !ok
  json::Value payload;        ///< method arguments or reply body
  Timestamps ts;

  /// Estimated serialized size, used by the network bandwidth model.
  [[nodiscard]] std::size_t wire_size() const noexcept;

  /// `uid` comes from Router::next_uid(): message ids are scoped to
  /// one Router, so same-seed sessions in one process send the same
  /// bytes (a reply's wire size counts its correlation id).
  [[nodiscard]] static Message request(std::string uid, std::string method,
                                       Address sender, Address target,
                                       json::Value payload);

  /// Builds the reply skeleton for `req`: swapped addresses, copied
  /// correlation id and accumulated timestamps.
  [[nodiscard]] static Message reply_to(std::string uid, const Message& req,
                                        json::Value payload);

  /// Builds an error reply for `req`.
  [[nodiscard]] static Message fail_reply_to(std::string uid,
                                             const Message& req,
                                             std::string error);
};

}  // namespace ripple::msg
