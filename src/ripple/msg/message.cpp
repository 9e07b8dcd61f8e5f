#include "ripple/msg/message.hpp"

#include "ripple/common/error.hpp"

namespace ripple::msg {

const char* to_string(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::request: return "request";
    case MessageKind::reply: return "reply";
    case MessageKind::event: return "event";
  }
  return "?";
}

json::Value Timestamps::to_json() const {
  json::Value out = json::Value::object();
  out.set("sent", sent);
  out.set("received", received);
  out.set("compute_start", compute_start);
  out.set("compute_end", compute_end);
  out.set("reply_sent", reply_sent);
  out.set("reply_received", reply_received);
  return out;
}

Timestamps Timestamps::from_json(const json::Value& v) {
  Timestamps ts;
  ts.sent = v.get_or("sent", -1.0).as_double();
  ts.received = v.get_or("received", -1.0).as_double();
  ts.compute_start = v.get_or("compute_start", -1.0).as_double();
  ts.compute_end = v.get_or("compute_end", -1.0).as_double();
  ts.reply_sent = v.get_or("reply_sent", -1.0).as_double();
  ts.reply_received = v.get_or("reply_received", -1.0).as_double();
  return ts;
}

RequestTiming RequestTiming::from(const Timestamps& ts) {
  ensure(ts.sent >= 0 && ts.received >= 0 && ts.compute_start >= 0 &&
             ts.compute_end >= 0 && ts.reply_sent >= 0 &&
             ts.reply_received >= 0,
         Errc::invalid_state,
         "request timing requires all six timestamps to be set");
  RequestTiming t;
  t.communication =
      (ts.received - ts.sent) + (ts.reply_received - ts.reply_sent);
  t.service =
      (ts.compute_start - ts.received) + (ts.reply_sent - ts.compute_end);
  t.inference = ts.compute_end - ts.compute_start;
  t.total = ts.reply_received - ts.sent;
  return t;
}

std::size_t Message::wire_size() const noexcept {
  // Envelope overhead approximates the framing ZeroMQ + JSON would add.
  constexpr std::size_t kEnvelope = 96;
  return kEnvelope + method.size() + sender.size() + target.size() +
         corr_id.size() + error.size() + payload.estimate_size();
}

Message Message::request(std::string uid, std::string method, Address sender,
                         Address target, json::Value payload) {
  Message m;
  m.uid = std::move(uid);
  m.kind = MessageKind::request;
  m.method = std::move(method);
  m.sender = std::move(sender);
  m.target = std::move(target);
  m.payload = std::move(payload);
  return m;
}

Message Message::reply_to(std::string uid, const Message& req,
                          json::Value payload) {
  Message m;
  m.uid = std::move(uid);
  m.kind = MessageKind::reply;
  m.method = req.method;
  m.sender = req.target;
  m.target = req.sender;
  m.corr_id = req.uid;
  m.payload = std::move(payload);
  m.ts = req.ts;  // carry accumulated stamps back to the client
  return m;
}

Message Message::fail_reply_to(std::string uid, const Message& req,
                               std::string error) {
  Message m = reply_to(std::move(uid), req, json::Value::object());
  m.ok = false;
  m.error = std::move(error);
  return m;
}

}  // namespace ripple::msg
