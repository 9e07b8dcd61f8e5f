#include "ripple/common/config.hpp"

#include <fstream>
#include <sstream>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::common {

Config::Config(json::Value root) : root_(std::move(root)) {
  ensure(root_.is_object(), Errc::invalid_argument,
         "config root must be a JSON object");
}

Config Config::from_string(const std::string& text) {
  return Config(json::Value::parse(text));
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) raise(Errc::io_error, "cannot open '", path, "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_string(buffer.str());
}

const json::Value* Config::find(const std::string& path) const {
  const json::Value* node = &root_;
  for (const auto& part : strutil::split(path, '.')) {
    if (!node->is_object() || !node->contains(part)) return nullptr;
    node = &node->at(part);
  }
  return node;
}

double Config::get_double(const std::string& path, double fallback) const {
  const auto* v = find(path);
  return (v != nullptr && v->is_number()) ? v->as_double() : fallback;
}

std::int64_t Config::get_int(const std::string& path,
                             std::int64_t fallback) const {
  const auto* v = find(path);
  return (v != nullptr && v->is_number()) ? v->as_int() : fallback;
}

bool Config::get_bool(const std::string& path, bool fallback) const {
  const auto* v = find(path);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string Config::get_string(const std::string& path,
                               const std::string& fallback) const {
  const auto* v = find(path);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

void Config::set(const std::string& path, json::Value value) {
  const auto parts = strutil::split(path, '.');
  ensure(!parts.empty() && !parts.front().empty(), Errc::invalid_argument,
         "config path must not be empty");
  json::Value* node = &root_;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    json::Value& child = (*node)[parts[i]];
    if (!child.is_object()) child = json::Value::object();
    node = &child;
  }
  (*node)[parts.back()] = std::move(value);
}

namespace {

void deep_merge(json::Value& base, const json::Value& overlay) {
  if (!base.is_object() || !overlay.is_object()) {
    base = overlay;
    return;
  }
  for (const auto& [key, value] : overlay.as_object()) {
    if (base.contains(key) && base.at(key).is_object() && value.is_object()) {
      deep_merge(base[key], value);
    } else {
      base[key] = value;
    }
  }
}

}  // namespace

void Config::merge(const Config& overlay) { deep_merge(root_, overlay.root()); }

}  // namespace ripple::common
