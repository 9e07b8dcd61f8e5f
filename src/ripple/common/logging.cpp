#include "ripple/common/logging.hpp"

#include <cstdio>
#include <fstream>

#include "ripple/common/json.hpp"

namespace ripple::common {

const char* to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::trace: return "TRACE";
    case LogLevel::debug: return "DEBUG";
    case LogLevel::info: return "INFO";
    case LogLevel::warn: return "WARN";
    case LogLevel::error: return "ERROR";
    case LogLevel::off: return "OFF";
  }
  return "?";
}

void StderrSink::write(const LogRecord& record) {
  std::lock_guard lock(mutex_);
  if (record.time >= 0.0) {
    std::fprintf(stderr, "[%12.6f] %-5s %s: %s\n", record.time,
                 to_string(record.level), record.logger.c_str(),
                 record.message.c_str());
  } else {
    std::fprintf(stderr, "%-5s %s: %s\n", to_string(record.level),
                 record.logger.c_str(), record.message.c_str());
  }
}

JsonLinesSink::JsonLinesSink(std::string path) : path_(std::move(path)) {}

void JsonLinesSink::write(const LogRecord& record) {
  json::Value line = json::Value::object();
  line.set("time", record.time);
  line.set("level", to_string(record.level));
  line.set("logger", record.logger);
  line.set("message", record.message);
  std::string text = line.dump();
  std::lock_guard lock(mutex_);
  if (!path_.empty()) {
    std::ofstream out(path_, std::ios::app);
    if (out.good()) out << text << "\n";
  }
  lines_.push_back(std::move(text));
}

std::vector<std::string> JsonLinesSink::lines() const {
  std::lock_guard lock(mutex_);
  return lines_;
}

std::size_t JsonLinesSink::size() const {
  std::lock_guard lock(mutex_);
  return lines_.size();
}

void JsonLinesSink::clear() {
  std::lock_guard lock(mutex_);
  lines_.clear();
}

void MemorySink::write(const LogRecord& record) {
  std::lock_guard lock(mutex_);
  records_.push_back(record);
}

std::vector<LogRecord> MemorySink::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

std::size_t MemorySink::count(LogLevel level) const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.level == level) ++n;
  }
  return n;
}

void MemorySink::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
}

LogConfig::LogConfig() : sink_(std::make_shared<StderrSink>()) {}

LogConfig& LogConfig::global() {
  static LogConfig instance;
  return instance;
}

void LogConfig::set_level(LogLevel level) {
  std::lock_guard lock(mutex_);
  level_ = level;
}

LogLevel LogConfig::level() const {
  std::lock_guard lock(mutex_);
  return level_;
}

void LogConfig::set_sink(std::shared_ptr<LogSink> sink) {
  std::lock_guard lock(mutex_);
  sink_ = sink ? std::move(sink) : std::make_shared<StderrSink>();
}

std::shared_ptr<LogSink> LogConfig::sink() const {
  std::lock_guard lock(mutex_);
  return sink_;
}

Logger::Logger(std::string name, ClockFn clock)
    : name_(std::move(name)), clock_(std::move(clock)) {}

void Logger::write(LogLevel level, std::string message) const {
  LogRecord record;
  record.level = level;
  record.logger = name_;
  record.time = clock_ ? clock_() : -1.0;
  record.message = std::move(message);
  LogConfig::global().sink()->write(record);
}

}  // namespace ripple::common
