#include "ripple/common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::json {

const char* to_string(Type type) noexcept {
  switch (type) {
    case Type::null: return "null";
    case Type::boolean: return "boolean";
    case Type::integer: return "integer";
    case Type::real: return "real";
    case Type::string: return "string";
    case Type::array: return "array";
    case Type::object: return "object";
  }
  return "?";
}

Value Value::object(
    std::initializer_list<std::pair<const std::string, Value>> items) {
  Object out;
  for (const auto& [key, value] : items) out.emplace(key, value);
  return Value(std::move(out));
}

Value Value::array(std::initializer_list<Value> items) {
  return Value(Array(items));
}

Type Value::type() const noexcept {
  return static_cast<Type>(data_.index());
}

namespace {
[[noreturn]] void type_mismatch(Type actual, const char* wanted) {
  raise(Errc::invalid_state, "json value is ", to_string(actual), ", wanted ",
        wanted);
}
}  // namespace

bool Value::as_bool() const {
  if (const auto* b = std::get_if<bool>(&data_)) return *b;
  type_mismatch(type(), "boolean");
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const auto* d = std::get_if<double>(&data_)) {
    return static_cast<std::int64_t>(*d);
  }
  type_mismatch(type(), "number");
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  type_mismatch(type(), "number");
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  type_mismatch(type(), "string");
}

const Array& Value::as_array() const {
  if (const auto* a = std::get_if<Array>(&data_)) return *a;
  type_mismatch(type(), "array");
}

Array& Value::as_array() {
  if (auto* a = std::get_if<Array>(&data_)) return *a;
  type_mismatch(type(), "array");
}

const Object& Value::as_object() const {
  if (const auto* o = std::get_if<Object>(&data_)) return *o;
  type_mismatch(type(), "object");
}

Object& Value::as_object() {
  if (auto* o = std::get_if<Object>(&data_)) return *o;
  type_mismatch(type(), "object");
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = Object{};
  return as_object()[key];
}

const Value& Value::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    raise(Errc::not_found, "json object has no member '", key, "'");
  }
  return it->second;
}

const Value& Value::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) {
    raise(Errc::not_found, "json array index ", index, " out of range (size ",
          arr.size(), ")");
  }
  return arr[index];
}

bool Value::contains(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().count(key) != 0;
}

Value Value::get_or(const std::string& key, Value fallback) const {
  if (!is_object()) return fallback;
  const auto& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? fallback : it->second;
}

std::size_t Value::size() const noexcept {
  if (const auto* a = std::get_if<Array>(&data_)) return a->size();
  if (const auto* o = std::get_if<Object>(&data_)) return o->size();
  return 0;
}

void Value::push_back(Value element) {
  if (is_null()) data_ = Array{};
  as_array().push_back(std::move(element));
}

void Value::set(const std::string& key, Value element) {
  if (is_null()) data_ = Object{};
  as_object()[key] = std::move(element);
}

bool Value::operator==(const Value& other) const {
  // Numeric values compare by magnitude across integer/real representations.
  if (is_number() && other.is_number()) {
    if (is_int() && other.is_int()) return as_int() == other.as_int();
    return as_double() == other.as_double();
  }
  return data_ == other.data_;
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string render_double(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";  // strict JSON
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  // Keep a decimal marker so the value round-trips as a real.
  std::string s(buf);
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

}  // namespace

void Value::dump_impl(std::string& out, int indent, int depth) const {
  const auto newline = [&](int level) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * level, ' ');
  };
  switch (type()) {
    case Type::null: out += "null"; return;
    case Type::boolean: out += (as_bool() ? "true" : "false"); return;
    case Type::integer: out += std::to_string(as_int()); return;
    case Type::real: out += render_double(std::get<double>(data_)); return;
    case Type::string:
      out += '"';
      out += escape(as_string());
      out += '"';
      return;
    case Type::array: {
      const auto& arr = as_array();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out += indent > 0 ? "," : ",";
        newline(depth + 1);
        arr[i].dump_impl(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      return;
    }
    case Type::object: {
      const auto& obj = as_object();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        out += '"';
        out += escape(key);
        out += "\":";
        if (indent > 0) out += ' ';
        value.dump_impl(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

std::size_t Value::estimate_size() const noexcept {
  switch (type()) {
    case Type::null: return 4;
    case Type::boolean: return 5;
    case Type::integer: return 12;
    case Type::real: return 16;
    case Type::string: return 2 + std::get<std::string>(data_).size();
    case Type::array: {
      std::size_t n = 2;
      for (const auto& v : std::get<Array>(data_)) n += v.estimate_size() + 1;
      return n;
    }
    case Type::object: {
      std::size_t n = 2;
      for (const auto& [k, v] : std::get<Object>(data_)) {
        n += k.size() + 4 + v.estimate_size();
      }
      return n;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over a string_view with line/column tracking.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse() {
    skip_whitespace();
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    raise(Errc::parse_error, "json: ", message, " at line ", line, " column ",
          column);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (peek() != c) fail(strutil::cat("expected '", c, "'"));
    ++pos_;
  }

  void skip_whitespace() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object out;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      out[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = advance();
      if (c == '}') return Value(std::move(out));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Array out;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_whitespace();
      out.push_back(parse_value());
      skip_whitespace();
      const char c = advance();
      if (c == ']') return Value(std::move(out));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = advance();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = advance();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = advance();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("invalid \\u escape");
              }
            }
            // Encode the code point as UTF-8 (basic multilingual plane only;
            // surrogate pairs are passed through as two encoded values).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
  }

  Value parse_bool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return Value(true);
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return Value(false);
    }
    fail("invalid literal");
  }

  Value parse_null() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return Value(nullptr);
    }
    fail("invalid literal");
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool is_real = false;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("invalid number");
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (!eof() && text_[pos_] == '.') {
      is_real = true;
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid number: missing fraction digits");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (!eof() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_real = true;
      ++pos_;
      if (!eof() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid number: missing exponent digits");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (is_real) {
      return Value(std::strtod(token.c_str(), nullptr));
    }
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (errno == ERANGE) {
      // Fall back to a real for integers beyond 64-bit range.
      return Value(std::strtod(token.c_str(), nullptr));
    }
    return Value(static_cast<std::int64_t>(v));
  }
};

}  // namespace

Value Value::parse(std::string_view text) {
  Parser parser(text);
  return parser.parse();
}

}  // namespace ripple::json
