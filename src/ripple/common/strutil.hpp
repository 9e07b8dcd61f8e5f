#pragma once

/// \file strutil.hpp
/// Small string helpers shared across Ripple (no external dependencies).

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ripple::strutil {

namespace detail {

/// Appends `value` as `os << value` writes it on a default stream:
/// general format, 6 significant digits.
void append_general(std::string& out, double value);

template <typename T>
void append_part(std::string& out, const T& part) {
  using D = std::remove_cvref_t<T>;
  if constexpr (std::is_same_v<D, std::string> ||
                std::is_same_v<D, std::string_view> ||
                std::is_same_v<std::decay_t<T>, const char*> ||
                std::is_same_v<std::decay_t<T>, char*>) {
    out.append(part);
  } else if constexpr (std::is_same_v<D, bool>) {
    out.push_back(part ? '1' : '0');
  } else if constexpr (std::is_same_v<D, char> ||
                       std::is_same_v<D, signed char> ||
                       std::is_same_v<D, unsigned char>) {
    out.push_back(static_cast<char>(part));
  } else if constexpr (std::is_integral_v<D>) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof buf, part).ptr;
    out.append(buf, end);
  } else if constexpr (std::is_same_v<D, float> ||
                       std::is_same_v<D, double>) {
    append_general(out, static_cast<double>(part));
  } else {
    std::ostringstream os;
    os << part;
    out.append(os.str());
  }
}

}  // namespace detail

/// Concatenates all arguments, each written exactly as `operator<<` on
/// a default std::ostream writes it. Strings, chars, bools and numbers
/// are appended directly (numbers through std::to_chars); any other
/// type, long double included, goes through its operator<<. The building block for log and
/// error messages (GCC 12 lacks std::format).
template <typename... Args>
[[nodiscard]] std::string cat(const Args&... args) {
  std::string out;
  (detail::append_part(out, args), ...);
  return out;
}

/// Splits `text` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string trim(std::string_view text);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// Lowercases ASCII characters only.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Left-pads `text` with spaces to at least `width` characters.
[[nodiscard]] std::string pad_left(std::string_view text, std::size_t width);

/// Right-pads `text` with spaces to at least `width` characters.
[[nodiscard]] std::string pad_right(std::string_view text, std::size_t width);

/// Formats a duration in seconds with an adaptive unit (ns/us/ms/s/min/h).
[[nodiscard]] std::string format_duration(double seconds);

/// Formats a byte count with binary units (B/KiB/MiB/GiB/TiB).
[[nodiscard]] std::string format_bytes(double bytes);

/// Fixed-precision decimal formatting (std::to_string has fixed 6 digits).
[[nodiscard]] std::string format_fixed(double value, int precision);

/// Streams as format_duration(seconds) and format_fixed(value, precision)
/// do, but only when written, so an ensure() or log part that passes or
/// is filtered formats nothing.
struct Duration {
  double seconds;
};
struct Fixed {
  double value;
  int precision;
};
std::ostream& operator<<(std::ostream& os, Duration duration);
std::ostream& operator<<(std::ostream& os, Fixed fixed);

/// Zero-padded decimal rendering of `value` at `width` digits.
[[nodiscard]] std::string zero_pad(std::uint64_t value, int width);

}  // namespace ripple::strutil
