// json.hpp — the one JSON reader, plus the two writer helpers.
//
// Every JSON document the library and tools read goes through parse_json:
// fuzz reproducers, sweep meta.json/sweep.json, obs metrics snapshots and
// the BENCH_*.json floors.  The parser is strict RFC 8259 (no trailing commas,
// no comments, no bare inf/nan, no leading '+') with a bounded nesting depth,
// because corpus and BENCH files are input from outside the program.
//
// Numbers are kept as their literal text and converted on access with
// std::from_chars, so a 64-bit integer reads back exactly (never through a
// double) and a value that does not fit the requested type is rejected.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sssw::util {

/// Deepest array/object nesting parse_json accepts.
inline constexpr std::size_t kJsonMaxDepth = 64;

/// One parsed JSON value; read-only.  Objects keep their members in
/// document order.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const noexcept { return kind_; }

  /// Member `key` of an object (the first, if repeated); a null value when
  /// the key is absent or this is not an object, so lookups chain.
  const JsonValue& operator[](std::string_view key) const noexcept;

  /// Object keys in document order; empty unless an object.
  const std::vector<std::string>& keys() const noexcept { return keys_; }
  /// Array elements, or object member values parallel to keys().
  const std::vector<JsonValue>& items() const noexcept { return items_; }

  /// The decoded text of a string; nullopt for any other kind.
  std::optional<std::string_view> string() const noexcept {
    if (kind_ != Kind::kString) return std::nullopt;
    return text_;
  }

  std::optional<bool> boolean() const noexcept {
    if (kind_ != Kind::kBool) return std::nullopt;
    return text_ == "true";
  }

  /// A number converted to T (an unsigned integer type or double); nullopt
  /// for any other kind, a fraction, sign or exponent an integer type cannot
  /// take, or a value out of T's range.
  template <typename T>
    requires(std::unsigned_integral<T> && !std::same_as<T, bool>) ||
            std::same_as<T, double>
  std::optional<T> number() const noexcept {
    if (kind_ != Kind::kNumber) return std::nullopt;
    T value{};
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(text_.data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
  }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  std::string text_;  ///< string contents, number literal, "true"/"false"
  std::vector<std::string> keys_;
  std::vector<JsonValue> items_;
};

/// Parses one complete JSON document; nullopt on any syntax error, on
/// trailing text, or on nesting deeper than kJsonMaxDepth.  A \uXXXX escape
/// decodes to UTF-8; surrogate pairs are rejected.
std::optional<JsonValue> parse_json(std::string_view text);

/// Appends `text` as a JSON string literal, escaping '"', '\' and control
/// characters.
void append_json_string(std::string& out, std::string_view text);

/// Appends `value` in shortest round-trip form (std::to_chars).
void append_json_number(std::string& out, double value);

template <std::unsigned_integral T>
  requires(!std::same_as<T, bool>)
void append_json_number(std::string& out, T value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

}  // namespace sssw::util
