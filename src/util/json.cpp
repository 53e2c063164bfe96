#include "util/json.hpp"

namespace sssw::util {

const JsonValue& JsonValue::operator[](std::string_view key) const noexcept {
  static const JsonValue kNullValue;
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i] == key) return items_[i];
  return kNullValue;
}

/// Recursive-descent reader over one document; every step returns false on
/// a mismatch.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool document(JsonValue& out) {
    if (!value(out, 0)) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  bool value(JsonValue& out, std::size_t depth) {
    skip_ws();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        out.kind_ = JsonValue::Kind::kObject;
        return depth < kJsonMaxDepth && members(out, depth + 1, '}');
      case '[':
        out.kind_ = JsonValue::Kind::kArray;
        return depth < kJsonMaxDepth && members(out, depth + 1, ']');
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return string(out.text_);
      case 't':
        out.kind_ = JsonValue::Kind::kBool;
        return literal("true", out.text_);
      case 'f':
        out.kind_ = JsonValue::Kind::kBool;
        return literal("false", out.text_);
      case 'n':
        return literal("null", out.text_);
      default:
        out.kind_ = JsonValue::Kind::kNumber;
        return number(out.text_);
    }
  }

  /// The ','-separated members of an object or array, up to `close`.
  bool members(JsonValue& out, std::size_t depth, char close) {
    ++p_;
    if (eat(close)) return true;
    do {
      if (close == '}') {
        skip_ws();
        out.keys_.emplace_back();
        if (!string(out.keys_.back()) || !eat(':')) return false;
      }
      out.items_.emplace_back();
      if (!value(out.items_.back(), depth)) return false;
    } while (eat(','));
    return eat(close);
  }

  bool literal(std::string_view word, std::string& out) {
    if (!std::string_view(p_, static_cast<std::size_t>(end_ - p_))
             .starts_with(word))
      return false;
    p_ += word.size();
    out = word;
    return true;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, kept as text.
  bool number(std::string& out) {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (p_ != end_ && *p_ == '0') {
      ++p_;
    } else if (!digits()) {
      return false;
    }
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (!digits()) return false;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (!digits()) return false;
    }
    out.assign(start, p_);
    return true;
  }

  bool digits() {
    const char* start = p_;
    while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    return p_ != start;
  }

  bool string(std::string& out) {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      const char c = *p_++;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ == end_) return false;
      switch (*p_++) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (!unicode_escape(out)) return false;
          break;
        default:
          return false;
      }
    }
    if (p_ == end_) return false;
    ++p_;
    return true;
  }

  /// The XXXX of a \uXXXX escape, appended as UTF-8 (BMP only).
  bool unicode_escape(std::string& out) {
    if (end_ - p_ < 4) return false;
    unsigned code = 0;
    const auto [ptr, ec] = std::from_chars(p_, p_ + 4, code, 16);
    if (ec != std::errc{} || ptr != p_ + 4) return false;
    p_ += 4;
    if (code >= 0xD800 && code <= 0xDFFF) return false;
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
    return true;
  }

  bool eat(char c) {
    skip_ws();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      ++p_;
  }

  const char* p_;
  const char* end_;
};

std::optional<JsonValue> parse_json(std::string_view text) {
  JsonValue out;
  if (!JsonParser(text).document(out)) return std::nullopt;
  return out;
}

void append_json_string(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

}  // namespace sssw::util
