#include "support/json.h"

#include <bit>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mcr::json {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("json: value is not a ") + wanted);
}

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing data after JSON value");
    return v;
  }

 private:
  Value parse_value() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't': expect_word("true"); return Value(true);
      case 'f': expect_word("false"); return Value(false);
      case 'n': expect_word("null"); return Value();
      default: return parse_number();
    }
  }

  Value parse_object() {
    ++pos_;  // '{'
    Value::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return Value(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    ++pos_;  // '['
    Value::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return Value(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      const std::size_t end = plain_run_end(pos_);
      out.append(s_.data() + pos_, end - pos_);
      pos_ = end;
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c != '\\') fail("raw control character in string");
      ++pos_;
      if (pos_ >= s_.size()) fail("truncated escape");
      switch (s_[pos_]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); continue;
        default: fail("unknown escape");
      }
      ++pos_;
    }
  }

  /// Offset of the first '"', '\\' or byte below 0x20 at or after `i`,
  /// or s_.size(). Tests eight bytes per step: each check flags the
  /// high bit of a matching byte, and a false flag can only come from a
  /// borrow out of a true match below it, so the lowest flagged byte is
  /// the first hit.
  [[nodiscard]] std::size_t plain_run_end(std::size_t i) const {
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
    const auto zero_bytes = [](std::uint64_t x) { return (x - kOnes) & ~x; };
    for (; i + 8 <= s_.size(); i += 8) {
      std::uint64_t w;
      std::memcpy(&w, s_.data() + i, 8);
      if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
      const std::uint64_t hits = (zero_bytes(w ^ (kOnes * '"')) |
                                  zero_bytes(w ^ (kOnes * '\\')) |
                                  ((w - kOnes * 0x20) & ~w)) &
                                 kHigh;
      if (hits != 0) return i + static_cast<std::size_t>(std::countr_zero(hits) / 8);
    }
    for (; i < s_.size(); ++i) {
      const auto c = static_cast<unsigned char>(s_[i]);
      if (c == '"' || c == '\\' || c < 0x20) break;
    }
    return i;
  }

  /// \uXXXX, decoded to UTF-8 (surrogate pairs supported; our own
  /// writers only ever emit \u00XX for control characters).
  std::string parse_unicode_escape() {
    ++pos_;  // 'u'
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 1 < s_.size() && s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned low = parse_hex4();
        if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
      } else {
        fail("unpaired surrogate");
      }
    }
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= s_.size()) fail("truncated \\u escape");
      const char c = s_[pos_];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
      ++pos_;
    }
    return value;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return Value(v);
  }

  void expect_word(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) fail("unknown literal");
    pos_ += word.size();
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at offset " +
                             std::to_string(pos_));
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(data_);
}

double Value::as_double() const {
  if (!is_number()) type_error("number");
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(data_);
}

const Value::Array& Value::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(data_);
}

const Value::Object& Value::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<Object>(data_);
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return it->second;
}

bool Value::has(const std::string& key) const {
  if (!is_object()) return false;
  return std::get<Object>(data_).count(key) > 0;
}

double Value::number_or(const std::string& key, double fallback) const {
  return has(key) && at(key).is_number() ? at(key).as_double() : fallback;
}

std::string Value::string_or(const std::string& key,
                             const std::string& fallback) const {
  return has(key) && at(key).is_string() ? at(key).as_string() : fallback;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("json: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return parse(ss.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += kHex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string format_number(double v) {
  // to_chars in general format at precision 6 is printf "%g" — the
  // bytes `std::ostream << double` writes — without a stream or locale.
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  return std::string(buf, r.ptr);
}

}  // namespace mcr::json
