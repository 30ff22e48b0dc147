// Minimal JSON support without external dependencies: a small
// recursive-descent parser producing an immutable DOM, plus the text
// layer every JSON writer in the repo shares — one string escaper and
// one number formatter.
//
// Numbers are stored as double — exact for the magnitudes our
// artifacts carry (timings, counter medians < 2^53); this is a reader
// for our own writers, not a general-purpose library. Parse errors
// throw std::runtime_error naming the byte offset.
#ifndef MCR_SUPPORT_JSON_H
#define MCR_SUPPORT_JSON_H

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mcr::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() = default;
  explicit Value(bool b) : data_(b) {}
  explicit Value(double d) : data_(d) {}
  explicit Value(std::string s) : data_(std::move(s)) {}
  explicit Value(Array a) : data_(std::move(a)) {}
  explicit Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] Type type() const {
    return static_cast<Type>(data_.index());
  }
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object field lookup; throws when not an object / key missing.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  [[nodiscard]] bool has(const std::string& key) const;
  /// at(key) when present, otherwise the given default.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;

 private:
  std::variant<std::monostate, bool, double, std::string, Array, Object> data_;
};

/// Parses exactly one JSON value spanning the whole input.
[[nodiscard]] Value parse(std::string_view text);

/// Parses the file's entire contents; errors name the path.
[[nodiscard]] Value parse_file(const std::string& path);

/// Appends `s` escaped for the inside of a JSON string literal (no
/// surrounding quotes): quote, backslash, \n \r \t by name, and every
/// other control character as \u00XX.
void append_escaped(std::string& out, std::string_view s);
/// append_escaped into a fresh string.
[[nodiscard]] std::string escape(std::string_view s);

/// The text of a double in JSON (and Prometheus) output: printf "%g",
/// six significant digits; "inf"/"nan" pass through unquoted.
[[nodiscard]] std::string format_number(double v);

}  // namespace mcr::json

#endif  // MCR_SUPPORT_JSON_H
