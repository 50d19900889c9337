// Dependency-free JSON for the experiment-control layer.
//
// Scope: sweep files and spec round-trips, not a general-purpose codec.
// Three properties the rest of expctl leans on:
//   - integers are exact: 64-bit seeds survive parse/dump untouched
//     (numbers without '.', 'e' are held as int64/uint64, never as double);
//   - dumps are deterministic and round-trip byte-stable —
//     dump(parse(dump(x))) == dump(x) for any value x (doubles render via
//     std::to_chars shortest-round-trip form);
//   - objects preserve insertion order, so serializers control field
//     order and the output diffs cleanly.
// Parsing is strict RFC-8259 (no comments, no trailing commas); errors
// throw JsonError with a line:column position.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace drowsy::expctl {

/// Malformed document or type-mismatched access.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One JSON value (recursive).
class Json {
 public:
  enum class Type { Null, Bool, Int, Uint, Double, String, Array, Object };

  Json() = default;                        ///< null
  Json(std::nullptr_t) {}                  ///< null
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int v) : type_(Type::Int), int_(v) {}
  Json(std::int64_t v) : type_(Type::Int), int_(v) {}
  Json(std::uint64_t v) : type_(Type::Uint), uint_(v) {}
  Json(double v) : type_(Type::Double), double_(v) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}

  [[nodiscard]] static Json array() { Json j; j.type_ = Type::Array; return j; }
  [[nodiscard]] static Json object() { Json j; j.type_ = Type::Object; return j; }

  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_number() const {
    return type_ == Type::Int || type_ == Type::Uint || type_ == Type::Double;
  }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  // Strict accessors; throw JsonError on type mismatch (as_int/as_uint
  // also on range violation, e.g. negative to as_uint, 2^63 to as_int).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] double as_double() const;  ///< any number, converted
  [[nodiscard]] const std::string& as_string() const;

  // Arrays.
  [[nodiscard]] const Json& at(std::size_t index) const;
  void push_back(Json value);
  [[nodiscard]] const std::vector<Json>& elements() const;

  // Objects (insertion-ordered).
  [[nodiscard]] const Json* find(const std::string& key) const;  ///< null when absent
  [[nodiscard]] const Json& at(const std::string& key) const;    ///< throws when absent
  void set(std::string key, Json value);  ///< insert, or overwrite in place
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items() const;

  /// Structural equality; Int/Uint/Double compare numerically.
  [[nodiscard]] bool operator==(const Json& other) const;
  [[nodiscard]] bool operator!=(const Json& other) const { return !(*this == other); }

  /// Parse a complete document (surrounding whitespace allowed; trailing
  /// garbage rejected).  Throws JsonError at "line:col: message".
  [[nodiscard]] static Json parse(std::string_view text);

  /// Deterministic rendering.  indent > 0: pretty-printed, `indent` spaces
  /// per level, trailing newline; indent == 0: compact single line, no
  /// newline.  Throws JsonError for NaN/infinite doubles (unrepresentable).
  [[nodiscard]] std::string dump(int indent = 2) const;

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;

  void dump_to(std::string& out, int indent, int depth) const;
  [[noreturn]] void type_error(const char* want) const;
  [[nodiscard]] const char* type_name() const;
};

}  // namespace drowsy::expctl
