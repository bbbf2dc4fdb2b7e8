#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

/// \file json.hpp
/// A minimal streaming JSON writer for the benchmark binaries' machine-
/// readable output (scripts/bench_report.sh, BENCH_<n>.json), plus a small
/// recursive-descent parser (`json_parse`) producing a `JsonValue` tree for
/// the serve wire format (serve/wire.hpp). Handles nesting, comma placement
/// and string escaping; numbers are emitted with enough precision to
/// round-trip doubles (17 significant digits, as printf's `%.17g`), and
/// integers that fit std::int64_t exactly survive a parse round-trip
/// without floating-point loss. Both sides are on the serve request path:
/// the writer escapes and formats in place into its one output buffer, and
/// the parser copies an escape-free string in one step and reads numbers
/// with std::from_chars.

namespace maxev {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by a value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  /// Emit a JSON null.
  JsonWriter& null_value();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// The serialized document. \pre every container has been closed.
  [[nodiscard]] const std::string& str() const&;
  /// The same, moved out of a writer that is done (no copy of the text).
  [[nodiscard]] std::string str() &&;

  /// Write the document to a file; throws maxev::Error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  void comma();
  void put_string(std::string_view s);
  /// Append a comma if one is due, then what \p format writes into a
  /// stack buffer (`char* format(char* first, char* last)`).
  template <typename Format>
  void put_scalar(Format format);

  std::string out_;
  std::size_t depth_ = 0;    // open containers
  bool need_comma_ = false;  // a member/element precedes, inside a container
};

/// Extract a `--json <path>` / `--json=<path>` flag from argv, compacting
/// the array in place (argc is updated). Returns the path, empty when the
/// flag is absent. Shared by the bench binaries' --json modes.
[[nodiscard]] std::string extract_json_flag(int& argc, char** argv);

/// Parsed JSON document node. Objects keep their members in an ordered map
/// (deterministic iteration); numbers remember whether the source literal
/// was an exact std::int64_t so picosecond timestamps survive untouched.
/// The literal `-0` is the integer 0 whose as_double() is -0.0, so the
/// sign of a negative-zero double survives JsonWriter → json_parse.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  /// True for numbers whose literal was integral and fits std::int64_t.
  [[nodiscard]] bool is_int64() const { return is_number() && exact_int_; }

  /// Checked accessors; throw maxev::Error naming the expected kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array access. size() is 0 for non-arrays/objects.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const JsonValue& operator[](std::size_t i) const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Object access: find() returns nullptr when the key is absent, at()
  /// throws maxev::Error naming the missing key.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, JsonValue>& members() const;

  // Construction (used by the parser; handy for tests too).
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue integer(std::int64_t i);
  static JsonValue negative_zero();  ///< the literal `-0`
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::map<std::string, JsonValue> members);

 private:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool exact_int_ = false;
  double num_ = 0.0;  // also set for integers: as_double() reads it
  std::int64_t int_ = 0;
  // The one heap-backed payload of a string, array or object node
  // (monostate otherwise), which keeps a node at 80 bytes.
  std::variant<std::monostate, std::string, Array, Object> data_;
};

/// Nesting limit of json_parse: the deepest array/object nesting a
/// document may have. The parser recurses once per level, so the limit is
/// what keeps a hostile line (say, 300 KB of '[') from exhausting the stack;
/// the serve wire documents nest fewer than ten levels deep.
inline constexpr std::size_t kJsonMaxDepth = 256;

/// Parse a complete JSON document; trailing non-whitespace is an error.
/// Throws maxev::Error with a byte offset on malformed input, and naming the
/// depth and offset when arrays/objects nest deeper than kJsonMaxDepth.
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Serialize a JsonValue tree back to compact JSON text. Object members are
/// emitted in map order (alphabetical), so dump(parse(dump(v))) is stable.
[[nodiscard]] std::string json_dump(const JsonValue& v);

}  // namespace maxev
