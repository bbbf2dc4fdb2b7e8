#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <system_error>
#include <utility>

#include "util/error.hpp"

namespace maxev {

// ----------------------------------------------------------- JsonWriter ----
// Every key, string and number is formatted straight into out_, with no
// temporary string. The bytes are pinned by the JsonWriterTest cases.

void JsonWriter::comma() {
  if (need_comma_ && depth_ > 0) out_ += ',';
}

void JsonWriter::put_string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out_.append(esc, sizeof esc);
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (depth_ == 0) throw Error("JsonWriter: end_object with no container");
  --depth_;
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (depth_ == 0) throw Error("JsonWriter: end_array with no container");
  --depth_;
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  put_string(k);
  out_ += ':';
  need_comma_ = false;  // the next value/container follows without a comma
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma();
  put_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  comma();
  put_string(v);
  need_comma_ = true;
  return *this;
}

// Numbers go out with their separating comma in one append.
template <typename Format>
void JsonWriter::put_scalar(Format format) {
  char buf[40];
  char* p = buf;
  if (need_comma_ && depth_ > 0) *p++ = ',';
  out_.append(buf, format(p, buf + sizeof buf));
  need_comma_ = true;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null_value();  // JSON has no NaN/Inf
  // 17 significant digits, trailing zeros trimmed: the standard defines
  // this overload as printf's "%.17g", so the bytes are the same.
  put_scalar([v](char* first, char* last) {
    return std::to_chars(first, last, v, std::chars_format::general, 17).ptr;
  });
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  put_scalar([v](char* first, char* last) {
    return std::to_chars(first, last, v).ptr;
  });
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  put_scalar([v](char* first, char* last) {
    return std::to_chars(first, last, v).ptr;
  });
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  comma();
  out_ += "null";
  need_comma_ = true;
  return *this;
}

const std::string& JsonWriter::str() const& {
  if (depth_ != 0) throw Error("JsonWriter: unclosed container");
  return out_;
}

std::string JsonWriter::str() && {
  (void)str();  // the same unclosed-container check
  return std::move(out_);
}

void JsonWriter::write_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw Error("JsonWriter: cannot open '" + path + "'");
  f << str() << '\n';
  if (!f) throw Error("JsonWriter: write to '" + path + "' failed");
}

// ----------------------------------------------------------- JsonValue ----

namespace {

[[noreturn]] void kind_error(const char* want, JsonValue::Kind got) {
  static const char* names[] = {"null", "bool", "number", "string", "array",
                                "object"};
  throw Error(std::string("JsonValue: expected ") + want + ", got " +
              names[static_cast<int>(got)]);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool", kind_);
  return bool_;
}

double JsonValue::as_double() const {
  if (!is_number()) kind_error("number", kind_);
  return num_;
}

std::int64_t JsonValue::as_int64() const {
  if (!is_int64()) kind_error("integer", kind_);
  return int_;
}

std::uint64_t JsonValue::as_uint64() const {
  const std::int64_t v = as_int64();
  if (v < 0) throw Error("JsonValue: expected non-negative integer");
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("string", kind_);
  return std::get<std::string>(data_);
}

std::size_t JsonValue::size() const {
  if (is_array()) return std::get<Array>(data_).size();
  if (is_object()) return std::get<Object>(data_).size();
  return 0;
}

const JsonValue& JsonValue::operator[](std::size_t i) const {
  if (!is_array()) kind_error("array", kind_);
  const Array& items = std::get<Array>(data_);
  if (i >= items.size())
    throw Error("JsonValue: array index " + std::to_string(i) +
                " out of range (size " + std::to_string(items.size()) + ")");
  return items[i];
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (!is_array()) kind_error("array", kind_);
  return std::get<Array>(data_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) kind_error("object", kind_);
  const Object& members = std::get<Object>(data_);
  const auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw Error("JsonValue: missing key '" + key + "'");
  return *v;
}

const std::map<std::string, JsonValue>& JsonValue::members() const {
  if (!is_object()) kind_error("object", kind_);
  return std::get<Object>(data_);
}

JsonValue JsonValue::null() { return {}; }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::integer(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.exact_int_ = true;
  v.int_ = i;
  v.num_ = static_cast<double>(i);
  return v;
}

JsonValue JsonValue::negative_zero() {
  JsonValue v = integer(0);
  v.num_ = -0.0;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.data_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.data_ = std::move(items);
  return v;
}

JsonValue JsonValue::object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.data_ = std::move(members);
  return v;
}

// ----------------------------------------------------------- json_parse ----

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json_parse: " + what + " at offset " + std::to_string(pos_));
  }

  // Called on entering an array or object at nesting level \p depth
  // (pos_ at its opening bracket).
  void enter(std::size_t depth) const {
    if (depth > kJsonMaxDepth)
      fail("nesting depth " + std::to_string(depth) + " exceeds the limit of " +
           std::to_string(kJsonMaxDepth));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  // depth: the arrays/objects enclosing this value.
  JsonValue parse_value(std::size_t depth) {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    enter(depth);
    expect('{');
    std::map<std::string, JsonValue> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      JsonValue v = parse_value(depth);
      if (!members.emplace(std::move(key), std::move(v)).second)
        fail("duplicate object key");
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue::object(std::move(members));
      if (c != ',') { --pos_; fail("expected ',' or '}'"); }
    }
  }

  JsonValue parse_array(std::size_t depth) {
    enter(depth);
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value(depth));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue::array(std::move(items));
      if (c != ',') { --pos_; fail("expected ',' or ']'"); }
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    for (;;) {
      // Copy the run up to the next quote, escape or control character
      // in one step: most wire strings have no escapes at all.
      std::size_t end = pos_;
      while (end < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[end]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++end;
      }
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': parse_unicode_escape(out); break;
        default: fail("invalid escape character");
      }
    }
  }

  void parse_unicode_escape(std::string& out) {
    // The writer only emits \u00xx for control characters; decode the BMP
    // generally (UTF-8) and reject surrogates, which we never produce.
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape unsupported");
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!at_digit()) fail("invalid number");
    bool integral = true;
    while (at_digit()) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (!at_digit()) fail("invalid number: digit required after '.'");
      while (at_digit()) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!at_digit()) fail("invalid number: digit required in exponent");
      while (at_digit()) ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      std::int64_t v = 0;
      if (std::from_chars(first, last, v).ec == std::errc())
        return v == 0 && *first == '-' ? JsonValue::negative_zero()
                                       : JsonValue::integer(v);
      // Out-of-range integers fall through: keep them as doubles.
    }
    double d = 0.0;
    if (std::from_chars(first, last, d).ec == std::errc())
      return JsonValue::number(d);
    // Overflow and underflow: strtod's result (±HUGE_VAL, 0 or the
    // nearest subnormal) is the value the wire has always carried.
    const std::string lit(first, last);
    return JsonValue::number(std::strtod(lit.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

namespace {

void dump_into(const JsonValue& v, JsonWriter& w) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: w.null_value(); break;
    case JsonValue::Kind::kBool: w.value(v.as_bool()); break;
    case JsonValue::Kind::kNumber:
      // `-0` is written as the double it reads as, keeping its sign.
      if (v.is_int64() && !(v.as_int64() == 0 && std::signbit(v.as_double())))
        w.value(v.as_int64());
      else
        w.value(v.as_double());
      break;
    case JsonValue::Kind::kString: w.value(v.as_string()); break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& item : v.items()) dump_into(item, w);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.members()) {
        w.key(key);
        dump_into(member, w);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string json_dump(const JsonValue& v) {
  JsonWriter w;
  dump_into(v, w);
  return std::move(w).str();
}

std::string extract_json_flag(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  return path;
}

}  // namespace maxev
