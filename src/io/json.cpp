#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "common/error.hpp"

namespace ehsim::io {

namespace {

const char* type_word(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kNumber:
      return "number";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kArray:
      return "array";
    case JsonValue::Type::kObject:
      return "object";
  }
  return "?";
}

[[noreturn]] void wrong_type(const char* wanted, JsonValue::Type got) {
  throw ModelError(std::string("JSON: expected ") + wanted + ", got " + type_word(got));
}

void append_escaped(std::string& out, const std::string& text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double number) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), number);
  if (ec != std::errc{}) {
    throw ModelError("JSON: number formatting failed");
  }
  out.append(buffer, ptr);
}

struct Writer {
  int indent;
  std::string out;

  void newline(int depth) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * depth), ' ');
    }
  }

  void write(const JsonValue& value, int depth) {
    switch (value.type()) {
      case JsonValue::Type::kNull:
        out += "null";
        break;
      case JsonValue::Type::kBool:
        out += value.as_bool() ? "true" : "false";
        break;
      case JsonValue::Type::kNumber:
        append_number(out, value.as_number());
        break;
      case JsonValue::Type::kString:
        append_escaped(out, value.as_string());
        break;
      case JsonValue::Type::kArray: {
        const auto& array = value.as_array();
        if (array.empty()) {
          out += "[]";
          break;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < array.size(); ++i) {
          if (i > 0) {
            out.push_back(',');
          }
          newline(depth + 1);
          write(array[i], depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
      }
      case JsonValue::Type::kObject: {
        const auto& object = value.as_object();
        if (object.empty()) {
          out += "{}";
          break;
        }
        out.push_back('{');
        for (std::size_t i = 0; i < object.size(); ++i) {
          if (i > 0) {
            out.push_back(',');
          }
          newline(depth + 1);
          append_escaped(out, object[i].first);
          out.push_back(':');
          if (indent >= 0) {
            out.push_back(' ');
          }
          write(object[i].second, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
      }
    }
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing content after the JSON document");
    }
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& why) const {
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
    throw ModelError("JSON parse error at " + std::to_string(line) + ":" +
                     std::to_string(column) + ": " + why);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) {
          return JsonValue(true);
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          return JsonValue(false);
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) {
          return JsonValue(nullptr);
        }
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') {
        fail("expected an object key string");
      }
      const std::size_t key_pos = pos_;
      std::string key = parse_string();
      // A repeated key would be silently shadowed by the first (find returns
      // it), so strict documents refuse it outright.
      for (const auto& member : object) {
        if (member.first == key) {
          pos_ = key_pos;
          fail("duplicate object key '" + key + "'");
        }
      }
      skip_whitespace();
      expect(':');
      object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return JsonValue(std::move(object));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return JsonValue(std::move(array));
      }
      fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
    }
    unsigned value = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    pos_ += 4;
    return value;
  }

  void append_utf8(std::string& out, std::uint32_t code_point) {
    if (code_point < 0x80) {
      out.push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else if (code_point < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code_point >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("truncated escape");
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          std::uint32_t code_point = parse_hex4();
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const unsigned low = parse_hex4();
              if (low < 0xDC00 || low > 0xDFFF) {
                fail("invalid low surrogate in \\u escape pair");
              }
              code_point = 0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
            } else {
              fail("unpaired high surrogate in \\u escape");
            }
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          append_utf8(out, code_point);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last || first == last) {
      pos_ = start;
      fail("invalid number");
    }
    if (!std::isfinite(value)) {
      pos_ = start;
      fail("number out of double range");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue::JsonValue(double number) : value_(number) {
  if (!std::isfinite(number)) {
    // nan and inf are not JSON tokens: passing them to the writer would
    // produce an unparseable document, so they are rejected at construction
    // with the offending value named (finite_or_null() opts into nulls).
    const char* what = std::isnan(number) ? "nan" : (number > 0.0 ? "inf" : "-inf");
    throw ModelError(std::string("JSON: numbers must be finite (got ") + what +
                     "; use JsonValue::finite_or_null to null-encode undefined values)");
  }
}

JsonValue JsonValue::finite_or_null(double number) {
  return std::isfinite(number) ? JsonValue(number) : JsonValue(nullptr);
}

bool JsonValue::as_bool() const {
  if (!is_bool()) {
    wrong_type("bool", type());
  }
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) {
    wrong_type("number", type());
  }
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) {
    wrong_type("string", type());
  }
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) {
    wrong_type("array", type());
  }
  return std::get<Array>(value_);
}

JsonValue::Array& JsonValue::as_array() {
  if (!is_array()) {
    wrong_type("array", type());
  }
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) {
    wrong_type("object", type());
  }
  return std::get<Object>(value_);
}

JsonValue::Object& JsonValue::as_object() {
  if (!is_object()) {
    wrong_type("object", type());
  }
  return std::get<Object>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const auto& [name, value] : std::get<Object>(value_)) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw ModelError("JSON: missing key '" + std::string(key) + "'");
  }
  return *value;
}

JsonValue& JsonValue::set(std::string_view key, JsonValue value) {
  Object& object = as_object();
  for (auto& [name, existing] : object) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  object.emplace_back(std::string(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::push_back(JsonValue value) {
  as_array().push_back(std::move(value));
  return *this;
}

std::string JsonValue::dump(int indent) const {
  Writer writer{indent, {}};
  writer.write(*this, 0);
  return writer.out;
}

JsonValue JsonValue::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace ehsim::io
