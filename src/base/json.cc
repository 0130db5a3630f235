#include "src/base/json.h"

#include <charconv>

#include "src/base/strings.h"

namespace hwprof {

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  std::size_t plain = 0;  // start of the run of bytes not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out->append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        *out += StrFormat("\\u%04x", c);
    }
  }
  out->append(s.data() + plain, s.size() - plain);
  out->push_back('"');
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

// Recursion bound: a hostile file of nested brackets must fail, not
// exhaust the stack.
constexpr int kMaxDepth = 512;

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out)) {
      if (error != nullptr) {
        *error = StrFormat("JSON parse error at offset %zu: %s", i_,
                           err_.empty() ? "malformed value" : err_.c_str());
      }
      return false;
    }
    SkipWs();
    if (i_ != s_.size()) {
      if (error != nullptr) {
        *error = StrFormat("trailing garbage at offset %zu", i_);
      }
      return false;
    }
    return true;
  }

 private:
  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool IsDigit() const { return i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9'; }

  // One or more decimal digits.
  bool Digits() {
    if (!IsDigit()) return false;
    while (IsDigit()) ++i_;
    return true;
  }

  bool Literal(std::string_view lit) {
    if (s_.substr(i_, lit.size()) != lit) return false;
    i_ += lit.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (i_ >= s_.size()) return Fail("unexpected end of input");
    switch (s_[i_]) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) return Fail("nesting too deep");
        const bool ok = s_[i_] == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"':
        out->kind = JsonValue::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = JsonValue::kBool;
        out->boolean = true;
        return Literal("true") || Fail("bad literal");
      case 'f':
        out->kind = JsonValue::kBool;
        out->boolean = false;
        return Literal("false") || Fail("bad literal");
      case 'n':
        out->kind = JsonValue::kNull;
        return Literal("null") || Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++i_;  // '{'
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (i_ >= s_.size() || s_[i_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipWs();
      if (!Eat(':')) return Fail("expected ':'");
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->obj.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Eat(',')) continue;
      if (Eat('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++i_;  // '['
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->arr.push_back(std::move(value));
      SkipWs();
      if (Eat(',')) continue;
      if (Eat(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++i_;  // opening quote
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return Fail("unterminated escape");
        switch (s_[i_]) {
          case '"':
            c = '"';
            break;
          case '\\':
            c = '\\';
            break;
          case '/':
            c = '/';
            break;
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case 'b':
            c = '\b';
            break;
          case 'f':
            c = '\f';
            break;
          case 'u': {
            if (i_ + 4 >= s_.size()) return Fail("short \\u escape");
            unsigned code = 0;
            for (int k = 1; k <= 4; ++k) {
              const char h = s_[i_ + static_cast<std::size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            i_ += 4;
            c = static_cast<char>(code & 0xFF);
            break;
          }
          default:
            return Fail("unknown escape");
        }
      }
      out->push_back(c);
      ++i_;
    }
    if (i_ >= s_.size()) return Fail("unterminated string");
    ++i_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = i_;
    const bool minus = Eat('-');
    if (!IsDigit()) return Fail(minus ? "malformed number" : "expected a value");
    if (!Eat('0')) Digits();
    if (Eat('.') && !Digits()) return Fail("malformed number");
    if (Eat('e') || Eat('E')) {
      if (!Eat('+')) Eat('-');
      if (!Digits()) return Fail("malformed number");
    }
    out->kind = JsonValue::kNumber;
    // The grammar is already checked; an out-of-range exponent leaves 0.
    std::from_chars(s_.data() + start, s_.data() + i_, out->number);
    return true;
  }

  bool Fail(const char* why) {
    if (err_.empty()) err_ = why;
    return false;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  int depth_ = 0;
  std::string err_;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  return JsonReader(text).Parse(out, error);
}

}  // namespace hwprof
