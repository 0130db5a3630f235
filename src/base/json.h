// The one JSON string escaper and the one JSON reader. Every report, export
// and log line that leaves the process as JSON writes its strings through
// AppendJsonString, and every JSON check (trace_event_check, the tests)
// reads through ParseJson, so the escape map and the grammar are decided
// here and nowhere else.

#ifndef HWPROF_SRC_BASE_JSON_H_
#define HWPROF_SRC_BASE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hwprof {

// Appends `s` to `*out` as a quoted JSON string. `"` and `\` are
// backslash-escaped, \n \r \t use their short forms, every other byte below
// 0x20 becomes \u00xx in lowercase hex, and all other bytes (UTF-8 included)
// are copied unchanged.
void AppendJsonString(std::string_view s, std::string* out);

// A parsed JSON value. Object members keep their document order.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  // The first member named `key`, or nullptr (also for non-objects).
  const JsonValue* Get(std::string_view key) const;
};

// Strict RFC 8259 reader: the whole of `text` must be one value, optionally
// surrounded by whitespace. Numbers must match
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, strings may not hold a raw
// byte below 0x20, and nesting deeper than 512 levels is rejected. A \u
// escape decodes to its low byte, which is exact for the \u00xx forms
// AppendJsonString writes. On failure returns false and sets `*error` (if
// non-null) to "JSON parse error at offset N: <why>" or "trailing garbage at
// offset N".
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

}  // namespace hwprof

#endif  // HWPROF_SRC_BASE_JSON_H_
