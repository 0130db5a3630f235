#include "src/base/strings.h"

#include <cctype>
#include <cstdio>

#include "src/base/line_cursor.h"

namespace hwprof {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> SplitLines(std::string_view s) {
  std::vector<std::string_view> lines = Split(s, '\n');
  if (!lines.empty() && lines.back().empty()) {
    lines.pop_back();
  }
  return lines;
}

std::string_view StripWhitespace(std::string_view s) {
  std::size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  std::size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseUint(std::string_view s, std::uint64_t* out) {
  const char* p = s.data();
  const char* end = p + s.size();
  std::uint64_t value = 0;
  if (!ReadDigits(&p, end, &value) || p != end) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace hwprof
