#include "src/base/line_cursor.h"

#include <algorithm>

namespace hwprof {

// Eight bytes at a time: XOR turns each newline into a zero byte, and a zero
// byte is the only one whose marker bit 7 survives
// ~(((x & 0x7F..) + 0x7F..) | x | 0x7F..).
std::size_t CountNewlines(std::string_view s) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  constexpr std::uint64_t kNewlines = 0x0A0A0A0A0A0A0A0AULL;
  constexpr std::uint64_t kByteOnes = 0x0101010101010101ULL;
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, s.data() + i, sizeof(word));
    const std::uint64_t x = word ^ kNewlines;
    const std::uint64_t zero_bytes = ~(((x & kLow7) + kLow7) | x | kLow7);
    count += static_cast<std::size_t>(((zero_bytes >> 7) * kByteOnes) >> 56);
  }
  for (; i < s.size(); ++i) {
    count += s[i] == '\n' ? 1 : 0;
  }
  return count;
}

bool FieldCursor::Next(std::string_view* field) {
  if (done_) {
    return false;
  }
  const char* sep = std::find(p_, end_, sep_);
  *field = std::string_view(p_, static_cast<std::size_t>(sep - p_));
  if (sep == end_) {
    done_ = true;
  } else {
    p_ = sep + 1;
  }
  return true;
}

std::size_t CountFields(std::string_view line, char sep) {
  return static_cast<std::size_t>(std::count(line.begin(), line.end(), sep)) + 1;
}

}  // namespace hwprof
