// Allocation-free cursors for the line-oriented text formats: the capture
// upload, the chunked stream file and the names file.
//
// LineCursor walks a text line by line with SplitLines' rules: a line ends
// at '\n' or at the end of the text, and a final newline does not start an
// empty last line. FieldCursor walks one line's separator-delimited fields
// with Split's rules (empty fields count) and reads a numeric field with
// ParseUint's contract. Neither copies the text nor allocates.

#ifndef HWPROF_SRC_BASE_LINE_CURSOR_H_
#define HWPROF_SRC_BASE_LINE_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace hwprof {

// The number of '\n' bytes in `s`.
std::size_t CountNewlines(std::string_view s);

// Reads the run of ASCII decimal digits at `*p` (up to `end`) and advances
// `*p` past it. False, leaving `*p` and `*out` alone, when the run is empty
// or its value passes 2^63 - 1.
inline bool ReadDigits(const char** p, const char* end, std::uint64_t* out) {
  constexpr std::uint64_t kTenthOfMax = 0x7fffffffffffffffULL / 10;
  constexpr std::uint64_t kMaxLastDigit = 0x7fffffffffffffffULL % 10;
  const char* q = *p;
  std::uint64_t value = 0;
  for (; q != end; ++q) {
    const std::uint64_t digit = static_cast<unsigned char>(*q) - static_cast<unsigned>('0');
    if (digit > 9) {
      break;
    }
    if (value > kTenthOfMax || (value == kTenthOfMax && digit > kMaxLastDigit)) {
      return false;
    }
    value = value * 10 + digit;
  }
  if (q == *p) {
    return false;
  }
  *p = q;
  *out = value;
  return true;
}

class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  // Steps to the next line and returns it without its '\n'; false when no
  // line is left.
  bool Next(std::string_view* line) {
    if (pos_ == text_.size()) {
      return false;
    }
    const char* begin = text_.data() + pos_;
    const std::size_t rest = text_.size() - pos_;
    const void* newline = std::memchr(begin, '\n', rest);
    const std::size_t length =
        newline == nullptr ? rest : static_cast<std::size_t>(static_cast<const char*>(newline) - begin);
    *line = std::string_view(begin, length);
    pos_ += newline == nullptr ? length : length + 1;
    ++line_no_;
    return true;
  }

  // 1-based number of the line Next last returned; 0 before the first.
  int line_no() const { return line_no_; }

  // True when Next has no line left to return.
  bool AtEnd() const { return pos_ == text_.size(); }

  // Bytes Next has yet to step over.
  std::size_t remaining_bytes() const { return text_.size() - pos_; }

  // How many lines Next has left to return; one pass over the rest of the
  // text, for sizing a container before the parse.
  std::size_t CountRemaining() const {
    const std::string_view rest = text_.substr(pos_);
    return CountNewlines(rest) + (!rest.empty() && rest.back() != '\n' ? 1 : 0);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_no_ = 0;
};

class FieldCursor {
 public:
  FieldCursor(std::string_view line, char sep)
      : p_(line.data()), end_(line.data() + line.size()), sep_(sep) {}

  // Steps to the next field, possibly empty; false once every field has
  // been returned. A line with n separators has n + 1 fields.
  bool Next(std::string_view* field);

  // Reads the next field as a decimal number: ASCII digits only up to the
  // separator or the end of the line, no sign or whitespace, at least one
  // digit, a value of at most 2^63 - 1. On false the cursor's position is
  // unspecified.
  bool NextUint(std::uint64_t* out) {
    if (done_ || !ReadDigits(&p_, end_, out)) {
      return false;
    }
    if (p_ == end_) {
      done_ = true;
      return true;
    }
    if (*p_ != sep_) {
      return false;
    }
    ++p_;
    return true;
  }

  // True once every field has been returned.
  bool done() const { return done_; }

 private:
  const char* p_;
  const char* end_;
  char sep_;
  bool done_ = false;
};

// The number of `sep`-separated fields in `line`, empty ones included (the
// size Split would return).
std::size_t CountFields(std::string_view line, char sep);

}  // namespace hwprof

#endif  // HWPROF_SRC_BASE_LINE_CURSOR_H_
