// What the analysis reports, the trace exports, the diff and the text
// capture file are rendered through: an append-only buffer reserved once
// from the caller's size estimate. Integers go through std::to_chars and the
// padded and microsecond fields are written directly, so no printf runs per
// row or per event. Each method's comment names the printf conversion whose
// bytes it reproduces (base_test checks them against StrFormat).

#ifndef HWPROF_SRC_BASE_TEXT_WRITER_H_
#define HWPROF_SRC_BASE_TEXT_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hwprof {

// Number of decimal digits in `v` (1 for 0): the bytes Uint(v) writes.
constexpr std::size_t DecimalDigits(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 10) {
    v /= 10;
    ++n;
  }
  return n;
}

class TextWriter {
 public:
  explicit TextWriter(std::size_t reserve) { out_.reserve(reserve); }

  TextWriter& Append(std::string_view s) {
    out_.append(s);
    return *this;
  }
  TextWriter& Append(char c) {
    out_.push_back(c);
    return *this;
  }
  // `n` spaces.
  TextWriter& Spaces(std::size_t n) {
    out_.append(n, ' ');
    return *this;
  }

  // %llu, or %<width>llu (right-aligned, space-padded) when width > 0.
  TextWriter& Uint(std::uint64_t v, int width = 0);
  // %0<width>llu.
  TextWriter& ZeroPadded(std::uint64_t v, int width);
  // %lld.
  TextWriter& Int(std::int64_t v);
  // %+<width>lld: always signed, right-aligned.
  TextWriter& Signed(std::int64_t v, int width);
  // %-<width>s.
  TextWriter& Left(std::string_view s, int width);
  // %<width>.2f, or %+<width>.2f when `plus`. Rounding is printf's own: the
  // value is formatted by snprintf into a stack buffer.
  TextWriter& Fixed2(double v, int width = 0, bool plus = false);
  // Nanoseconds as microseconds with exactly three fractional digits:
  // %llu.%03llu of (ns / 1000, ns % 1000).
  TextWriter& UsecFromNs(std::uint64_t ns);
  // A quoted JSON string (AppendJsonString, src/base/json.h).
  TextWriter& JsonString(std::string_view s);

  // Pads what was written since `start` (a size() taken earlier) to `width`
  // bytes: spaces in front for AlignRight (%<width>s), behind for AlignLeft
  // (%-<width>s). Longer fields are left as they are, as printf does.
  void AlignRight(std::size_t start, int width);
  void AlignLeft(std::size_t start, int width);

  std::size_t size() const { return out_.size(); }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_BASE_TEXT_WRITER_H_
