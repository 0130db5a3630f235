#include "src/base/text_writer.h"

#include <charconv>
#include <cstdio>

#include "src/base/json.h"

namespace hwprof {
namespace {

// Longest decimal rendering of a 64-bit integer, sign included.
constexpr std::size_t kMaxDecimal = 20;

}  // namespace

TextWriter& TextWriter::Uint(std::uint64_t v, int width) {
  char buf[kMaxDecimal];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  const auto len = static_cast<std::size_t>(end - buf);
  if (width > 0 && len < static_cast<std::size_t>(width)) {
    out_.append(static_cast<std::size_t>(width) - len, ' ');
  }
  out_.append(buf, len);
  return *this;
}

TextWriter& TextWriter::ZeroPadded(std::uint64_t v, int width) {
  const std::size_t digits = DecimalDigits(v);
  if (width > 0 && digits < static_cast<std::size_t>(width)) {
    out_.append(static_cast<std::size_t>(width) - digits, '0');
  }
  return Uint(v);
}

TextWriter& TextWriter::Int(std::int64_t v) {
  char buf[kMaxDecimal];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out_.append(buf, static_cast<std::size_t>(end - buf));
  return *this;
}

TextWriter& TextWriter::Signed(std::int64_t v, int width) {
  // The magnitude in unsigned arithmetic, so INT64_MIN negates cleanly.
  const std::uint64_t magnitude =
      v < 0 ? 0 - static_cast<std::uint64_t>(v) : static_cast<std::uint64_t>(v);
  const std::size_t len = 1 + DecimalDigits(magnitude);
  if (width > 0 && len < static_cast<std::size_t>(width)) {
    out_.append(static_cast<std::size_t>(width) - len, ' ');
  }
  out_.push_back(v < 0 ? '-' : '+');
  return Uint(magnitude);
}

TextWriter& TextWriter::Left(std::string_view s, int width) {
  const std::size_t start = out_.size();
  out_.append(s);
  AlignLeft(start, width);
  return *this;
}

TextWriter& TextWriter::Fixed2(double v, int width, bool plus) {
  const char* fmt = plus ? "%+*.2f" : "%*.2f";
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), fmt, width, v);
  if (n < 0) {
    return *this;
  }
  if (static_cast<std::size_t>(n) < sizeof(buf)) {
    out_.append(buf, static_cast<std::size_t>(n));
    return *this;
  }
  // Only a huge magnitude (%f prints every integer digit) gets here.
  std::string wide(static_cast<std::size_t>(n), '\0');
  std::snprintf(wide.data(), wide.size() + 1, fmt, width, v);
  out_ += wide;
  return *this;
}

TextWriter& TextWriter::UsecFromNs(std::uint64_t ns) {
  Uint(ns / 1000);
  out_.push_back('.');
  return ZeroPadded(ns % 1000, 3);
}

TextWriter& TextWriter::JsonString(std::string_view s) {
  AppendJsonString(s, &out_);
  return *this;
}

void TextWriter::AlignRight(std::size_t start, int width) {
  const std::size_t len = out_.size() - start;
  if (width > 0 && len < static_cast<std::size_t>(width)) {
    out_.insert(start, static_cast<std::size_t>(width) - len, ' ');
  }
}

void TextWriter::AlignLeft(std::size_t start, int width) {
  const std::size_t len = out_.size() - start;
  if (width > 0 && len < static_cast<std::size_t>(width)) {
    out_.append(static_cast<std::size_t>(width) - len, ' ');
  }
}

}  // namespace hwprof
