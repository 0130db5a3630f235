// Unit tests for src/base: PRNG, string helpers, JSON, units.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "src/analysis/export.h"
#include "src/base/json.h"
#include "src/base/line_cursor.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/text_writer.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"

namespace hwprof {
namespace {

// --- Rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  // Mean should be near 0.5.
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextExponential(100.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, BoolProbability) {
  Rng rng(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.25)) {
      ++heads;
    }
  }
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.02);
}

// --- Strings -----------------------------------------------------------------------

TEST(Strings, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
  EXPECT_EQ(StrFormat("%05u", 7u), "00007");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = Split("a//b/", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = Split("abc", '/');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitLinesDropsTrailingNewline) {
  const auto lines = SplitLines("a\nb\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_TRUE(SplitLines("").empty());
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("splnet", "spl"));
  EXPECT_FALSE(StartsWith("sp", "spl"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(Strings, ParseUintAccepts) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseUint("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint("65535", &v));
  EXPECT_EQ(v, 65535u);
}

TEST(Strings, ParseUintRejects) {
  std::uint64_t v = 0;
  EXPECT_FALSE(ParseUint("", &v));
  EXPECT_FALSE(ParseUint("-1", &v));
  EXPECT_FALSE(ParseUint("12x", &v));
  EXPECT_FALSE(ParseUint(" 1", &v));
  EXPECT_FALSE(ParseUint("99999999999999999999999", &v));
  EXPECT_TRUE(ParseUint("9223372036854775807", &v));
  EXPECT_EQ(v, 9223372036854775807u);
  EXPECT_FALSE(ParseUint("9223372036854775808", &v));
  EXPECT_FALSE(ParseUint("18446744073709551615", &v));
  EXPECT_EQ(v, 9223372036854775807u);  // untouched on failure
}

// --- Line and field cursors -------------------------------------------------------

// Texts at every line-shape edge: empty, a lone newline, no final newline,
// a doubled final newline, '\r', empty lines and separator runs.
const std::vector<std::string_view> kCursorTexts = {
    "", "\n", "\n\n", "a", "a\n", "a\n\n", "a\nb", "\na\n", "a\r\nb\r\n",
    "1 2\n3  4\n 5 6 \n\n7\t8", "x", " ", "  ", "1 2 ", " 1 2",
};

TEST(LineCursor, WalksTheLinesSplitLinesReturns) {
  for (std::string_view text : kCursorTexts) {
    const std::vector<std::string_view> expected = SplitLines(text);
    LineCursor lines(text);
    EXPECT_EQ(lines.CountRemaining(), expected.size()) << text;
    std::string_view line;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(lines.Next(&line)) << text;
      EXPECT_EQ(line, expected[i]) << text;
      EXPECT_EQ(lines.line_no(), static_cast<int>(i) + 1) << text;
      EXPECT_EQ(lines.AtEnd(), i + 1 == expected.size()) << text;
      EXPECT_EQ(lines.CountRemaining(), expected.size() - i - 1) << text;
    }
    EXPECT_FALSE(lines.Next(&line)) << text;
    EXPECT_TRUE(lines.AtEnd()) << text;
  }
}

TEST(LineCursor, CountsNewlinesAtEveryOffsetAndLength) {
  // Newlines among the bytes a word-at-a-time count could mistake for one.
  Rng rng(7);
  const std::string_view near = std::string_view("\n\x0b\x09\x8a\x00\xff\x0a\x80", 8);
  std::string text;
  for (int i = 0; i < 80; ++i) {
    text += near[rng.NextBelow(near.size())];
  }
  for (std::size_t begin = 0; begin < 9; ++begin) {
    for (std::size_t end = begin; end <= text.size(); ++end) {
      const std::string_view s = std::string_view(text).substr(begin, end - begin);
      EXPECT_EQ(CountNewlines(s), static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n')))
          << begin << ".." << end;
    }
  }
}

TEST(FieldCursor, FieldsMatchSplitAndNumbersMatchParseUint) {
  for (std::string_view line : kCursorTexts) {
    const std::vector<std::string_view> expected = Split(line, ' ');
    EXPECT_EQ(CountFields(line, ' '), expected.size()) << line;
    FieldCursor fields(line, ' ');
    std::string_view field;
    for (std::string_view want : expected) {
      ASSERT_TRUE(fields.Next(&field)) << line;
      EXPECT_EQ(field, want) << line;
    }
    EXPECT_FALSE(fields.Next(&field)) << line;
    EXPECT_TRUE(fields.done()) << line;
  }
  for (std::string_view field :
       {"0", "007", "65535", "9223372036854775807", "9223372036854775808",
        "18446744073709551615", "18446744073709551616", "", "+1", "-1", "1x", "x",
        "\t1", "1\r"}) {
    std::uint64_t want = 0;
    const bool ok = ParseUint(field, &want);
    // As a field followed by a separator, and as the last field of a line.
    const std::string followed = std::string(field) + " 5";
    FieldCursor first(followed, ' ');
    std::uint64_t got = 0;
    std::uint64_t next = 0;
    EXPECT_EQ(first.NextUint(&got) && first.NextUint(&next) && first.done(), ok) << field;
    FieldCursor last(field, ' ');
    EXPECT_EQ(last.NextUint(&got) && last.done(), ok) << field;
    if (ok) {
      EXPECT_EQ(got, want) << field;
      EXPECT_EQ(next, 5u) << field;
    }
  }
}

// --- TextWriter ------------------------------------------------------------------

// Every conversion the renderers use, written by TextWriter and by
// StrFormat for one value; the two must agree byte for byte.
void ExpectWriterMatchesPrintf(std::uint64_t u, std::int64_t s, double f,
                               const std::string& name) {
  const auto llu = static_cast<unsigned long long>(u);
  const auto lld = static_cast<long long>(s);
  auto written = [](auto&& write) {
    TextWriter w(0);
    write(w);
    return w.Take();
  };
  const std::string what = std::to_string(u) + " " + std::to_string(s) + " " + name;
  EXPECT_EQ(written([&](TextWriter& w) { w.Uint(u); }), StrFormat("%llu", llu)) << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.Uint(u, 9); }), StrFormat("%9llu", llu)) << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.Uint(u, 10); }), StrFormat("%10llu", llu)) << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.ZeroPadded(u, 3); }), StrFormat("%03llu", llu))
      << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.UsecFromNs(u); }),
            StrFormat("%llu.%03llu", llu / 1000, llu % 1000))
      << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.Int(s); }), StrFormat("%lld", lld)) << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.Signed(s, 9); }), StrFormat("%+9lld", lld)) << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.Left(name, 24); }),
            StrFormat("%-24s", name.c_str()))
      << what;
  EXPECT_EQ(written([&](TextWriter& w) {
              const std::size_t start = w.size();
              w.Int(s);
              w.AlignLeft(start, 6);
            }),
            StrFormat("%-6lld", lld))
      << what;
  EXPECT_EQ(written([&](TextWriter& w) {
              w.Append("x ");
              const std::size_t start = w.size();
              w.Append('(').Uint(u).Append('/').Uint(u % 1000).Append(')');
              w.AlignRight(start, 17);
            }),
            StrFormat("x %17s", StrFormat("(%llu/%llu)", llu, llu % 1000).c_str()))
      << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.Fixed2(f); }), StrFormat("%.2f", f)) << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.Fixed2(f, 5); }), StrFormat("%5.2f", f)) << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.Fixed2(f, 6); }), StrFormat("%6.2f", f)) << what;
  EXPECT_EQ(written([&](TextWriter& w) { w.Fixed2(f, 0, true); }), StrFormat("%+.2f", f))
      << what;
}

TEST(TextWriter, MatchesPrintfOnFixedVectors) {
  const std::uint64_t kUnsigned[] = {0, 9, 10, 999, 1000, UINT64_MAX};
  const std::int64_t kSigned[] = {0, 9, -9, 10, -10, 999, -999, 1000, -1000,
                                  123456789, -123456789, INT64_MAX, INT64_MIN};
  const double kDoubles[] = {0.0, -0.0, 0.004, 0.005, 0.125, -0.125, 2.675, 99.995,
                             100.0, -37.5, 1e15, -1e300};
  const std::string kNames[] = {"", "a", "bcopy", "exactly_twenty_four_char",
                                "a_name_longer_than_twenty_four_bytes"};
  for (std::size_t i = 0; i < std::size(kUnsigned); ++i) {
    for (std::size_t j = 0; j < std::size(kSigned); ++j) {
      ExpectWriterMatchesPrintf(kUnsigned[i], kSigned[j], kDoubles[j % std::size(kDoubles)],
                                kNames[(i + j) % std::size(kNames)]);
    }
  }
}

TEST(TextWriter, MatchesPrintfOnSeededRandomValues) {
  Rng rng(20261019);
  for (int i = 0; i < 2000; ++i) {
    // Magnitudes spread over every digit count, not just 19-digit values.
    const int bits = static_cast<int>(rng.NextBelow(65));
    const std::uint64_t u = bits == 0 ? 0 : rng.Next() >> (64 - bits);
    const auto s = static_cast<std::int64_t>(rng.Next() >> rng.NextBelow(64));
    const double f = (rng.NextDouble() - 0.5) * std::pow(10.0, rng.NextInRange(0, 8));
    const std::string name(rng.NextBelow(30), static_cast<char>('a' + rng.NextBelow(26)));
    ExpectWriterMatchesPrintf(u, rng.NextBool(0.5) ? s : -s, f, name);
  }
}

TEST(TextWriter, AppendsLiteralsAndJsonStrings) {
  TextWriter w(16);
  w.Append("{\"name\":").JsonString("a\"b\n").Append(',').Spaces(2).Append('}');
  EXPECT_EQ(w.size(), 20u);
  EXPECT_EQ(w.Take(), "{\"name\":\"a\\\"b\\n\",  }");
}

TEST(TextWriter, DecimalDigitsCountsWhatUintWrites) {
  const std::uint64_t kValues[] = {0,   9,    10,         99,          100,
                                   999, 1000, 9999999999, 10000000000, UINT64_MAX};
  for (const std::uint64_t v : kValues) {
    EXPECT_EQ(DecimalDigits(v), std::to_string(v).size()) << v;
  }
}

// --- Units ---------------------------------------------------------------------------

// --- JSON ----------------------------------------------------------------------

TEST(Json, AppendJsonStringPinsTheEscapeMap) {
  const struct {
    std::string_view in;
    std::string_view want;
  } kCases[] = {
      {"", R"("")"},
      {"\"", R"("\"")"},
      {"\\", R"("\\")"},
      {"\n", R"("\n")"},
      {"\r", R"("\r")"},
      {"\t", R"("\t")"},
      {"\x01", R"("\u0001")"},
      {"\x1f", R"("\u001f")"},
      {std::string_view("a\0b", 3), R"("a\u0000b")"},
      {"\x7f", "\"\x7f\""},
      {"r\xc3\xa9seau \xe2\x86\x92 ipintr", "\"r\xc3\xa9seau \xe2\x86\x92 ipintr\""},
      {"say \"hi\"\tto\\me", R"("say \"hi\"\tto\\me")"},
  };
  for (const auto& c : kCases) {
    std::string out = "[";
    AppendJsonString(c.in, &out);
    EXPECT_EQ(out.substr(1), c.want);
    out += "]";
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(ParseJson(out, &parsed, &error)) << error << ": " << out;
    ASSERT_EQ(parsed.arr.size(), 1u);
    EXPECT_EQ(parsed.arr[0].kind, JsonValue::kString);
    EXPECT_EQ(parsed.arr[0].str, c.in);
  }
}

TEST(Json, ParseJsonReadsEveryValueKind) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      " {\"a\": [-0, 0.5e-3, 1E+2, 12], \"b\": {\"c\": null}, \"d\": true, "
      "\"e\": false, \"f\": \"\\u0041\\/\\b\\f\"}\n",
      &v, &error))
      << error;
  ASSERT_EQ(v.kind, JsonValue::kObject);
  const JsonValue* a = v.Get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->arr.size(), 4u);
  EXPECT_EQ(a->arr[0].number, 0.0);
  EXPECT_EQ(a->arr[1].number, 0.5e-3);
  EXPECT_EQ(a->arr[2].number, 100.0);
  EXPECT_EQ(a->arr[3].number, 12.0);
  EXPECT_EQ(v.Get("b")->Get("c")->kind, JsonValue::kNull);
  EXPECT_TRUE(v.Get("d")->boolean);
  EXPECT_EQ(v.Get("e")->kind, JsonValue::kBool);
  EXPECT_FALSE(v.Get("e")->boolean);
  EXPECT_EQ(v.Get("f")->str, "A/\b\f");
  EXPECT_EQ(v.Get("missing"), nullptr);
}

// A one-event trace whose pid and name are spliced in unescaped.
std::string MetadataTrace(std::string_view pid, std::string_view name) {
  return "{\"traceEvents\":[{\"name\":\"" + std::string(name) +
         "\",\"ph\":\"M\",\"pid\":" + std::string(pid) + ",\"tid\":0}]}";
}

TEST(Json, StrictReaderRejectsWhatRfc8259Rejects) {
  std::string error;
  ASSERT_TRUE(ValidateTraceEventJson(MetadataTrace("1", "m"), &error)) << error;
  const std::string kInvalid[] = {
      MetadataTrace("1-2", "m"),
      MetadataTrace("1.2.3", "m"),
      MetadataTrace("+5", "m"),
      MetadataTrace("1e", "m"),
      MetadataTrace("01", "m"),
      MetadataTrace("1", "tab\there"),
      "",
      "{",
      "{\"a\":1,}",
      "[1,]",
      "\"\\u12\"",
      "\"\\u12",
      "-",
      "1.",
      ".5",
      "1e+",
      "tru",
      "\"open",
      "\"bad \\x escape\"",
      "{\"a\" 1}",
      "[1 2]",
      "{} {}",
      std::string(100000, '['),
  };
  for (const std::string& text : kInvalid) {
    JsonValue v;
    error.clear();
    EXPECT_FALSE(ParseJson(text, &v, &error)) << text.substr(0, 80);
    EXPECT_FALSE(error.empty()) << text.substr(0, 80);
    EXPECT_FALSE(ValidateTraceEventJson(text, nullptr)) << text.substr(0, 80);
  }
}

TEST(Json, EveryProperPrefixOfTheGoldenExportIsRejected) {
  std::ifstream in(std::string(HWPROF_TEST_DIR) + "/golden/small_export.json",
                   std::ios::binary);
  ASSERT_TRUE(in);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::string error;
  ASSERT_TRUE(ValidateTraceEventJson(text, &error)) << error;
  // The file ends in a newline; the prefix without it is still one value.
  const std::size_t body = text.find_last_not_of('\n') + 1;
  for (std::size_t n = 0; n < body; ++n) {
    JsonValue v;
    EXPECT_FALSE(ParseJson(std::string_view(text).substr(0, n), &v, nullptr)) << n;
  }
}

TEST(Units, Conversions) {
  EXPECT_EQ(Usec(3), 3000u);
  EXPECT_EQ(Msec(2), 2'000'000u);
  EXPECT_EQ(Sec(1), 1'000'000'000u);
  EXPECT_EQ(ToWholeUsec(1999), 1u);
  EXPECT_DOUBLE_EQ(ToMsecF(1'500'000), 1.5);
  EXPECT_DOUBLE_EQ(ToUsecF(1'500), 1.5);
}

// --- ThreadPool ----------------------------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnceBeforeDestruction) {
  for (unsigned workers : {0u, 1u, 4u}) {
    std::atomic<int> sum{0};
    {
      ThreadPool pool(workers);
      for (int i = 1; i <= 100; ++i) {
        pool.Submit([&sum, i] { sum.fetch_add(i); });
      }
    }
    EXPECT_EQ(sum.load(), 5050) << "workers=" << workers;
  }
}

TEST(ThreadPool, InlineModeHasNoThreads) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 0u);
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // ran synchronously on this thread
  EXPECT_GE(ThreadPool::DefaultJobs(), 1u);
}

}  // namespace
}  // namespace hwprof
