// Unit tests for src/base: PRNG, string helpers, JSON, units.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "src/analysis/export.h"
#include "src/base/json.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
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
