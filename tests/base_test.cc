// Unit tests for src/base: PRNG, string helpers, units.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

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
