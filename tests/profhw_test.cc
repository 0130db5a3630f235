// Unit tests for src/profhw: timer wrap, event RAM, the Profiler board,
// capture serialisation and persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/profhw/event_ram.h"
#include "src/profhw/profiler.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/smart_socket.h"
#include "src/profhw/usec_timer.h"
#include "src/sim/bus.h"

namespace hwprof {
namespace {

// --- UsecTimer --------------------------------------------------------------------

TEST(UsecTimer, SamplesWholeMicroseconds) {
  UsecTimer timer;  // 24-bit, 1 MHz
  EXPECT_EQ(timer.Sample(0), 0u);
  EXPECT_EQ(timer.Sample(999), 0u);
  EXPECT_EQ(timer.Sample(1000), 1u);
  EXPECT_EQ(timer.Sample(1'500'000), 1500u);
}

TEST(UsecTimer, WrapsAt24Bits) {
  UsecTimer timer;
  // 2^24 µs = ~16.78 s.
  const Nanoseconds wrap = timer.WrapPeriod();
  EXPECT_EQ(wrap, (1ull << 24) * 1000ull);
  EXPECT_EQ(timer.Sample(wrap), 0u);
  EXPECT_EQ(timer.Sample(wrap + 5000), 5u);
}

TEST(UsecTimer, TicksBetweenHandlesWrap) {
  UsecTimer timer;
  // An interval that crosses the wrap: from near the top to just past 0.
  const std::uint32_t before = timer.Mask() - 10;
  const std::uint32_t after = 5;
  EXPECT_EQ(timer.TicksBetween(before, after), 16u);
  EXPECT_EQ(timer.TicksBetween(100, 100), 0u);
  EXPECT_EQ(timer.TicksBetween(100, 101), 1u);
}

TEST(UsecTimer, TicksToNs) {
  UsecTimer timer;
  EXPECT_EQ(timer.TicksToNs(3), 3000u);
}

// The 128-bit conversions, kept here as the oracle: the timer takes a
// whole-tick shortcut for rates that divide 10^9, and must agree with these
// for every input at every rate.
std::uint32_t OracleSample(Nanoseconds now, std::uint64_t hz, std::uint32_t mask) {
  const unsigned __int128 ticks = static_cast<unsigned __int128>(now) * hz / 1'000'000'000ULL;
  return static_cast<std::uint32_t>(ticks) & mask;
}

Nanoseconds OracleTicksToNs(std::uint64_t ticks, std::uint64_t hz) {
  return static_cast<Nanoseconds>(static_cast<unsigned __int128>(ticks) * 1'000'000'000ULL / hz);
}

TEST(UsecTimer, ConversionsEqualThe128BitFormulaExactly) {
  // Rates that divide 10^9 take the shortcut; 1,193,182 Hz (the PC's 8254
  // crystal) and 3 MHz do not.
  const std::uint64_t rates[] = {1'000'000, 2'000'000, 10'000'000, 1'000'000'000,
                                 1'193'182, 3'000'000};
  const unsigned widths[] = {16, 24, 32};
  for (const std::uint64_t hz : rates) {
    std::vector<UsecTimer> timers;
    for (const unsigned bits : widths) {
      timers.emplace_back(bits, hz);
    }
    // 0, wrap edges of every width (one tick either side), and instants
    // above 2^44 ns up to the top of the range.
    std::vector<Nanoseconds> instants = {0, 1, 999, 1000, 1001};
    for (const unsigned bits : widths) {
      for (const std::uint64_t wraps : {1ull, 2ull, 3ull, 1000ull}) {
        const Nanoseconds edge = OracleTicksToNs(wraps << bits, hz);
        for (const Nanoseconds delta : {0ull, 1ull, 2ull, 999ull, 1000ull, 1001ull}) {
          instants.push_back(edge - delta);
          instants.push_back(edge + delta);
        }
      }
    }
    for (const Nanoseconds big : {1ull << 44, (1ull << 44) + 999, (1ull << 50) + 12'345,
                                  1ull << 63, ~0ull - 1, ~0ull}) {
      instants.push_back(big);
    }
    // 10^6 seeded values of every magnitude.
    Rng rng(hz);
    for (int i = 0; i < 1'000'000; ++i) {
      instants.push_back(rng.Next() >> rng.NextBelow(64));
    }
    for (const Nanoseconds now : instants) {
      for (const UsecTimer& timer : timers) {
        ASSERT_EQ(timer.Sample(now), OracleSample(now, hz, timer.Mask()))
            << "hz=" << hz << " bits=" << timer.bits() << " now=" << now;
      }
      // `now` doubles as a tick count: every magnitude, wrap edges included.
      ASSERT_EQ(timers[0].TicksToNs(now), OracleTicksToNs(now, hz))
          << "hz=" << hz << " ticks=" << now;
    }
  }
}

// Future-work parameterisation: wider counters and faster clocks.
class UsecTimerParamTest : public ::testing::TestWithParam<std::pair<unsigned, std::uint64_t>> {};

TEST_P(UsecTimerParamTest, WrapAndIntervalInvariants) {
  const auto [bits, hz] = GetParam();
  UsecTimer timer(bits, hz);
  EXPECT_EQ(timer.Mask(), bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1u));
  // Round trip: an interval below the wrap period is preserved through
  // sample arithmetic.
  Rng rng(bits * 1000 + hz % 997);
  for (int i = 0; i < 200; ++i) {
    const Nanoseconds t0 = rng.NextBelow(100 * kSecond);
    // Keep the gap below one wrap period (the hardware contract) and align
    // to whole ticks so the comparison is exact.
    const std::uint64_t gap_ticks = rng.NextBelow(timer.Mask()) + 1;
    const Nanoseconds t1 = t0 + timer.TicksToNs(gap_ticks);
    const std::uint32_t s0 = timer.Sample(t0);
    const std::uint32_t s1 = timer.Sample(t1);
    const std::uint64_t recovered = timer.TicksBetween(s0, s1);
    // Sampling truncates sub-tick remainders of t0; allow one tick of slack.
    EXPECT_NEAR(static_cast<double>(recovered), static_cast<double>(gap_ticks), 1.0)
        << "bits=" << bits << " hz=" << hz;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, UsecTimerParamTest,
    ::testing::Values(std::make_pair(24u, 1'000'000ull),   // the prototype
                      std::make_pair(16u, 1'000'000ull),   // narrow: fast wrap
                      std::make_pair(32u, 1'000'000ull),   // future work: wide
                      std::make_pair(24u, 4'000'000ull),   // higher precision
                      std::make_pair(24u, 250'000ull)));   // slower clock

TEST(UsecTimerDeath, RejectsSillyWidths) {
  EXPECT_DEATH(UsecTimer(4, 1'000'000), "8..32");
}

// --- EventRam --------------------------------------------------------------------------

TEST(EventRam, StoresUntilFullThenLatchesOverflow) {
  EventRam ram(4);
  EXPECT_TRUE(ram.Store(1, 100));
  EXPECT_TRUE(ram.Store(2, 200));
  EXPECT_TRUE(ram.Store(3, 300));
  EXPECT_TRUE(ram.Store(4, 400));
  EXPECT_FALSE(ram.overflowed());
  EXPECT_FALSE(ram.Store(5, 500));
  EXPECT_TRUE(ram.overflowed());
  EXPECT_EQ(ram.used(), 4u);
  EXPECT_EQ(ram.Contents()[3], (RawEvent{4, 400}));
}

TEST(EventRam, ResetClearsEverything) {
  EventRam ram(2);
  ram.Store(1, 1);
  ram.Store(2, 2);
  ram.Store(3, 3);
  EXPECT_TRUE(ram.overflowed());
  ram.Reset();
  EXPECT_FALSE(ram.overflowed());
  EXPECT_EQ(ram.used(), 0u);
  EXPECT_TRUE(ram.Store(9, 9));
}

TEST(EventRam, DefaultDepthMatchesThePrototype) {
  EventRam ram;
  EXPECT_EQ(ram.depth(), 16384u);
}

// --- Profiler ---------------------------------------------------------------------------

TEST(Profiler, CapturesOnlyWhileArmed) {
  IsaBus bus;
  bus.InstallEpromSocket(0xD0000);
  Profiler profiler;
  profiler.PlugInto(bus);

  bus.Read8(0xD0000 + 10, Usec(1));  // not armed: ignored
  profiler.Arm();
  bus.Read8(0xD0000 + 20, Usec(2));
  bus.Read8(0xD0000 + 21, Usec(3));
  profiler.Disarm();
  bus.Read8(0xD0000 + 30, Usec(4));  // disarmed: ignored

  const RawTrace trace = profiler.Upload();
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].tag, 20);
  EXPECT_EQ(trace.events[0].timestamp, 2u);
  EXPECT_EQ(trace.events[1].tag, 21);
}

TEST(Profiler, LedsReflectState) {
  IsaBus bus;
  bus.InstallEpromSocket(0xD0000);
  Profiler profiler(ProfilerConfig{.ram_depth = 2});
  profiler.PlugInto(bus);
  EXPECT_FALSE(profiler.led_active());
  profiler.Arm();
  EXPECT_TRUE(profiler.led_active());
  EXPECT_FALSE(profiler.led_overflow());
  bus.Read8(0xD0000, Usec(1));
  bus.Read8(0xD0000, Usec(2));
  bus.Read8(0xD0000, Usec(3));  // overflows
  EXPECT_TRUE(profiler.led_overflow());
  EXPECT_FALSE(profiler.led_active());
  EXPECT_TRUE(profiler.Upload().overflowed);
}

TEST(Profiler, ArmClearsPreviousCapture) {
  IsaBus bus;
  bus.InstallEpromSocket(0xD0000);
  Profiler profiler;
  profiler.PlugInto(bus);
  profiler.Arm();
  bus.Read8(0xD0000 + 1, Usec(1));
  profiler.Disarm();
  profiler.Arm();
  EXPECT_EQ(profiler.events_captured(), 0u);
}

TEST(Profiler, TimestampWrapsWithTheCounter) {
  IsaBus bus;
  bus.InstallEpromSocket(0xD0000);
  Profiler profiler;
  profiler.PlugInto(bus);
  profiler.Arm();
  const Nanoseconds wrap = profiler.timer().WrapPeriod();
  bus.Read8(0xD0000 + 1, wrap - Usec(1));
  bus.Read8(0xD0000 + 2, wrap + Usec(7));
  const RawTrace trace = profiler.Upload();
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].timestamp, (1u << 24) - 1);
  EXPECT_EQ(trace.events[1].timestamp, 7u);
}

// --- RawTrace serialisation ---------------------------------------------------------------

TEST(RawTrace, SerializeDeserializeRoundTrip) {
  RawTrace trace;
  trace.timer_bits = 24;
  trace.timer_clock_hz = 1'000'000;
  trace.overflowed = true;
  trace.events = {{502, 100}, {503, 0xFFFFFF}, {0, 0}};
  RawTrace loaded;
  ASSERT_TRUE(RawTrace::Deserialize(trace.Serialize(), &loaded));
  EXPECT_EQ(loaded.events, trace.events);
  EXPECT_EQ(loaded.timer_bits, trace.timer_bits);
  EXPECT_EQ(loaded.timer_clock_hz, trace.timer_clock_hz);
  EXPECT_EQ(loaded.overflowed, trace.overflowed);
}

TEST(RawTrace, RoundTripRandomised) {
  Rng rng(1993);
  for (int round = 0; round < 40; ++round) {
    RawTrace trace;
    trace.timer_bits = static_cast<unsigned>(rng.NextInRange(8, 32));
    trace.timer_clock_hz = rng.NextInRange(1, 10'000'000);
    trace.overflowed = rng.NextBool(0.5);
    if (rng.NextBool(0.5)) {
      trace.dropped_events = rng.NextBelow(100000);
    }
    if (rng.NextBool(0.5)) {
      trace.capture_elapsed_ns = rng.NextBelow(100'000'000'000ull);
    }
    const std::uint32_t mask = trace.TimerMask();
    const std::size_t n = rng.NextBelow(200);
    for (std::size_t i = 0; i < n; ++i) {
      // Stored timestamps never exceed the header's timer width — that is
      // exactly what Deserialize validates.
      trace.events.push_back(RawEvent{static_cast<std::uint16_t>(rng.NextBelow(65536)),
                                      static_cast<std::uint32_t>(rng.NextBelow(1u << 24)) & mask});
    }
    RawTrace loaded;
    ASSERT_TRUE(RawTrace::Deserialize(trace.Serialize(), &loaded));
    EXPECT_EQ(loaded.events, trace.events);
    EXPECT_EQ(loaded.dropped_events, trace.dropped_events);
    EXPECT_EQ(loaded.capture_elapsed_ns, trace.capture_elapsed_ns);
    EXPECT_EQ(loaded.overflowed, trace.overflowed);
  }
}

TEST(RawTrace, DeserializeRejectsGarbage) {
  RawTrace out;
  EXPECT_FALSE(RawTrace::Deserialize("", &out));
  EXPECT_FALSE(RawTrace::Deserialize("not-a-capture\n", &out));
  EXPECT_FALSE(RawTrace::Deserialize("hwprof-raw v2 24 1000000 0\n", &out));
  EXPECT_FALSE(RawTrace::Deserialize("hwprof-raw v1 24 1000000 0\n1 2 3\n", &out));
  EXPECT_FALSE(RawTrace::Deserialize("hwprof-raw v1 24 1000000 0\n99999999 1\n", &out));
  EXPECT_FALSE(RawTrace::Deserialize("hwprof-raw v1 99 1000000 0\n", &out));
  EXPECT_FALSE(RawTrace::Deserialize("hwprof-raw v1 24 1000000 0 bogus=1\n", &out));
}

TEST(RawTrace, DeserializeRejectsTimestampsBeyondTheTimerMask) {
  // A 16-bit header cannot carry a 17-bit timestamp: the counter never
  // produced that word.
  RawTrace out;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(RawTrace::Deserialize("hwprof-raw v1 16 1000000 0\n100 65536\n",
                                     &out, &diags));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("exceeds the 16-bit timer mask"),
            std::string::npos);
  // The same value under a wider header is fine.
  EXPECT_TRUE(RawTrace::Deserialize("hwprof-raw v1 24 1000000 0\n100 65536\n", &out));
}

TEST(RawTrace, DeserializeReportsEveryBadLineWithItsNumber) {
  RawTrace out;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(RawTrace::Deserialize(
      "hwprof-raw v1 24 1000000 0\n100 10\njunk\n100 20\n1 2 3\n", &out, &diags));
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_EQ(diags[1].line, 5);
  EXPECT_FALSE(diags[0].message.empty());
}

TEST(RawTrace, SalvageKeepsGoodEventsAndCountsCorruptWords) {
  RawTrace out;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(RawTrace::DeserializeSalvage(
      "hwprof-raw v1 24 1000000 0\n100 10\njunk\n100 20\n1 2 3\n", &out, &diags,
      &corrupt));
  EXPECT_EQ(corrupt, 2u);
  EXPECT_EQ(diags.size(), 2u);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0], (RawEvent{100, 10}));
  EXPECT_EQ(out.events[1], (RawEvent{100, 20}));
}

// --- Smart socket file persistence -----------------------------------------------------------

TEST(SmartSocket, SaveLoadRoundTrip) {
  RawTrace trace;
  trace.events = {{1386, 42}, {1387, 99}};
  const std::string path = ::testing::TempDir() + "/capture.hwprof";
  ASSERT_TRUE(SaveCapture(trace, path));
  RawTrace loaded;
  ASSERT_TRUE(LoadCapture(path, &loaded));
  EXPECT_EQ(loaded.events, trace.events);
  std::remove(path.c_str());
}

TEST(SmartSocket, LoadMissingFileFails) {
  RawTrace out;
  EXPECT_FALSE(LoadCapture("/nonexistent/path/x.hwprof", &out));
}

}  // namespace
}  // namespace hwprof
