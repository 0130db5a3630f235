// ZIF in-band readout: byte-exact equality with the battery-backed upload,
// cost accounting, and capture isolation while in readout mode.

#include <gtest/gtest.h>

#include "src/analysis/decoder.h"
#include "src/instr/readout.h"
#include "src/kern/user_env.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

TEST(Readout, MatchesUploadExactly) {
  Testbed tb;
  Kernel& k = tb.kernel();
  tb.Arm();
  RunForkExec(tb, 2, Sec(5));
  tb.profiler().Disarm();
  const RawTrace uploaded = tb.profiler().Upload();
  ASSERT_GT(uploaded.events.size(), 100u);

  const RawTrace in_band = InBandReadout(tb.machine(), tb.instr(), tb.profiler());
  EXPECT_EQ(in_band.events, uploaded.events);
  EXPECT_EQ(in_band.timer_bits, uploaded.timer_bits);
  EXPECT_EQ(in_band.overflowed, uploaded.overflowed);
  (void)k;
}

TEST(Readout, ReadoutModeDoesNotCaptureItsOwnReads) {
  Testbed tb;
  tb.Arm();
  tb.kernel().Run(Msec(200));
  tb.profiler().Disarm();
  const std::size_t before = tb.profiler().events_captured();
  InBandReadout(tb.machine(), tb.instr(), tb.profiler());
  EXPECT_EQ(tb.profiler().events_captured(), before);
}

TEST(Readout, CostsRealBusTime) {
  Testbed tb;
  tb.Arm();
  tb.kernel().Run(Msec(500));
  tb.profiler().Disarm();
  const std::size_t events = tb.profiler().events_captured();
  ASSERT_GT(events, 50u);
  const Nanoseconds before = tb.machine().Now();
  InBandReadout(tb.machine(), tb.instr(), tb.profiler());
  const Nanoseconds spent = tb.machine().Now() - before;
  // 5 bytes per event plus the header, one ~200 ns bus cycle each.
  const Nanoseconds floor = static_cast<Nanoseconds>(events) * 5 *
                            tb.machine().cost().trigger_read_ns;
  EXPECT_GE(spent, floor);
  EXPECT_LT(spent, floor * 3);
}

TEST(Readout, EmptyCaptureReadsBack) {
  Testbed tb;
  tb.Arm();
  tb.profiler().Disarm();
  const RawTrace in_band = InBandReadout(tb.machine(), tb.instr(), tb.profiler());
  EXPECT_TRUE(in_band.events.empty());
}

TEST(Readout, FullPipelineThroughDecoder) {
  // The fast-turnaround workflow end to end: capture -> in-band readout ->
  // decode. The summary must match one decoded from the manual upload.
  Testbed tb;
  tb.Arm();
  RunNetworkReceive(tb, Sec(1), 32 * 1024, false);
  tb.profiler().Disarm();
  const RawTrace uploaded = tb.profiler().Upload();
  const RawTrace in_band = InBandReadout(tb.machine(), tb.instr(), tb.profiler());
  DecodedTrace a = Decoder::Decode(uploaded, tb.tags());
  DecodedTrace b = Decoder::Decode(in_band, tb.tags());
  ASSERT_EQ(a.per_function.size(), b.per_function.size());
  for (std::size_t i = 0; i < a.per_function.size(); ++i) {
    const std::string& name = tb.tags().entries()[i].name;
    EXPECT_EQ(a.per_function[i].calls, b.per_function[i].calls) << name;
    EXPECT_EQ(a.per_function[i].net, b.per_function[i].net) << name;
  }
}

}  // namespace
}  // namespace hwprof
