// Double-buffered (streaming) capture: bank switching, the drain-port
// register file, drop accounting, the kernel-side drain routines, and the
// long-run acceptance property — a capture far beyond one RAM's depth whose
// incremental decode matches the one-shot decode byte for byte.

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <utility>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/instr/linker.h"
#include "src/instr/profile_scope.h"
#include "src/instr/readout.h"
#include "src/profhw/profiler.h"
#include "src/profhw/smart_socket.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"
#include "tests/reference_drain.h"

namespace hwprof {
namespace {

ProfilerConfig SmallDoubleBuffer(std::size_t depth) {
  ProfilerConfig config;
  config.ram_depth = depth;
  config.double_buffer = true;
  return config;
}

// Reads one drain-port byte straight off the board (the bus would deliver
// exactly this byte on a socket read of the port address).
std::uint8_t PortByte(Profiler& p, std::uint16_t port) {
  std::uint8_t data = 0xFF;
  p.ProvideEpromData(port, &data);
  return data;
}

std::uint32_t PortU32(Profiler& p, std::uint16_t port) {
  std::uint32_t value = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(PortByte(p, static_cast<std::uint16_t>(port + i)))
             << (8 * i);
  }
  return value;
}

TEST(DoubleBuffer, FillSealsAndSwapsWithoutLosingEvents) {
  Profiler p(SmallDoubleBuffer(4));
  p.Arm();
  for (std::uint16_t i = 0; i < 4; ++i) {
    p.OnEpromRead(static_cast<std::uint16_t>(100 + i), (i + 1) * kMicrosecond);
  }
  // The bank is full but not sealed yet: the swap happens on the next store.
  EXPECT_FALSE(p.standby_ready());
  EXPECT_EQ(p.events_captured(), 4u);

  p.OnEpromRead(110, 10 * kMicrosecond);
  EXPECT_TRUE(p.standby_ready());
  EXPECT_EQ(p.bank_switches(), 1u);
  EXPECT_EQ(p.events_captured(), 5u);
  EXPECT_EQ(p.total_captured(), 5u);
  EXPECT_EQ(p.dropped_events(), 0u);
  EXPECT_FALSE(p.led_overflow());
}

TEST(DoubleBuffer, DrainPortsServeTheSealedBank) {
  Profiler p(SmallDoubleBuffer(3));
  p.Arm();
  p.OnEpromRead(100, 1 * kMicrosecond);
  p.OnEpromRead(101, 2 * kMicrosecond);
  p.OnEpromRead(100, 3 * kMicrosecond);
  p.OnEpromRead(101, 4 * kMicrosecond);  // forces the swap

  EXPECT_EQ(PortByte(p, kDrainStatusPort) & kDrainStatusReady, kDrainStatusReady);
  EXPECT_EQ(PortByte(p, kDrainStatusPort) & kDrainStatusArmed, kDrainStatusArmed);
  EXPECT_EQ(PortByte(p, kDrainStatusPort) & kDrainStatusDropped, 0);
  EXPECT_EQ(PortU32(p, kDrainCountPort), 3u);
  EXPECT_EQ(PortU32(p, kDrainDropPort), 0u);

  // Auto-incrementing data port: 3 tags (2 bytes each), then 3 timestamps
  // (3 bytes each), all little-endian.
  const std::uint16_t expected_tags[3] = {100, 101, 100};
  for (int i = 0; i < 3; ++i) {
    const std::uint16_t lo = PortByte(p, kDrainDataPort);
    const std::uint16_t hi = PortByte(p, kDrainDataPort);
    EXPECT_EQ(static_cast<std::uint16_t>(lo | (hi << 8)), expected_tags[i]);
  }
  for (int i = 0; i < 3; ++i) {
    std::uint32_t ts = 0;
    for (int b = 0; b < 3; ++b) {
      ts |= static_cast<std::uint32_t>(PortByte(p, kDrainDataPort)) << (8 * b);
    }
    EXPECT_EQ(ts, static_cast<std::uint32_t>(i + 1));
  }

  // Release frees the bank for the next swap.
  EXPECT_EQ(PortByte(p, kDrainReleasePort), kDrainAck);
  EXPECT_FALSE(p.standby_ready());
  EXPECT_EQ(p.events_captured(), 1u);  // the event that forced the swap
}

TEST(DoubleBuffer, TriggerWindowReadsAreCapturedDrainWindowReadsAreNot) {
  Profiler p(SmallDoubleBuffer(8));
  p.Arm();
  p.OnEpromRead(100, 1 * kMicrosecond);
  p.OnEpromRead(kDrainStatusPort, 2 * kMicrosecond);  // A15 high: not an event
  p.OnEpromRead(kDrainDataPort, 3 * kMicrosecond);
  p.OnEpromRead(101, 4 * kMicrosecond);
  EXPECT_EQ(p.total_captured(), 2u);
}

TEST(DoubleBuffer, DropsAreCountedAndStampedOnTheNextBank) {
  Profiler p(SmallDoubleBuffer(2));
  p.Arm();
  p.OnEpromRead(100, 1 * kMicrosecond);
  p.OnEpromRead(101, 2 * kMicrosecond);  // bank 0 full
  p.OnEpromRead(102, 3 * kMicrosecond);  // swap; bank 1: [102]
  p.OnEpromRead(103, 4 * kMicrosecond);  // bank 1 full
  p.OnEpromRead(104, 5 * kMicrosecond);  // both banks full: dropped
  p.OnEpromRead(105, 6 * kMicrosecond);  // dropped
  EXPECT_EQ(p.dropped_events(), 2u);
  EXPECT_EQ(p.pending_drops(), 2u);
  EXPECT_TRUE(p.led_overflow());
  EXPECT_EQ(PortByte(p, kDrainStatusPort) & kDrainStatusDropped, kDrainStatusDropped);

  // Bank 0 drains with no drops before its first event.
  EXPECT_EQ(PortU32(p, kDrainDropPort), 0u);
  EXPECT_EQ(PortByte(p, kDrainReleasePort), kDrainAck);

  // The next stored event swaps bank 1 out; the 2 drops that preceded it
  // are stamped into the new bank's header.
  p.OnEpromRead(106, 7 * kMicrosecond);
  EXPECT_EQ(p.pending_drops(), 0u);
  ASSERT_TRUE(p.standby_ready());
  EXPECT_EQ(PortU32(p, kDrainCountPort), 2u);  // bank 1: [102, 103]
  EXPECT_EQ(PortU32(p, kDrainDropPort), 0u);   // nothing dropped before 102
  EXPECT_EQ(PortByte(p, kDrainReleasePort), kDrainAck);

  // Host-commanded seal of the active bank: [106] with 2 drops before it.
  EXPECT_EQ(PortByte(p, kDrainSealPort), kDrainAck);
  ASSERT_TRUE(p.standby_ready());
  EXPECT_EQ(PortU32(p, kDrainCountPort), 1u);
  EXPECT_EQ(PortU32(p, kDrainDropPort), 2u);
}

// A board on its own bus, armed, with `stored` events latched.
struct BoardOnBus {
  BoardOnBus(std::size_t depth, std::uint16_t stored) : board(SmallDoubleBuffer(depth)) {
    bus.InstallEpromSocket(kDefaultEpromSocketPhys);
    board.PlugInto(bus);
    board.Arm();
    for (std::uint16_t i = 0; i < stored; ++i) {
      bus.Read8(kDefaultEpromSocketPhys + 100 + i, (i + 1) * kMicrosecond);
    }
  }
  std::vector<std::uint8_t> Span(std::uint16_t port, std::size_t n) {
    std::vector<std::uint8_t> data(n, 0);
    bus.ReadSpan(kDefaultEpromSocketPhys + port, 9 * kMicrosecond, data.data(), n);
    return data;
  }
  IsaBus bus;
  Profiler board;
};

TEST(DoubleBuffer, DataSpanMatchesSingleReadsAndFloatsPastTheEnd) {
  BoardOnBus singles(3, 4);  // 4th store seals [100, 101, 102]
  BoardOnBus spans(3, 4);
  ASSERT_TRUE(spans.board.standby_ready());
  std::vector<std::uint8_t> expected;
  for (int i = 0; i < 3 * 5 + 4; ++i) {
    std::uint8_t b = 0;
    singles.bus.Read8(kDefaultEpromSocketPhys + kDrainDataPort, 9 * kMicrosecond, &b);
    expected.push_back(b);
  }
  // Ragged pieces (mid-tag, mid-timestamp) resume where the last one stopped;
  // the last runs 4 bytes past the bank and floats.
  std::vector<std::uint8_t> got = spans.Span(kDrainDataPort, 3);
  for (std::size_t n : {5, 11}) {
    const std::vector<std::uint8_t> part = spans.Span(kDrainDataPort, n);
    got.insert(got.end(), part.begin(), part.end());
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(std::vector<std::uint8_t>(got.end() - 4, got.end()),
            std::vector<std::uint8_t>(4, 0xFF));
  EXPECT_EQ(got[0], 100);  // first tag, low byte
  EXPECT_EQ(got[6], 1);    // first timestamp (1 us), low byte
  EXPECT_EQ(spans.board.total_captured(), 4u);  // drain-port spans latch nothing
  EXPECT_EQ(spans.bus.eprom_read_count(), singles.bus.eprom_read_count());
}

TEST(DoubleBuffer, DataSpanWithNoSealedBankFloats) {
  BoardOnBus b(3, 2);  // nothing sealed yet
  ASSERT_FALSE(b.board.standby_ready());
  EXPECT_EQ(b.Span(kDrainDataPort, 6), std::vector<std::uint8_t>(6, 0xFF));
  // The floating span moved no cursor: the sealed bank reads from its start.
  EXPECT_EQ(b.Span(kDrainSealPort, 1)[0], kDrainAck);
  EXPECT_EQ(b.Span(kDrainDataPort, 2), (std::vector<std::uint8_t>{100, 0}));
  EXPECT_EQ(b.board.total_captured(), 2u);
}

TEST(DoubleBuffer, UploadConcatenatesSealedThenActive) {
  Profiler p(SmallDoubleBuffer(2));
  p.Arm();
  for (std::uint16_t i = 0; i < 3; ++i) {
    p.OnEpromRead(static_cast<std::uint16_t>(100 + i), (i + 1) * kMicrosecond);
  }
  const RawTrace up = p.Upload();
  ASSERT_EQ(up.events.size(), 3u);
  EXPECT_EQ(up.events[0].tag, 100u);  // sealed bank first: its events are older
  EXPECT_EQ(up.events[1].tag, 101u);
  EXPECT_EQ(up.events[2].tag, 102u);
  EXPECT_FALSE(up.overflowed);
}

// --- Kernel-side drain on the full rig ---------------------------------------

TestbedConfig StreamingRig(std::size_t depth = kDefaultEventRamDepth) {
  TestbedConfig config;
  config.profiler = SmallDoubleBuffer(depth);
  return config;
}

TEST(StreamingDrain, DrainRemainingMatchesUpload) {
  Testbed tb(StreamingRig(256));
  tb.Arm();
  RunNetworkReceive(tb, Sec(1), 8 * 1024, /*verify_payload=*/false);
  tb.profiler().Disarm();

  // Upload is non-destructive, so it is the ground truth for the drain.
  const RawTrace up = tb.profiler().Upload();
  ASSERT_GT(up.events.size(), 256u);  // several bank switches happened

  std::vector<TraceChunk> chunks;
  DrainRemaining(tb.machine(), tb.instr(), tb.profiler(), &chunks);
  std::vector<RawEvent> flat;
  for (const TraceChunk& c : chunks) {
    flat.insert(flat.end(), c.events.begin(), c.events.end());
  }
  // The mid-run banks were never drained here, so only the still-resident
  // events (sealed + active) can come out — exactly Upload's view.
  EXPECT_EQ(flat, up.events);
  EXPECT_EQ(tb.profiler().events_captured(), 0u);  // drained banks are released
}

// Machine, instrumentation and a double-buffered board, with no kernel: no
// event is pending unless a test schedules it. The interrupt hook runs one
// profiled handler ("xintr") per raised IRQ, so its triggers land in the
// active bank while a drain is in progress.
struct BareRig {
  explicit BareRig(std::size_t depth) : profiler(SmallDoubleBuffer(depth)) {
    handler = instr.RegisterFunction("xintr", Subsys::kNet);
    instr.RegisterFunction("profdrain", Subsys::kLib);
    Linker::Link(machine, instr, 600 * 1024);
    profiler.PlugInto(machine.bus());
    profiler.Arm();
    machine.cpu().SetInterruptHook([this] {
      if (irq_pending) {
        irq_pending = false;
        ProfileScope scope(machine, instr, handler);
        machine.cpu().Use(300);
      }
    });
  }
  // Runs the profiled handler once outside any interrupt: two events.
  void Handler() {
    ProfileScope scope(machine, instr, handler);
  }
  Nanoseconds c() const { return machine.cost().trigger_read_ns; }

  Machine machine;
  TagFile tags;
  Instrumenter instr{&tags};
  Profiler profiler;
  FuncInfo* handler = nullptr;
  bool irq_pending = false;
};

TEST(StreamingDrain, DrainChargesOneBusCyclePerByte) {
  BareRig rig(8);
  for (int i = 0; i < 5; ++i) {
    rig.Handler();  // 10 events: 8 sealed, 2 in the active bank
  }
  ASSERT_TRUE(rig.profiler.standby_ready());
  ASSERT_TRUE(rig.machine.events().Empty());
  const Nanoseconds t0 = rig.machine.Now();
  const Nanoseconds busy0 = rig.machine.cpu().busy_ns();
  const std::uint64_t reads0 = rig.machine.bus().eprom_read_count();
  TraceChunk chunk;
  ASSERT_TRUE(DrainChunk(rig.machine, rig.instr, rig.profiler, &chunk));
  ASSERT_EQ(chunk.events.size(), 8u);
  // Status 1 + count 4 + drops 4 + release 1 port bytes, 5 data bytes per
  // event, and profdrain's entry and exit triggers: one bus cycle each.
  const std::uint64_t cycles = 10 + 5 * 8 + 2;
  EXPECT_EQ(rig.machine.Now() - t0, cycles * rig.c());
  EXPECT_EQ(rig.machine.cpu().busy_ns() - busy0, cycles * rig.c());
  EXPECT_EQ(rig.machine.bus().eprom_read_count() - reads0, cycles);
}

// Everything the span drain and the byte-loop reference must agree on.
struct DrainOutcome {
  std::vector<TraceChunk> chunks;
  Nanoseconds now = 0;
  Nanoseconds busy = 0;
  std::uint64_t bus_reads = 0;
  std::uint64_t dropped = 0;
  std::uint64_t pending_drops = 0;
  std::uint64_t bank_switches = 0;
  std::uint64_t captured = 0;
  std::vector<std::pair<int, Nanoseconds>> log;  // device events: (what, when)
  // Drained events between a profdrain entry and its exit (full rigs only;
  // follows from the chunks).
  std::uint64_t inside_drains = 0;
};

void Observe(Machine& machine, const Profiler& profiler, DrainOutcome* out) {
  out->now = machine.Now();
  out->busy = machine.cpu().busy_ns();
  out->bus_reads = machine.bus().eprom_read_count();
  out->dropped = profiler.dropped_events();
  out->pending_drops = profiler.pending_drops();
  out->bank_switches = profiler.bank_switches();
  out->captured = profiler.total_captured();
}

void ExpectSameOutcome(const DrainOutcome& span, const DrainOutcome& ref) {
  EXPECT_EQ(span.chunks, ref.chunks);
  EXPECT_EQ(span.now, ref.now);
  EXPECT_EQ(span.busy, ref.busy);
  EXPECT_EQ(span.bus_reads, ref.bus_reads);
  EXPECT_EQ(span.dropped, ref.dropped);
  EXPECT_EQ(span.pending_drops, ref.pending_drops);
  EXPECT_EQ(span.bank_switches, ref.bank_switches);
  EXPECT_EQ(span.captured, ref.captured);
  EXPECT_EQ(span.log, ref.log);
}

using DrainChunkFn = bool (*)(Machine&, Instrumenter&, Profiler&, TraceChunk*);
using DrainRemainingFn = void (*)(Machine&, Instrumenter&, Profiler&, std::vector<TraceChunk>*);

constexpr Nanoseconds kBareStart = 1 * kMillisecond;
constexpr Nanoseconds kHandlerWork = 300;  // BareRig's handler body
constexpr Nanoseconds kStolenExtra = 120;  // event-context CPU beyond one cycle

// One drain of a 6-event sealed bank, run as a device event the way the
// streaming receive runs it, with device activity placed in and around the
// 30-byte data span. The span starts 10 cycles into the drain (the entry
// trigger, then the status, count and drop ports).
DrainOutcome BareDrain(DrainChunkFn drain) {
  BareRig rig(6);
  for (int i = 0; i < 4; ++i) {
    rig.Handler();  // 8 events: 6 sealed, 2 active
  }
  const Nanoseconds c = rig.c();
  const Nanoseconds span = kBareStart + 10 * c;
  const Nanoseconds service = 2 * c + kHandlerWork;
  DrainOutcome out;
  auto mark = [&](int what) { out.log.push_back({what, rig.machine.Now()}); };
  EventQueue& q = rig.machine.events();
  q.ScheduleAt(kBareStart, [&] {
    mark(0);
    drain(rig.machine, rig.instr, rig.profiler, &out.chunks.emplace_back());
  });
  q.ScheduleAt(span + 2 * c, [&] { mark(1); });  // exactly on a byte boundary
  q.ScheduleAt(span + 3 * c + 77, [&] {          // inside byte 4: an interrupt
    mark(2);
    rig.irq_pending = true;
  });
  // Inside byte 11: CPU used from event context, which does not extend the
  // byte's deadline, so it runs past the byte boundary.
  q.ScheduleAt(span + 10 * c + service + 5, [&] {
    mark(3);
    rig.machine.cpu().Use(c + kStolenExtra);
  });
  q.ScheduleAt(span + 30 * c + service + 5 + kStolenExtra, [&] { mark(4); });  // span end
  rig.machine.cpu().IdleWait(kBareStart);
  Observe(rig.machine, rig.profiler, &out);
  return out;
}

TEST(DrainSpanEquivalence, DeviceEventsInAndAroundTheSpan) {
  const DrainOutcome ref = BareDrain(&ReferenceDrainChunk);
  const DrainOutcome span = BareDrain(&DrainChunk);
  ExpectSameOutcome(span, ref);
  // The schedule hit what it aimed at: the handler ran mid-span and its
  // triggers went to the active bank; the end event ran at the span's end,
  // i.e. at the start of the release read, before the exit trigger.
  const Nanoseconds c = CostModel::I386Dx40().trigger_read_ns;
  const Nanoseconds service = 2 * c + kHandlerWork;
  const std::vector<std::pair<int, Nanoseconds>> expected_log = {
      {0, kBareStart},
      {1, kBareStart + 12 * c},
      {2, kBareStart + 13 * c + 77},
      {3, kBareStart + 20 * c + service + 5},
      {4, kBareStart + 40 * c + service + 5 + kStolenExtra}};
  EXPECT_EQ(ref.log, expected_log);
  ASSERT_EQ(ref.chunks.size(), 1u);
  EXPECT_EQ(ref.chunks[0].events.size(), 6u);
  EXPECT_EQ(ref.captured, 8u + 4u);  // + profdrain entry/exit, xintr entry/exit
  EXPECT_EQ(ref.now, kBareStart + 42 * c + service + 5 + kStolenExtra);
}

// Periodic drains of a saturating receive on twin full rigs: the kernel's
// own interrupt handlers run inside drains and trigger into the active bank.
DrainOutcome RigDrain(std::size_t depth, Nanoseconds period, std::uint64_t stream_bytes,
                      DrainChunkFn drain, DrainRemainingFn remaining) {
  Testbed tb(StreamingRig(depth));
  tb.Arm();
  DrainOutcome out;
  bool stopped = false;
  std::function<void()> poll = [&] {
    if (stopped) {
      return;
    }
    TraceChunk chunk;
    if (drain(tb.machine(), tb.instr(), tb.profiler(), &chunk)) {
      out.chunks.push_back(std::move(chunk));
    }
    tb.machine().events().ScheduleAt(tb.machine().Now() + period, [&poll] { poll(); });
  };
  tb.machine().events().ScheduleAt(tb.machine().Now() + period, [&poll] { poll(); });
  RunNetworkReceive(tb, Sec(4), stream_bytes, /*verify_payload=*/false);
  stopped = true;
  tb.profiler().Disarm();
  remaining(tb.machine(), tb.instr(), tb.profiler(), &out.chunks);
  Observe(tb.machine(), tb.profiler(), &out);

  const FuncInfo* f = tb.instr().Find("profdrain");
  bool inside = false;
  for (const TraceChunk& chunk : out.chunks) {
    for (const RawEvent& e : chunk.events) {
      if (e.tag == f->entry_tag || e.tag == f->exit_tag()) {
        inside = e.tag == f->entry_tag;
      } else if (inside) {
        ++out.inside_drains;
      }
    }
  }
  return out;
}

TEST(DrainSpanEquivalence, InterruptsTriggerIntoTheActiveBankMidDrain) {
  const DrainOutcome ref = RigDrain(kDefaultEventRamDepth, 100 * kMillisecond, 1024 * 1024,
                                    &ReferenceDrainChunk, &ReferenceDrainRemaining);
  const DrainOutcome span = RigDrain(kDefaultEventRamDepth, 100 * kMillisecond, 1024 * 1024,
                                     &DrainChunk, &DrainRemaining);
  ExpectSameOutcome(span, ref);
  EXPECT_EQ(ref.dropped, 0u);
  EXPECT_GT(ref.bank_switches, 3u);
  EXPECT_GT(ref.inside_drains, 0u);  // interrupt handlers ran inside drains
}

TEST(DrainSpanEquivalence, SlowDrainOfASmallBoardDrops) {
  const DrainOutcome ref =
      RigDrain(256, 50 * kMillisecond, 256 * 1024, &ReferenceDrainChunk, &ReferenceDrainRemaining);
  const DrainOutcome span =
      RigDrain(256, 50 * kMillisecond, 256 * 1024, &DrainChunk, &DrainRemaining);
  ExpectSameOutcome(span, ref);
  EXPECT_GT(ref.dropped, 0u);
  EXPECT_GT(ref.bank_switches, 10u);
}

TEST(StreamingDrain, PeriodicDrainKeepsUpWithTheSaturatingReceive) {
  Testbed tb(StreamingRig());
  tb.Arm();
  const StreamingRunResult r =
      RunStreamingNetworkReceive(tb, Sec(8), 512 * 1024, 100 * kMillisecond);
  EXPECT_GT(r.net.bytes_received, 0u);
  EXPECT_GT(r.drains, 0u);
  // A 100 ms drain period beats the ~0.4 s bank fill time: nothing dropped.
  EXPECT_EQ(r.events_dropped, 0u);
  EXPECT_EQ(tb.profiler().dropped_events(), 0u);
  EXPECT_EQ(r.events_drained, tb.profiler().total_captured());
  EXPECT_GT(r.events_drained, tb.profiler().capacity());
}

// The tentpole acceptance property: a capture an order of magnitude past the
// 16384-event RAM, streamed out bank by bank, whose incremental decode is
// byte-identical (Figure 3 report and all counters) to decoding the
// concatenated events in one shot.
TEST(StreamingDrain, LongRunIncrementalDecodeMatchesOneShot) {
  Testbed tb(StreamingRig());
  tb.Arm();
  const StreamingRunResult r =
      RunStreamingNetworkReceive(tb, Sec(30), 2500 * 1024, 100 * kMillisecond);
  ASSERT_EQ(r.events_dropped, 0u);
  ASSERT_GE(r.events_drained, 10u * kDefaultEventRamDepth);
  ASSERT_GT(tb.profiler().bank_switches(), 10u);

  RawTrace flat;
  flat.timer_bits = tb.profiler().timer().bits();
  flat.timer_clock_hz = tb.profiler().timer().clock_hz();
  for (const TraceChunk& c : r.chunks) {
    flat.events.insert(flat.events.end(), c.events.begin(), c.events.end());
  }
  const DecodedTrace batch = Decoder::Decode(flat, tb.tags());

  StreamingDecoder dec(tb.tags());
  for (const TraceChunk& c : r.chunks) {
    dec.FeedChunk(c);
  }
  const DecodedTrace inc = dec.Finish();

  EXPECT_EQ(inc.event_count, batch.event_count);
  EXPECT_EQ(inc.unknown_tags, batch.unknown_tags);
  EXPECT_EQ(inc.orphan_exits, batch.orphan_exits);
  EXPECT_EQ(inc.unclosed_entries, batch.unclosed_entries);
  EXPECT_EQ(inc.idle_time, batch.idle_time);
  EXPECT_EQ(inc.start_time, batch.start_time);
  EXPECT_EQ(inc.end_time, batch.end_time);
  EXPECT_EQ(Summary(inc).Format(0), Summary(batch).Format(0));

  // The drain routine profiled itself into the capture.
  const FuncStats* drain = inc.Stats("profdrain");
  ASSERT_NE(drain, nullptr);
  EXPECT_GE(drain->calls, r.drains);
}

TEST(StreamingDrain, SlowDrainDropsAreFullyAccounted) {
  Testbed tb(StreamingRig());
  tb.Arm();
  // Banks fill roughly every 0.4 s; a 2 s drain period must lose the race.
  const StreamingRunResult r =
      RunStreamingNetworkReceive(tb, Sec(10), 2500 * 1024, 2 * kSecond);
  ASSERT_GT(r.events_dropped, 0u);
  EXPECT_TRUE(tb.profiler().led_overflow());
  // Every event the board ever stored came out, and every drop is in some
  // chunk header: stored + dropped = everything the triggers offered.
  EXPECT_EQ(r.events_drained, tb.profiler().total_captured());
  EXPECT_EQ(r.events_dropped, tb.profiler().dropped_events());

  // The incremental decoder surfaces the loss explicitly.
  StreamingDecoder dec(tb.tags());
  for (const TraceChunk& c : r.chunks) {
    dec.FeedChunk(c);
  }
  const DecodedTrace inc = dec.Finish();
  EXPECT_EQ(inc.dropped_events, r.events_dropped);
  EXPECT_GT(inc.capture_gaps, 0u);
  EXPECT_EQ(inc.event_count, r.events_drained);
}

TEST(StreamingDrain, StreamFileRoundTripsChunks) {
  Testbed tb(StreamingRig(1024));
  tb.Arm();
  const std::string path = ::testing::TempDir() + "/capture.hwstream";
  const StreamingRunResult r =
      RunStreamingNetworkReceive(tb, Sec(1), 32 * 1024, 50 * kMillisecond, path);
  ASSERT_TRUE(r.io_ok);
  ASSERT_FALSE(r.chunks.empty());

  StreamCapture cap;
  ASSERT_TRUE(LoadStream(path, &cap));
  EXPECT_EQ(cap.timer_bits, tb.profiler().timer().bits());
  EXPECT_EQ(cap.timer_clock_hz, tb.profiler().timer().clock_hz());
  EXPECT_FALSE(cap.truncated_tail);
  EXPECT_EQ(cap.chunks, r.chunks);
}

}  // namespace
}  // namespace hwprof
